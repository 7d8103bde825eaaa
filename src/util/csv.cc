#include "csv.hh"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "logging.hh"

namespace rose {

namespace {

/** 10^0 .. 10^22: every power of ten a double holds exactly. */
constexpr double kExactPow10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/** @p a · 10^@p k as one correctly rounded multiply or divide by an
 *  exact power of ten (|k| ≤ 22). */
double
scalePow10(double a, int k)
{
    return k >= 0 ? a * kExactPow10[k] : a / kExactPow10[-k];
}

/**
 * The %.6g cell of a finite @p v with |v| = @p a in [1e-16, 1e21), or
 * nullptr when the six digits cannot be decided here (DESIGN.md §5f,
 * "One formatted cell").
 *
 * X is the decimal exponent and s = a · 10^(5-X) the value scaled to
 * six integer digits. s comes from one rounding of exact operands, so
 * it is within half an ulp below 2^20 (< 1.2e-10) of the exact scaled
 * value: its rounded integer n is the exact one unless the fraction
 * lies within 1e-9 of one half, where the cell goes to to_chars (every
 * representable tie lands there, and to_chars rounds it half-even).
 */
char *
formatFast(char *out, double v, double a, double *printed)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &a, sizeof(a));
    // a is normal here, so a ∈ [2^e2, 2^(e2+1)), and the exact
    // floor(e2 · log10 2) for |e2| < 1100 is (e2 · 78913) >> 18: X
    // starts at the true exponent or one below it.
    const int e2 = int(bits >> 52) - 1023;
    int x = (e2 * 78913) >> 18;
    double s = scalePow10(a, 5 - x);
    if (s >= 1e6)
        s = scalePow10(a, 5 - ++x);
    int64_t n = int64_t(s);
    const double frac = s - double(n);
    if (std::fabs(frac - 0.5) <= 1e-9)
        return nullptr;
    n += frac > 0.5;
    if (n == 1000000) { // rounded up into the next decade
        n = 100000;
        ++x;
    }
    if (n < 100000 || n > 999999)
        return nullptr;

    if (printed) {
        // n · 10^(X-5): n < 2^53 and the power of ten are exact, so one
        // IEEE operation is the correctly rounded value of the decimal,
        // which is what strtod returns (Clinger's fast path).
        const double p = scalePow10(double(n), x - 5);
        *printed = v < 0 ? -p : p;
    }

    char d[6];
    for (int i = 5; i >= 0; --i, n /= 10)
        d[i] = char('0' + n % 10);
    int digits = 6; // without the trailing zeros %g strips
    while (d[digits - 1] == '0')
        --digits;

    char *p = out;
    if (v < 0)
        *p++ = '-';
    if (x >= -4 && x < 6) { // fixed notation with 5-X decimals
        if (x >= 0) {
            for (int i = 0; i <= x; ++i)
                *p++ = d[i];
            if (digits > x + 1)
                *p++ = '.';
            for (int i = x + 1; i < digits; ++i)
                *p++ = d[i];
        } else {
            *p++ = '0';
            *p++ = '.';
            for (int i = -1; i > x; --i)
                *p++ = '0';
            for (int i = 0; i < digits; ++i)
                *p++ = d[i];
        }
        return p;
    }
    *p++ = d[0];
    if (digits > 1)
        *p++ = '.';
    for (int i = 1; i < digits; ++i)
        *p++ = d[i];
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    const int ax = x < 0 ? -x : x; // < 100 in the fast range
    *p++ = char('0' + ax / 10);
    *p++ = char('0' + ax % 10);
    return p;
}

void
emitRow(std::ostream &os, const std::vector<std::string> &cells)
{
    for (size_t i = 0; i < cells.size(); ++i) {
        if (i)
            os << ',';
        // Quote cells containing separators; the logs we emit are plain
        // numeric, so this path is rare.
        const std::string &c = cells[i];
        if (c.find_first_of(",\"\n") != std::string::npos) {
            os << '"';
            for (char ch : c) {
                if (ch == '"')
                    os << '"';
                os << ch;
            }
            os << '"';
        } else {
            os << c;
        }
    }
    os << '\n';
}

} // namespace

char *
formatCsvCell(char *out, double v, double *printed)
{
    const double a = std::fabs(v);
    if (a >= 1e-16 && a < 1e21) {
        if (char *end = formatFast(out, v, a, printed))
            return end;
    } else if (a == 0.0) {
        char *p = out;
        if (std::signbit(v))
            *p++ = '-';
        *p++ = '0';
        if (printed)
            *printed = v;
        return p;
    }
    char *end = std::to_chars(out, out + kCsvCellMaxChars, v,
                              std::chars_format::general, 6)
                    .ptr;
    if (printed)
        std::from_chars(out, end, *printed);
    return end;
}

CsvWriter::CsvWriter(std::ostream &os, const std::vector<std::string> &header)
    : os_(&os), columns_(header.size())
{
    rose_assert(columns_ > 0, "CSV header must be non-empty");
    emitRow(*os_, header);
}

CsvWriter::CsvWriter(const std::string &path,
                     const std::vector<std::string> &header)
    : owned_(path), os_(&owned_), columns_(header.size())
{
    if (!owned_)
        rose_fatal("cannot open CSV output file: ", path);
    rose_assert(columns_ > 0, "CSV header must be non-empty");
    emitRow(*os_, header);
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    if (cells.size() != columns_) {
        rose_panic("CSV row has ", cells.size(), " cells, expected ",
                   columns_);
    }
    emitRow(*os_, cells);
    ++rows_;
}

} // namespace rose
