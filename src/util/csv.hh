/**
 * @file
 * Minimal CSV emission, matching the paper's artifact output format:
 * "CSV logs from the synchronizer, tracking UAV dynamics, sensing
 * requests, and control targets."
 */

#ifndef ROSE_UTIL_CSV_HH
#define ROSE_UTIL_CSV_HH

#include <cstddef>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace rose {

/** Room formatCsvCell needs: its longest output, "-1.23457e-308", is
 *  13 characters. */
constexpr size_t kCsvCellMaxChars = 16;

/**
 * Write @p v as CsvWriter's default ostream insertion writes it
 * (defaultfloat, precision 6, i.e. printf("%.6g") in the C locale) to
 * the kCsvCellMaxChars bytes at @p out, with no terminator. Returns
 * one past the last character written.
 *
 * When @p printed is non-null it receives the double the written
 * decimal denotes, bit for bit what strtod would read back from the
 * cell: a trajectory record stores exactly that value (narrowed to
 * f32), so the cell is formatted once for both.
 *
 * Finite magnitudes in [1e-16, 1e21) take an exact fast path that
 * derives the six digits from one scaling by an exact power of ten
 * and the printed value from one more (DESIGN.md §5f, "One formatted
 * cell"). Zero is written directly. Near-ties and every other value
 * take std::to_chars (chars_format::general at precision 6, which the
 * standard defines as printf's %.6g) and std::from_chars.
 */
char *formatCsvCell(char *out, double v, double *printed = nullptr);

/**
 * Row-oriented CSV writer. Construct with a header; each row must supply
 * exactly as many cells as the header has columns.
 */
class CsvWriter
{
  public:
    /** Write to an externally-owned stream (e.g. std::cout). */
    CsvWriter(std::ostream &os, const std::vector<std::string> &header);

    /** Open and own a file stream; throws via fatal on failure. */
    CsvWriter(const std::string &path,
              const std::vector<std::string> &header);

    /** Append one row of already-formatted cells. */
    void writeRow(const std::vector<std::string> &cells);

    /** Append one row, formatting each value with operator<<. */
    template <typename... Args>
    void
    row(Args &&...args)
    {
        std::vector<std::string> cells;
        cells.reserve(sizeof...(args));
        (cells.push_back(format(std::forward<Args>(args))), ...);
        writeRow(cells);
    }

    size_t columns() const { return columns_; }
    size_t rowsWritten() const { return rows_; }

  private:
    template <typename T>
    static std::string
    format(T &&v)
    {
        std::ostringstream os;
        os << v;
        return os.str();
    }

    std::ofstream owned_;
    std::ostream *os_;
    size_t columns_;
    size_t rows_ = 0;
};

} // namespace rose

#endif // ROSE_UTIL_CSV_HH
