/**
 * @file
 * Deterministic, branch-free log and sine kernels for the camera's
 * noise and texture passes.
 *
 * Each function is the fdlibm algorithm (the freely distributable Sun
 * libm that FreeBSD's msun carries) written as plain fixed-order
 * double arithmetic and integer bit manipulation: no intrinsics, no
 * tables, no data-dependent branches. The result is a function of the
 * input bits alone under every -march (the build pins
 * -ffp-contract=off), and a loop over an array of inputs compiles to
 * straight-line code the vectorizer can run lane-parallel.
 *
 * These are not drop-in replacements for libm: they can differ from
 * glibc in the last bit or two. The render keeps a fast value only
 * where a bracket proves the pixel it feeds is the one the libm value
 * gives (DESIGN.md §5e); tests/test_hotpath.cc checks the error bounds
 * that argument relies on.
 */

#ifndef ROSE_UTIL_DETMATH_HH
#define ROSE_UTIL_DETMATH_HH

#include <bit>
#include <cstdint>

namespace rose::detmath {

/** |u| bound of sin(): the reduction is exact for |u| <= 2^20. */
inline constexpr double kSinDomain = 0x1p20;

namespace detail {

/** Adding then subtracting 1.5*2^52 rounds |v| < 2^51 to the nearest
 *  integer; the sum's low mantissa bits hold that integer mod 2^51. */
inline constexpr double kRoundInt = 0x1.8p52;

inline uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

inline double
fromBits(uint64_t v)
{
    return std::bit_cast<double>(v);
}

/** sin(x + y) for |x| <= pi/4, y the tail of x (fdlibm k_sin). */
inline double
sinKernel(double x, double y)
{
    constexpr double S1 = -0x1.5555555555549p-3;
    constexpr double S2 = 0x1.111111110f8a6p-7;
    constexpr double S3 = -0x1.a01a019c161d5p-13;
    constexpr double S4 = 0x1.71de357b1fe7dp-19;
    constexpr double S5 = -0x1.ae5e68a2b9cebp-26;
    constexpr double S6 = 0x1.5d93a5acfd57cp-33;
    double z = x * x;
    double w = z * z;
    double r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    double v = z * x;
    return x - ((z * (0.5 * y - v * r) - y) - v * S1);
}

/** cos(x + y) for |x| <= pi/4, y the tail of x (fdlibm k_cos). */
inline double
cosKernel(double x, double y)
{
    constexpr double C1 = 0x1.555555555554cp-5;
    constexpr double C2 = -0x1.6c16c16c15177p-10;
    constexpr double C3 = 0x1.a01a019cb1590p-16;
    constexpr double C4 = -0x1.27e4f809c52adp-22;
    constexpr double C5 = 0x1.1ee9ebdb4b1c4p-29;
    constexpr double C6 = -0x1.8fae9be8838d4p-37;
    double z = x * x;
    double w = z * z;
    double r = z * (C1 + z * (C2 + z * C3)) +
               w * w * (C4 + z * (C5 + z * C6));
    double hz = 0.5 * z;
    double c = 1.0 - hz;
    return c + (((1.0 - c) - hz) + (z * r - x * y));
}

/** sin(x + n*pi/2) from s = sin(x) and c = cos(x): odd n swaps in the
 *  cosine, n & 2 negates. Bit selects, so no branch. */
inline double
quadrant(double s, double c, uint64_t n)
{
    uint64_t odd = 0 - (n & 1);
    uint64_t v = (bits(s) & ~odd) | (bits(c) & odd);
    return fromBits(v ^ ((n & 2) << 62));
}

} // namespace detail

/**
 * Natural log of a positive normal finite x (fdlibm e_log): x =
 * 2^k (1 + f) with sqrt(2)/2 <= 1 + f < sqrt(2), then a degree-14
 * odd polynomial in s = f / (2 + f). Error below 1 ulp.
 */
inline double
log(double x)
{
    using namespace detail;
    constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
    constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
    constexpr double Lg1 = 0x1.5555555555593p-1;
    constexpr double Lg2 = 0x1.999999997fa04p-2;
    constexpr double Lg3 = 0x1.2492494229359p-2;
    constexpr double Lg4 = 0x1.c71c51d8e78afp-3;
    constexpr double Lg5 = 0x1.7466496cb03dep-3;
    constexpr double Lg6 = 0x1.39a09d078c69fp-3;
    constexpr double Lg7 = 0x1.2f112df3e5244p-3;

    uint64_t b = bits(x);
    uint64_t hx = (b >> 32) & 0x000fffff;
    // One when the mantissa is >= sqrt(2): halve it, bump the exponent.
    uint64_t i = (hx + 0x95f64) & 0x100000;
    uint64_t e = (b >> 52) + (i >> 20);
    double f = fromBits(((hx | (i ^ 0x3ff00000)) << 32) |
                        (b & 0xffffffff)) -
               1.0;
    // The biased exponent as a double, exactly, without an int
    // conversion: 2^52 + e has e in its low mantissa bits.
    double dk = (fromBits(0x4330000000000000ULL | e) - 0x1p52) - 1023.0;

    double s = f / (2.0 + f);
    double z = s * s;
    double w = z * z;
    double t1 = w * (Lg2 + w * (Lg4 + w * Lg6));
    double t2 = z * (Lg1 + w * (Lg3 + w * (Lg5 + w * Lg7)));
    double R = t2 + t1;
    double hfsq = 0.5 * f * f;
    return dk * kLn2Hi - ((hfsq - (s * (hfsq + R) + dk * kLn2Lo)) - f);
}

/**
 * sin(u) for |u| <= kSinDomain. The argument is reduced by the nearest
 * multiple n of pi/2 held in three parts (fdlibm's pio2_1 and pio2_2,
 * 33 bits each, then the pio2_2t tail): n * pio2_1 and n * pio2_2 are
 * exact for n < 2^20, and the compensated second step carries the
 * rounding error into the kernels' tail argument.
 */
inline double
sin(double u)
{
    using namespace detail;
    constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
    constexpr double kPio2_1 = 0x1.921fb54400000p+0;
    constexpr double kPio2_2 = 0x1.0b4611a600000p-34;
    constexpr double kPio2_2t = 0x1.3198a2e037073p-69;

    double big = u * kInvPio2 + kRoundInt;
    double fn = big - kRoundInt;
    double t = u - fn * kPio2_1;
    double w = fn * kPio2_2;
    double r = t - w;
    w = fn * kPio2_2t - ((t - r) - w);
    double x = r - w;
    double y = (r - x) - w;
    return quadrant(sinKernel(x, y), cosKernel(x, y), bits(big));
}

/**
 * sin(2 pi u) and cos(2 pi u) for |u| < 2^48. The quadrant split is
 * exact on u itself: 4u = n + f with n the nearest integer and
 * |f| <= 1/2 are both exact, so only f * pi/2 rounds.
 */
inline void
sincos2pi(double u, double &s, double &c)
{
    using namespace detail;
    constexpr double kPio2 = 0x1.921fb54442d18p+0;

    double t = 4.0 * u;
    double big = t + kRoundInt;
    double x = (t - (big - kRoundInt)) * kPio2;
    double ks = sinKernel(x, 0.0);
    double kc = cosKernel(x, 0.0);
    uint64_t n = bits(big);
    s = quadrant(ks, kc, n);
    c = quadrant(ks, kc, n + 1);
}

} // namespace rose::detmath

#endif // ROSE_UTIL_DETMATH_HH
