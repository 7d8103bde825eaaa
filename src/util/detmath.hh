/**
 * @file
 * Deterministic, branch-free log and sine kernels for the camera's
 * noise and texture passes.
 *
 * Each function is an fdlibm-style algorithm (the freely distributable
 * Sun libm that FreeBSD's msun carries) written as plain fixed-order
 * arithmetic and integer bit manipulation: no intrinsics, no tables,
 * no data-dependent branches. The result is a function of the input
 * bits alone under every -march (the build pins -ffp-contract=off),
 * and a loop over an array of inputs compiles to straight-line code
 * the vectorizer can run lane-parallel. The Box-Muller kernels work in
 * binary32, four lanes per SSE2 register, after an exact reduction in
 * double.
 *
 * These are not drop-in replacements for libm: the texture sine is
 * within ~2^-37 of it, the binary32 kernels within a few float ulps.
 * The render keeps a fast value only where a margin proves the wire
 * byte it feeds is the one the libm value gives (DESIGN.md §5e);
 * tests/test_hotpath.cc checks the error bounds that argument relies
 * on.
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

inline uint32_t
bits32(float v)
{
    return std::bit_cast<uint32_t>(v);
}

inline float
fromBits32(uint32_t v)
{
    return std::bit_cast<float>(v);
}

/** sin(x + y) for |x| <= pi/4, y the tail of x: fdlibm k_sin without
 *  its x^13 term, so degree 11 and within ~2^-37 of sin. */
inline double
sinKernel(double x, double y)
{
    constexpr double S1 = -0x1.5555555555549p-3;
    constexpr double S2 = 0x1.111111110f8a6p-7;
    constexpr double S3 = -0x1.a01a019c161d5p-13;
    constexpr double S4 = 0x1.71de357b1fe7dp-19;
    constexpr double S5 = -0x1.ae5e68a2b9cebp-26;
    double z = x * x;
    double w = z * z;
    double r = S2 + z * (S3 + z * S4) + z * w * S5;
    double v = z * x;
    return x - ((z * (0.5 * y - v * r) - y) - v * S1);
}

/** cos(x + y) for |x| <= pi/4, y the tail of x: fdlibm k_cos without
 *  its x^14 term, so degree 12. */
inline double
cosKernel(double x, double y)
{
    constexpr double C1 = 0x1.555555555554cp-5;
    constexpr double C2 = -0x1.6c16c16c15177p-10;
    constexpr double C3 = 0x1.a01a019cb1590p-16;
    constexpr double C4 = -0x1.27e4f809c52adp-22;
    constexpr double C5 = 0x1.1ee9ebdb4b1c4p-29;
    double z = x * x;
    double w = z * z;
    double r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * C5);
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

/** The binary32 form of quadrant(). */
inline float
quadrant(float s, float c, uint32_t n)
{
    uint32_t odd = 0 - (n & 1);
    uint32_t v = (bits32(s) & ~odd) | (bits32(c) & odd);
    return fromBits32(v ^ ((n & 2) << 30));
}

} // namespace detail

/**
 * Natural log of a positive normal finite x, in binary32. The
 * reduction x = 2^k (1 + f), sqrt(2)/2 <= 1 + f < sqrt(2), runs in
 * double, where f is exact, so the result keeps its relative accuracy
 * as x -> 1 (a binary32 x would round 1 - 2^-25 to 1 and lose all of
 * log x). Then fdlibm's e_logf polynomial in s = f / (2 + f), in
 * binary32: within a few float ulps of log x.
 */
inline float
log32(double x)
{
    using namespace detail;
    constexpr float kLn2Hi = 0x1.62e3p-1f;
    constexpr float kLn2Lo = 0x1.2fefa2p-17f;
    constexpr float Lg1 = 0xaaaaaap-24f;
    constexpr float Lg2 = 0xccce13p-25f;
    constexpr float Lg3 = 0x91e9eep-25f;
    constexpr float Lg4 = 0xf89e26p-26f;

    uint64_t b = bits(x);
    uint64_t hx = (b >> 32) & 0x000fffff;
    // One when the mantissa is >= sqrt(2): halve it, bump the exponent.
    uint64_t i = (hx + 0x95f64) & 0x100000;
    uint64_t e = (b >> 52) + (i >> 20);
    float f = float(fromBits(((hx | (i ^ 0x3ff00000)) << 32) |
                             (b & 0xffffffff)) -
                    1.0);
    // The biased exponent as a double, exactly, without an int
    // conversion: 2^52 + e has e in its low mantissa bits.
    float dk =
        float((fromBits(0x4330000000000000ULL | e) - 0x1p52) - 1023.0);

    float s = f / (2.0f + f);
    float z = s * s;
    float w = z * z;
    float R = z * (Lg1 + w * Lg3) + w * (Lg2 + w * Lg4);
    float hfsq = 0.5f * f * f;
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
 * sin(2 pi u) and cos(2 pi u) in binary32, for |u| < 2^48. The
 * quadrant split is exact on u itself, in double: 4u = n + f with n the
 * nearest integer and |f| <= 1/2 both exact. Then x = f * pi/2 rounds
 * once to binary32, and the Cephes sinf/cosf polynomials (degrees 9
 * and 8 on |x| <= pi/4) run in binary32.
 */
inline void
sincos2pi32(double u, float &s, float &c)
{
    using namespace detail;
    constexpr double kPio2 = 0x1.921fb54442d18p+0;
    constexpr float S1 = -1.6666654611e-1f;
    constexpr float S2 = 8.3321608736e-3f;
    constexpr float S3 = -1.9515295891e-4f;
    constexpr float C1 = 4.166664568298827e-2f;
    constexpr float C2 = -1.388731625493765e-3f;
    constexpr float C3 = 2.443315711809948e-5f;

    double t = 4.0 * u;
    double big = t + kRoundInt;
    float x = float((t - (big - kRoundInt)) * kPio2);
    float z = x * x;
    float ks = x + x * z * (S1 + z * (S2 + z * S3));
    float kc = 1.0f - 0.5f * z + z * z * (C1 + z * (C2 + z * C3));
    uint32_t n = uint32_t(bits(big));
    s = quadrant(ks, kc, n);
    c = quadrant(ks, kc, n + 1);
}

} // namespace rose::detmath

#endif // ROSE_UTIL_DETMATH_HH
