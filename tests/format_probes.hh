/**
 * @file
 * Doubles that stress a printf("%.6g")-compatible formatter, shared by
 * the CSV cell and canonical-f32 byte-identity property tests. Beyond
 * the classic %g edges they aim at the cell formatter's fast path
 * (util/csv.cc): its rounding decision near a half, its exponent
 * estimate at decade edges, and the borders of its [1e-16, 1e21)
 * range.
 */

#ifndef ROSE_TESTS_FORMAT_PROBES_HH
#define ROSE_TESTS_FORMAT_PROBES_HH

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.hh"

namespace rose::test {

/** Hand-picked edge cases: signed zeros, subnormals, the fixed/exponent
 *  switch at 1e-4/1e-5 and 1e5/1e6, cells that round up into the next
 *  decade, the finite extremes, and the non-finite values. */
inline std::vector<double>
formatEdgeCases()
{
    using L = std::numeric_limits<double>;
    std::vector<double> v = {
        0.0, 1.0, 0.1, 0.5, 1.5, 2.5, 123456.0, 1234567.0,
        L::denorm_min(), L::min(), std::nextafter(L::min(), 0.0),
        L::max(), L::lowest(), L::epsilon(),
        1e-4, 9.99999e-5, 9.999995e-5, 9.9999949e-5, 1e-5, 1.00000e-5,
        1e5, 99999.9, 99999.95, 99999.949, 999999.0, 999999.4,
        999999.5, 1e6, 1e7,
        9.999995, 9.9999949, 9.99999, 0.9999995, 99.99995,
        1e-300, 1e300, 4.9406564584124654e-324, 2.2250738585072009e-308,
        L::infinity(), L::quiet_NaN(),
        // The fast path's range and its neighbours on both sides.
        1e-16, std::nextafter(1e-16, 0.0), std::nextafter(1e-16, 1.0),
        1e21, std::nextafter(1e21, 0.0), std::nextafter(1e21, 1e300),
        9.999995e20, 9.9999949e20, 1.00000e-16, 9.999995e-17,
        // Representable ties: integers of 7+ digits ending in 5, and
        // six-digit m + 0.5 and m + 0.25.
        1234565.0, 1000005.0, 9999995.0, 12345675.0, 123456785.0,
        100000.5, 999999.5, 123456.5, 10000.25, 99999.25,
    };
    // 10^k·(1 ± 5e-7): the half-steps around each decade edge, where
    // the estimated exponent and a round up into the next decade meet.
    for (int k = -17; k <= 22; ++k) {
        for (double f : {1.0 - 5e-7, 1.0 + 5e-7}) {
            double edge = std::pow(10.0, k) * f;
            v.push_back(edge);
            v.push_back(std::nextafter(edge, 0.0));
            v.push_back(std::nextafter(edge, 1e300));
        }
    }
    const size_t n = v.size();
    for (size_t i = 0; i < n; ++i)
        v.push_back(-v[i]);
    return v;
}

/**
 * The @p i-th seeded probe, cycling through six families: raw bit
 * patterns (every class of double, subnormals and NaN payloads
 * included), log-uniform magnitudes across the exponent switch,
 * halfway points between neighbouring 6-digit decimals (where rounding
 * is decided), trajectory-like values, the nextafter neighbours of
 * those halfway points, and exactly representable ties.
 */
inline double
formatProbe(Rng &rng, int i)
{
    double sign = rng.bernoulli(0.5) ? -1.0 : 1.0;
    switch (i % 6) {
      case 0: {
        uint64_t bits = rng.next();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
      }
      case 1:
        return sign * std::pow(10.0, rng.uniform(-8.0, 9.0));
      case 2: {
        int exp10 = int(rng.uniformInt(17)) - 8;
        double halfway = double(100000 + rng.uniformInt(900000)) + 0.5;
        return sign * halfway * std::pow(10.0, exp10 - 5);
      }
      case 3:
        return rng.uniform(-50.0, 50.0);
      case 4: {
        // One ulp either side of a halfway point anywhere in the fast
        // range: the rounding must follow the exact value, not the
        // nearest tie.
        int exp10 = int(rng.uniformInt(37)) - 16;
        double halfway = double(100000 + rng.uniformInt(900000)) + 0.5;
        double h = halfway * std::pow(10.0, exp10 - 5);
        return sign * std::nextafter(h, rng.bernoulli(0.5) ? 0.0 : 1e300);
      }
      default: {
        // A tie the double holds exactly: (10m + 5)·10^e for a six-digit
        // m, either an integer (e ≥ 0) or m + 0.5 (e = -1).
        double m = double(100000 + rng.uniformInt(900000));
        int e = int(rng.uniformInt(10)) - 1;
        double tie = e < 0 ? m + 0.5 : (10.0 * m + 5.0) * std::pow(10.0, e);
        return sign * tie;
      }
    }
}

} // namespace rose::test

#endif // ROSE_TESTS_FORMAT_PROBES_HH
