/**
 * @file
 * Order statistics the benchmark reports.
 */

#ifndef ROSEBENCH_STATS_HH
#define ROSEBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <vector>

namespace rosebench {

/** Nearest-rank percentile of @p v (0 for an empty sample). */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = std::ceil(q / 100.0 * double(v.size()));
    size_t i = rank < 1.0 ? 0 : size_t(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

/**
 * The tail percentile a sample of @p n supports: the highest of
 * {50, 75, 90, 95, 99, 99.9}, capped at @p cap, that leaves at least
 * ten samples beyond it. A sample too small for even the median's
 * ten falls back to the median.
 */
inline double
tailPercentile(size_t n, double cap)
{
    static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    for (double q : kLadder) {
        if (q > cap)
            continue;
        if (double(n) * (100.0 - q) / 100.0 >= 10.0 - 1e-9)
            return q;
    }
    return 50.0;
}

inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

} // namespace rosebench

#endif // ROSEBENCH_STATS_HH
