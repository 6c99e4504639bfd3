/**
 * @file
 * Order statistics for the benchmark's reported numbers.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/** Linearly interpolated quantile q in [0, 1]; 0 for no samples. */
inline double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double
median(const std::vector<double> &xs)
{
    return percentile(xs, 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
