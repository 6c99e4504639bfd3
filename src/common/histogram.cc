#include "histogram.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "logging.hh"
#include "simd.hh"

namespace vsmooth {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(bins)),
      invWidth_(1.0 / ((hi - lo) / static_cast<double>(bins))),
      counts_(bins, 0),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity())
{
    if (!(hi > lo))
        panic("Histogram: hi (%g) must exceed lo (%g)", hi, lo);
    if (bins == 0)
        panic("Histogram: need at least one bin");
}

void
Histogram::add(double x, std::uint64_t count)
{
    if (x < lo_)
        underflow_ += count;
    else if (x >= hi_)
        overflow_ += count;
    else
        counts_[binIndex(x)] += count;
    total_ += count;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
Histogram::addBlock(const double *xs, std::size_t n)
{
    // Per-sample arithmetic identical to add(); bounds, reciprocal
    // width, the counts pointer, and the running extremes live in
    // locals so the loop body is branch + multiply + increment.
    const double lo = lo_;
    const double hi = hi_;
    const double inv = invWidth_;
    const std::size_t last = counts_.size() - 1;
    std::uint64_t *const counts = counts_.data();
    std::uint64_t under = 0;
    std::uint64_t over = 0;
    double mn = min_;
    double mx = max_;
    // With an AVX2 bin classifier registered, precompute clamped bin
    // indices (or out-of-range sentinels) a chunk at a time, then
    // apply counts and the running extremes in scalar sample order —
    // the index arithmetic is add()'s exactly, and min/max keep their
    // first-seen/±0 ordering semantics.
    const simd::BinIndexFn classify = simd::kernels().binIndex;
    if (classify && last < simd::kBinOverflow) {
        constexpr std::size_t kChunk = 256;
        std::uint32_t idx[kChunk];
        for (std::size_t j0 = 0; j0 < n; j0 += kChunk) {
            const std::size_t m = std::min(kChunk, n - j0);
            classify(xs + j0, m, lo, hi, inv,
                     static_cast<std::uint32_t>(last), idx);
            for (std::size_t j = 0; j < m; ++j) {
                const double x = xs[j0 + j];
                const std::uint32_t b = idx[j];
                if (b == simd::kBinUnderflow)
                    ++under;
                else if (b == simd::kBinOverflow)
                    ++over;
                else
                    ++counts[b];
                mn = x < mn ? x : mn;
                mx = x > mx ? x : mx;
            }
        }
        underflow_ += under;
        overflow_ += over;
        total_ += n;
        min_ = mn;
        max_ = mx;
        return;
    }
    for (std::size_t j = 0; j < n; ++j) {
        const double x = xs[j];
        if (x < lo) {
            ++under;
        } else if (x >= hi) {
            ++over;
        } else {
            const auto raw = static_cast<std::size_t>((x - lo) * inv);
            const std::size_t bin = raw < last ? raw : last;
            ++counts[bin];
        }
        mn = x < mn ? x : mn;
        mx = x > mx ? x : mx;
    }
    underflow_ += under;
    overflow_ += over;
    total_ += n;
    min_ = mn;
    max_ = mx;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.counts_.size() != counts_.size() || other.lo_ != lo_ ||
        other.hi_ != hi_) {
        panic("Histogram::merge: incompatible layouts");
    }
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Histogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
    underflow_ = 0;
    overflow_ = 0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

double
Histogram::binCenter(std::size_t i) const
{
    return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double
Histogram::fractionBelow(double x) const
{
    if (total_ == 0)
        return 0.0;
    if (x <= lo_) {
        // All underflow mass lies below lo_ (its exact positions are
        // not binned); it counts as below any x above the minimum.
        return x > min_
            ? static_cast<double>(underflow_) /
                static_cast<double>(total_)
            : 0.0;
    }
    if (x >= hi_) {
        return x > max_
            ? 1.0
            : 1.0 - static_cast<double>(overflow_) /
                static_cast<double>(total_);
    }
    const std::size_t idx = binIndex(x);
    std::uint64_t below = underflow_;
    for (std::size_t i = 0; i < idx; ++i)
        below += counts_[i];
    // Interpolate within the boundary bin for smoother CDF queries;
    // only in-range mass lives in the bin, so out-of-range samples
    // can no longer leak into the interpolation.
    const double frac_in_bin =
        (x - (lo_ + static_cast<double>(idx) * width_)) / width_;
    const double partial = frac_in_bin * static_cast<double>(counts_[idx]);
    return (static_cast<double>(below) + partial) /
        static_cast<double>(total_);
}

double
Histogram::fractionAtOrAbove(double x) const
{
    if (total_ == 0)
        return 0.0;
    if (x <= lo_) {
        // Underflow mass sits below lo_ at unknown positions; it is at
        // or above x only when x does not exceed the tracked minimum
        // (the mirror of fractionBelow's convention).
        return x > min_
            ? static_cast<double>(total_ - underflow_) /
                static_cast<double>(total_)
            : 1.0;
    }
    if (x >= hi_) {
        // The whole tail is the overflow bucket: one integer count,
        // one division — exact to the half-ulp, however deep the tail.
        return x > max_
            ? 0.0
            : static_cast<double>(overflow_) /
                static_cast<double>(total_);
    }
    const std::size_t idx = binIndex(x);
    std::uint64_t above = overflow_;
    for (std::size_t i = idx + 1; i < counts_.size(); ++i)
        above += counts_[i];
    // The boundary bin contributes the complement of fractionBelow's
    // within-bin interpolation, applied to that bin's count alone —
    // small numbers throughout, so no large-minus-large cancellation.
    const double frac_in_bin =
        (x - (lo_ + static_cast<double>(idx) * width_)) / width_;
    const double partial =
        (1.0 - frac_in_bin) * static_cast<double>(counts_[idx]);
    return (static_cast<double>(above) + partial) /
        static_cast<double>(total_);
}

double
Histogram::quantile(double q) const
{
    if (total_ == 0)
        panic("Histogram::quantile on empty histogram");
    if (q < 0.0 || q > 1.0)
        panic("Histogram::quantile q=%g outside [0,1]", q);
    if (q == 0.0)
        return min_;
    if (q == 1.0)
        return max_;
    const auto target = static_cast<double>(total_) * q;
    double cum = static_cast<double>(underflow_);
    if (cum >= target)
        return min_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cum += static_cast<double>(counts_[i]);
        if (cum >= target)
            return std::clamp(binCenter(i), min_, max_);
    }
    // Remaining mass is overflow, above the binned range.
    return max_;
}

std::vector<std::pair<double, double>>
Histogram::cdf() const
{
    std::vector<std::pair<double, double>> out;
    out.reserve(counts_.size());
    std::uint64_t cum = underflow_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cum += counts_[i];
        const double edge = lo_ + static_cast<double>(i + 1) * width_;
        const double frac = total_ == 0
            ? 0.0
            : static_cast<double>(cum) / static_cast<double>(total_);
        out.emplace_back(edge, frac);
    }
    return out;
}

} // namespace vsmooth
