/**
 * @file
 * Fixed-bin streaming histogram and cumulative-distribution helpers.
 *
 * This is the software model of the oscilloscope's "highly compressed
 * histogram format" the paper relied on (Sec II-A): billions of voltage
 * samples reduce to a small fixed-size array, from which CDFs (Fig 7,
 * Fig 9), tail fractions (0.06 % beyond -4 %), and extreme droop /
 * overshoot values are recovered.
 */

#ifndef VSMOOTH_COMMON_HISTOGRAM_HH
#define VSMOOTH_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace vsmooth {

/**
 * Histogram over a fixed range [lo, hi) with uniform bins.
 *
 * Samples outside the range are counted in explicit underflow /
 * overflow buckets so no sample is ever silently dropped (extreme
 * droops are precisely the interesting ones) and no out-of-range mass
 * is misattributed to the edge bins — clamping them there distorted
 * the within-bin interpolation behind the deep-droop tail fractions
 * (Fig 7/9). Exact min/max are tracked separately.
 */
class Histogram
{
  public:
    /**
     * @param lo inclusive lower edge of the binned range
     * @param hi exclusive upper edge of the binned range
     * @param bins number of uniform bins (>= 1)
     */
    Histogram(double lo, double hi, std::size_t bins);

    /**
     * Add one sample. Defined in the header so the per-cycle scalar
     * path and the block path (addBlock) inline the same in-range bin
     * computation — a compare pair plus one multiply by the
     * precomputed 1/binWidth — and stay bit-identical to each other.
     */
    void
    add(double x)
    {
        if (x < lo_)
            ++underflow_;
        else if (x >= hi_)
            ++overflow_;
        else
            ++counts_[binIndex(x)];
        ++total_;
        min_ = x < min_ ? x : min_;
        max_ = x > max_ ? x : max_;
    }

    /** Add a sample with a given multiplicity (weight >= 1). */
    void add(double x, std::uint64_t count);

    /**
     * Add a block of samples: the same per-sample arithmetic as add()
     * with the range bounds, reciprocal bin width, and min/max
     * tracking hoisted into locals for the duration of the block.
     */
    void addBlock(const double *xs, std::size_t n);

    /** Merge a compatible histogram (same lo/hi/bins). */
    void merge(const Histogram &other);

    /** Reset all counts. */
    void clear();

    std::uint64_t totalCount() const { return total_; }
    std::size_t numBins() const { return counts_.size(); }
    /** Samples below the binned range (counted, never binned). */
    std::uint64_t underflowCount() const { return underflow_; }
    /** Samples at or above the binned range. */
    std::uint64_t overflowCount() const { return overflow_; }
    /** Exact minimum sample seen (not bin-quantized). */
    double minSample() const { return min_; }
    /** Exact maximum sample seen (not bin-quantized). */
    double maxSample() const { return max_; }

    /** Count in bin i. */
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    /** Center value of bin i. */
    double binCenter(std::size_t i) const;

    /** Fraction of samples strictly below x (bin-resolution accurate). */
    double fractionBelow(double x) const;
    /**
     * Fraction of samples at or above x, computed directly from the
     * at-or-above bin counts plus the overflow bucket — never as
     * 1.0 - fractionBelow(x), which catastrophically cancels for the
     * deep-tail queries droop-margin CDFs serve (a 1e-12 tail of a
     * billion-sample histogram would come back with only ~4 correct
     * digits).
     */
    double fractionAtOrAbove(double x) const;

    /**
     * Inverse CDF: smallest bin center v such that at least fraction q
     * of samples are <= v, clamped to the exact sample extremes.
     * quantile(0) and quantile(1) return the tracked min/max samples.
     * q in [0, 1].
     */
    double quantile(double q) const;

    /**
     * CDF evaluated at each bin's upper edge, as (value, cumulative
     * fraction) pairs — directly plottable as the paper's Fig 7/9.
     * Underflow mass is included from the first edge on; with
     * overflow present the final fraction is 1 - overflow/total.
     */
    std::vector<std::pair<double, double>> cdf() const;

  private:
    /**
     * Bin index for in-range x (lo_ <= x < hi_). Multiplies by the
     * precomputed reciprocal bin width instead of dividing; the
     * conditional guards the floating-point edge case where
     * x == hi_ - ulp maps to numBins().
     */
    std::size_t
    binIndex(double x) const
    {
        const auto raw = static_cast<std::size_t>((x - lo_) * invWidth_);
        const std::size_t last = counts_.size() - 1;
        return raw < last ? raw : last;
    }

    double lo_;
    double hi_;
    double width_;
    double invWidth_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    double min_;
    double max_;
};

} // namespace vsmooth

#endif // VSMOOTH_COMMON_HISTOGRAM_HH
