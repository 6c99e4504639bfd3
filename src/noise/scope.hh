/**
 * @file
 * The oscilloscope model: streaming capture of per-cycle voltage
 * deviations into a compressed histogram (the Agilent scope's
 * histogram mode, Sec II-A), plus peak-to-peak tracking.
 */

#ifndef VSMOOTH_NOISE_SCOPE_HH
#define VSMOOTH_NOISE_SCOPE_HH

#include "common/histogram.hh"

namespace vsmooth::noise {

/**
 * Captures voltage deviation samples (signed fraction of nominal).
 * Range covers the deepest physically plausible excursions
 * (-25 %..+15 %) at 0.01 % resolution.
 */
class Scope
{
  public:
    Scope();

    /** Record one per-cycle deviation sample. */
    void record(double deviation) { histogram_.add(deviation); }

    /** Record a block of consecutive per-cycle deviation samples. */
    void
    recordBlock(const double *deviations, std::size_t n)
    {
        histogram_.addBlock(deviations, n);
    }

    /** Merge another scope's samples (multi-run aggregation). */
    void merge(const Scope &other) { histogram_.merge(other.histogram_); }

    const Histogram &histogram() const { return histogram_; }

    /** Largest droop seen, as a positive fraction (e.g. 0.096). */
    double maxDroop() const;
    /** Largest overshoot seen, as a positive fraction. */
    double maxOvershoot() const;
    /** Peak-to-peak swing as a fraction of nominal. */
    double peakToPeak() const;
    /**
     * Visually apparent peak-to-peak swing: the span between extreme
     * quantiles rather than absolute min/max. This matches what the
     * paper read off the scope's persistence display — one-in-a-
     * billion alignments do not register there.
     */
    double visualPeakToPeak(double tailFraction = 3e-5) const;
    /** Fraction of samples below a (negative) deviation. */
    double fractionBelow(double deviation) const
    { return histogram_.fractionBelow(deviation); }
    /** Fraction of samples outside +/- band (the paper's "beyond
     *  typical case" metric; band positive, e.g. 0.04). */
    double fractionOutside(double band) const;

    void clear() { histogram_.clear(); }

  private:
    Histogram histogram_;
};

} // namespace vsmooth::noise

#endif // VSMOOTH_NOISE_SCOPE_HH
