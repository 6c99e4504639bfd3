/**
 * @file
 * Voltage-noise event detection.
 *
 * A *droop event* begins when the voltage deviation falls below a
 * margin and ends when it recovers above a release level (hysteresis:
 * one excursion of the resonant ring = one event, not one event per
 * sample). This is the unit behind the paper's "droops per 1K cycles"
 * metric and, at the operating margin, behind emergency counting for
 * the resilient-design performance model.
 */

#ifndef VSMOOTH_NOISE_DROOP_DETECTOR_HH
#define VSMOOTH_NOISE_DROOP_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace vsmooth::noise {

/** Hysteresis threshold-crossing detector for droops (or, mirrored,
 *  overshoots). Deviations are signed fractions of nominal voltage
 *  (e.g. -0.023 = 2.3 % below nominal). */
class DroopDetector
{
  public:
    /**
     * @param margin positive fraction of nominal; an event starts
     *        when deviation < -margin
     * @param releaseFactor event ends when deviation rises above
     *        -margin * releaseFactor (0 <= factor < 1)
     */
    explicit DroopDetector(double margin, double releaseFactor = 0.9);

    /**
     * Feed one per-cycle deviation sample.
     * @return true if a new droop event starts on this sample
     */
    bool
    feed(double deviation)
    {
        if (inEvent_) {
            if (deviation < eventDepth_)
                eventDepth_ = deviation;
            if (deviation > release_) {
                inEvent_ = false;
                deepest_ = eventDepth_ < deepest_ ? eventDepth_ : deepest_;
            }
            return false;
        }
        if (deviation < threshold_) {
            inEvent_ = true;
            eventDepth_ = deviation;
            ++events_;
            return true;
        }
        return false;
    }

    std::uint64_t eventCount() const { return events_; }
    bool inEvent() const { return inEvent_; }
    double margin() const { return -threshold_; }
    /** Deepest deviation of any completed event (<= 0). */
    double deepestEvent() const { return deepest_; }

    void reset();

  private:
    double threshold_;
    double release_;
    bool inEvent_ = false;
    double eventDepth_ = 0.0;
    double deepest_ = 0.0;
    std::uint64_t events_ = 0;
};

/** A set of droop detectors at different margins fed together, so one
 *  simulation yields emergency counts across the whole margin sweep
 *  (the x-axis of Figs 8 and 10). */
class DroopDetectorBank
{
  public:
    explicit DroopDetectorBank(const std::vector<double> &margins,
                               double releaseFactor = 0.9);

    /** Feed one deviation sample to every detector. */
    void
    feed(double deviation)
    {
        // Detectors are sorted by increasing margin, which gives a
        // monotone invariant: if a shallow detector is idle and not
        // triggered by this sample, no deeper detector can be either
        // (deeper thresholds are lower and deeper release levels are
        // crossed first on the way up). So we stop at the first
        // detector with nothing to do — on typical cycles that is the
        // very first one.
        for (auto &d : detectors_) {
            if (!d.inEvent() && deviation >= -d.margin())
                break;
            d.feed(deviation);
        }
    }

    /**
     * Feed a block of consecutive samples. The shallowest margin's
     * threshold is hoisted into a local so the common case — an idle
     * bank seeing an in-margin sample — is a flag load plus one
     * compare per sample; anything else drops into the per-sample
     * feed(). The skip condition is exactly feed()'s first-iteration
     * break (the shallowest detector is idle and untriggered, which
     * by the sorted-margin invariant means every detector is), so the
     * block path is bit-identical to feeding sample by sample.
     */
    void
    feedBlock(const double *deviations, std::size_t n)
    {
        if (detectors_.empty())
            return;
        const DroopDetector &front = detectors_.front();
        const double shallow = -front.margin();
        for (std::size_t j = 0; j < n; ++j) {
            const double d = deviations[j];
            if (!front.inEvent() && d >= shallow)
                continue;
            feed(d);
        }
    }

    std::size_t size() const { return detectors_.size(); }
    const DroopDetector &detector(std::size_t i) const
    { return detectors_.at(i); }
    double marginAt(std::size_t i) const
    { return detectors_.at(i).margin(); }
    std::uint64_t eventCountAt(std::size_t i) const
    { return detectors_.at(i).eventCount(); }

    /**
     * Index of a configured margin. Exact values (as passed at
     * construction or returned by marginAt()) always resolve; values
     * recomputed through arithmetic are matched to the unambiguous
     * nearest margin within a relative last-ulp bound. Fatal if the
     * margin was never configured.
     */
    std::size_t indexForMargin(double margin) const;

    /** Event count for a configured margin (see indexForMargin). */
    std::uint64_t eventCountForMargin(double margin) const;

    void reset();

  private:
    std::vector<DroopDetector> detectors_;
    /** The configured margins, sorted ascending, stored exactly as
     *  the detectors were built (index-aligned with detectors_). */
    std::vector<double> margins_;
};

} // namespace vsmooth::noise

#endif // VSMOOTH_NOISE_DROOP_DETECTOR_HH
