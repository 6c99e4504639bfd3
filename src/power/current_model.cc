#include "current_model.hh"

#include "common/logging.hh"
#include "common/simd.hh"
#include "dsp/primitives.hh"

namespace vsmooth::power {

CurrentModel::CurrentModel(const CurrentModelParams &params)
    : params_(params), previous_(steadyCurrent(0.0))
{
    if (params_.leakage.value() < 0.0 || params_.idleClock.value() < 0.0 ||
        params_.dynamicMax.value() < 0.0) {
        fatal("CurrentModel: current components must be non-negative");
    }
}

double
CurrentModel::steadyCurrent(double activity) const
{
    // Restart bursts can briefly exceed the steady-state activity
    // ceiling (in-rush above sustained max); the map allows that
    // headroom and models clock gating — see
    // dsp::activityToCurrentSample for the (branchless) arithmetic.
    return dsp::activityToCurrentSample(activity,
                                        params_.leakage.value(),
                                        params_.idleClock.value(),
                                        params_.dynamicMax.value());
}

double
CurrentModel::currentFor(double activity)
{
    const double alpha = 1.0 / (1.0 + params_.smoothingTauCycles);
    return dsp::smoothSlewSample(previous_, steadyCurrent(activity),
                                 params_.smoothingTauCycles, alpha,
                                 params_.maxSlewPerCycle);
}

void
CurrentModel::accumulateBlock(const double *activity, double *totalAmps,
                              std::size_t n)
{
    BlockCursor c = cursor();
    for (std::size_t j = 0; j < n; ++j)
        totalAmps[j] += c.step(activity[j]);
    commit(c);
}

void
CurrentModel::steadyBlock(const double *activity, double *steady,
                          std::size_t n) const
{
    const double leak = params_.leakage.value();
    const double idleClk = params_.idleClock.value();
    const double dynMax = params_.dynamicMax.value();
    // The AVX2 build registers a 4-wide version of exactly this
    // arithmetic (same operations, same order); the scalar level
    // falls through to the dsp map's plain loop, the reference.
    if (const simd::SteadyFn kernel = simd::kernels().steady) {
        kernel(leak, idleClk, dynMax, activity, steady, n);
        return;
    }
    dsp::ActivityMap{leak, idleClk, dynMax}.processBlock(activity,
                                                         steady, n);
}

void
CurrentModel::reset(double activity)
{
    previous_ = steadyCurrent(activity);
}

} // namespace vsmooth::power
