/**
 * @file
 * Abstract per-cycle core model.
 *
 * A core model advances one clock cycle at a time and reports its
 * activity level, which the power model converts to current draw.
 * Two implementations exist (the gem5 atomic-vs-detailed split):
 *
 *  - DetailedCore: executes a synthetic instruction stream through
 *    real cache/TLB/predictor structures (microbenchmark studies).
 *  - FastCore: phase-based stochastic activity process (full-suite
 *    sweeps, 10-100x faster).
 */

#ifndef VSMOOTH_CPU_CORE_MODEL_HH
#define VSMOOTH_CPU_CORE_MODEL_HH

#include <cstddef>
#include <cstdint>

#include "common/units.hh"
#include "cpu/perf_counters.hh"

namespace vsmooth::cpu {

/** Abstract cycle-stepped core. */
class CoreModel
{
  public:
    virtual ~CoreModel() = default;

    /**
     * Advance one cycle.
     * @return activity level for the cycle, nominally in [0, ~1.2]
     *         (refill bursts can exceed the steady-state level)
     */
    virtual double tick() = 0;

    /**
     * Advance n cycles, writing each cycle's activity level to
     * activity[0..n). Semantically identical to n tick() calls — the
     * base implementation is exactly that loop — but concrete models
     * override it so virtual dispatch and per-call overhead are paid
     * once per block instead of once per cycle. The System's batched
     * pipeline guarantees no interrupt/recovery injection lands
     * inside a block, so overrides need not re-check for them
     * mid-block.
     */
    virtual void
    tickBlock(double *activity, std::size_t n)
    {
        for (std::size_t j = 0; j < n; ++j)
            activity[j] = tick();
    }

    /**
     * Conservative lower bound on the number of future tick() calls
     * before finished() could first return true (0 = already finished
     * or unknown; the all-ones Cycles means the workload never
     * finishes, e.g. a looping schedule). Used by the batched run
     * loop to size blocks without missing the exact stop cycle; the
     * default forces cycle-by-cycle finish checks.
     */
    virtual Cycles minTicksUntilFinished() const { return 0; }

    /** Performance counters accumulated so far. */
    virtual const PerfCounters &counters() const = 0;

    /**
     * Stall this core for `cycles` while the chip-wide fail-safe
     * rolls back and recovers from a voltage emergency (Sec IV).
     */
    virtual void injectRecoveryStall(std::uint32_t cycles) = 0;

    /**
     * Deliver a platform interrupt (OS timer tick). The System raises
     * it on every core in the same cycle — the synchronized stall +
     * restart is a chip-wide di/dt event.
     */
    virtual void injectPlatformInterrupt() = 0;

    /** True once the workload has run to completion. */
    virtual bool finished() const = 0;
};

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_CORE_MODEL_HH
