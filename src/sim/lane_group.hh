/**
 * @file
 * Scenario-lane engine: run K independent System simulations in
 * lockstep, feeding their carried per-cycle chains (current smoothing,
 * PDN recurrence, VRM ripple) to one cross-lane SIMD kernel per block
 * instead of K separate scalar loops.
 *
 * The sweep workloads (oracle matrix, population studies, figure
 * grids) are embarrassingly parallel across *scenarios*; threads
 * already cover the core count, so the remaining idle dimension is the
 * SIMD register width. A LaneGroup owns no simulation state — it
 * drains a list of LanePlans (each "run this System for N cycles" or
 * "run until finished, then pad"), packing up to `width` eligible
 * plans into lanes that advance together through the same 256-cycle
 * block pipeline System::run uses. Lanes that finish retire and the
 * group refills from the remaining plans.
 *
 * Every per-lane result is bit-identical to running that plan alone
 * (see DESIGN.md "Scenario-lane execution"): the fused kernel performs
 * each lane's scalar arithmetic unchanged, block splits are already
 * result-invariant, and plans the fast path cannot fuse (per-cycle
 * feedback consumers, scalar-forced runs, >8-core systems) simply run
 * solo through the existing paths.
 */

#ifndef VSMOOTH_SIM_LANE_GROUP_HH
#define VSMOOTH_SIM_LANE_GROUP_HH

#include <cstddef>
#include <vector>

#include "common/units.hh"
#include "sim/system.hh"

namespace vsmooth::sim {

/** One scenario for LaneGroup::run. */
struct LanePlan
{
    System *system = nullptr;
    /** Cycles to run — the run(n) count, or the runUntilFinished
     *  budget when untilFinished is set. */
    Cycles cycles = 0;
    /** Use runUntilFinished semantics instead of run(cycles). */
    bool untilFinished = false;
    /** After an untilFinished run: pad with run() up to this absolute
     *  cycle count (0 = no padding) — prepareParsec's shape. */
    Cycles padTo = 0;
    /** Out: cycles the untilFinished phase executed (== what
     *  runUntilFinished would have returned). */
    Cycles executed = 0;
};

/** Lockstep executor for up to `width` concurrent scenarios. */
class LaneGroup
{
  public:
    /** @param width lane count; 0 = simd::defaultLaneWidth(). */
    explicit LaneGroup(std::size_t width = 0);

    std::size_t width() const { return width_; }

    /**
     * Drain all plans: admit up to `width` at a time, step them in
     * lockstep blocks, retire finished lanes and refill. Plans run in
     * order; each one's System ends in exactly the state a standalone
     * run()/runUntilFinished()(+pad) would leave it in.
     */
    void run(std::vector<LanePlan> &plans);

  private:
    struct Lane
    {
        LanePlan *plan = nullptr;
        System *sys = nullptr;
        bool untilFinished = false;
        /** FixedRun mode: cycles left to run. */
        Cycles remaining = 0;
        /** UntilFinished mode: budget and progress. */
        Cycles maxCycles = 0;
        Cycles executed = 0;
    };

    /** Run one plan through the standalone paths (not lane-eligible). */
    static void runSolo(LanePlan &plan);

    /**
     * End a lane's untilFinished phase: record executed cycles and
     * either switch to the padding run or report the lane done.
     * @return true when the lane retires
     */
    static bool finishUntil(Lane &lane);

    /**
     * Advance `count` same-core-count lanes together by n cycles
     * through the fused cross-lane kernel. Bit-identical per lane to
     * that lane running System::tickBlock(n) alone.
     */
    void stepFused(Lane *const *lanes, std::size_t count, Cycles n);

    std::size_t width_;
    /** Active lanes, reused across run() calls so a steady drain
     *  never reallocates (capacity is width_ after the first run). */
    std::vector<Lane> lanes_;
    // stepFused scratch, reused across blocks: per-lane contiguous
    // streams (lane l of core c at column (c*stride + l)), assembled
    // into vectors by the kernel's register gather/scatter.
    // Grow-only, so warm drains never allocate.
    std::vector<double> steadyL_;
    std::vector<double> totalL_;
    std::vector<double> devL_;
};

} // namespace vsmooth::sim

#endif // VSMOOTH_SIM_LANE_GROUP_HH
