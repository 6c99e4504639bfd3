#include "lane_group.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/simd.hh"

namespace vsmooth::sim {

LaneGroup::LaneGroup(std::size_t width)
    : width_(width == 0 ? simd::defaultLaneWidth() : width)
{
    if (width_ > simd::kMaxLanes)
        fatal("LaneGroup: width %zu exceeds the maximum of %zu", width_,
              simd::kMaxLanes);
}

void
LaneGroup::runSolo(LanePlan &plan)
{
    System &sys = *plan.system;
    if (plan.untilFinished) {
        plan.executed = sys.runUntilFinished(plan.cycles);
        if (plan.padTo > sys.cycles())
            sys.run(plan.padTo - sys.cycles());
    } else {
        sys.run(plan.cycles);
    }
}

bool
LaneGroup::finishUntil(Lane &lane)
{
    lane.plan->executed = lane.executed;
    lane.untilFinished = false;
    const Cycles at = lane.sys->cycles();
    if (lane.plan->padTo > at) {
        lane.remaining = lane.plan->padTo - at;
        return false;
    }
    return true;
}

void
LaneGroup::run(std::vector<LanePlan> &plans)
{
    std::vector<Lane> &lanes = lanes_;
    lanes.clear();
    lanes.reserve(width_);
    std::size_t next = 0;

    // Per-round grouping of fusable lanes by core count (the kernel
    // shares one core loop across all lanes of a call).
    Lane *groups[simd::kMaxLaneCores + 1][simd::kMaxLanes];
    Cycles groupBlk[simd::kMaxLaneCores + 1];
    std::size_t groupSize[simd::kMaxLaneCores + 1];

    while (true) {
        while (lanes.size() < width_ && next < plans.size()) {
            LanePlan &plan = plans[next++];
            System &sys = *plan.system;
            // Plans the fused kernel cannot express take the existing
            // standalone paths unchanged: per-cycle feedback consumers
            // (blockEligible_ is false), systems wider than the kernel's
            // core arrays, the degenerate one-lane group, and sampled
            // runs (the lockstep kernel drives tickBlock directly and
            // would silently bypass the PhaseSampler; run() engages it).
            if (!sys.blockEligible_ || width_ == 1 ||
                sys.cores_.size() > simd::kMaxLaneCores ||
                sys.samplingWanted()) {
                runSolo(plan);
                continue;
            }
            Lane lane;
            lane.plan = &plan;
            lane.sys = &sys;
            if (plan.untilFinished) {
                lane.untilFinished = true;
                lane.maxCycles = plan.cycles;
            } else {
                lane.remaining = plan.cycles;
            }
            lanes.push_back(lane);
        }
        if (lanes.empty())
            break;

        // Retirement scan. The order mirrors the standalone loops:
        // runUntilFinished checks its budget before scanning cores,
        // scans at every block boundary (finished() is const, so
        // scanning more often than the solo done-cache is harmless),
        // and hands off to the padding run; run(n) stops at zero
        // remaining without ever touching an un-started System.
        bool retired = false;
        for (auto it = lanes.begin(); it != lanes.end();) {
            Lane &lane = *it;
            bool done = false;
            if (lane.untilFinished) {
                if (lane.executed >= lane.maxCycles) {
                    done = finishUntil(lane);
                } else {
                    const std::size_t nCores = lane.sys->cores_.size();
                    bool allFinished = true;
                    for (std::size_t i = 0; i < nCores; ++i) {
                        if (!lane.sys->cores_[i]->finished()) {
                            allFinished = false;
                            break;
                        }
                    }
                    if (allFinished)
                        done = finishUntil(lane);
                }
            }
            if (!lane.untilFinished && !done && lane.remaining == 0)
                done = true;
            if (done) {
                it = lanes.erase(it);
                retired = true;
            } else {
                ++it;
            }
        }
        if (retired)
            continue; // repack: refill the freed lanes before stepping

        // Per-lane step requests. A lane whose next cycle needs the
        // per-cycle path (an OS-tick injection is due, or a core's
        // finish distance is unknown) takes one scalar tick; the rest
        // group by core count for the fused kernel.
        std::fill(groupSize, groupSize + simd::kMaxLaneCores + 1,
                  std::size_t{0});
        for (Lane &lane : lanes) {
            System &sys = *lane.sys;
            sys.start();
            Cycles want;
            if (lane.untilFinished) {
                Cycles bound = 0;
                for (const auto &core : sys.cores_) {
                    bound = std::max(bound,
                                     core->minTicksUntilFinished());
                }
                if (bound == 0) {
                    sys.tick();
                    ++lane.executed;
                    continue;
                }
                want = std::min(bound, lane.maxCycles - lane.executed);
            } else {
                want = lane.remaining;
            }
            const Cycles blk = sys.blockLimit(want);
            if (blk == 0) {
                sys.tick();
                if (lane.untilFinished)
                    ++lane.executed;
                else
                    --lane.remaining;
                continue;
            }
            const std::size_t nc = sys.cores_.size();
            if (groupSize[nc] == 0)
                groupBlk[nc] = blk;
            else
                groupBlk[nc] = std::min(groupBlk[nc], blk);
            groups[nc][groupSize[nc]++] = &lane;
        }

        for (std::size_t nc = 1; nc <= simd::kMaxLaneCores; ++nc) {
            const std::size_t count = groupSize[nc];
            if (count == 0)
                continue;
            const Cycles n = groupBlk[nc];
            if (count == 1) {
                groups[nc][0]->sys->tickBlock(n);
            } else {
                stepFused(groups[nc], count, n);
            }
            for (std::size_t g = 0; g < count; ++g) {
                Lane &lane = *groups[nc][g];
                if (lane.untilFinished)
                    lane.executed += n;
                else
                    lane.remaining -= n;
            }
        }
    }
}

void
LaneGroup::stepFused(Lane *const *lanes, std::size_t count, Cycles n)
{
    const auto nn = static_cast<std::size_t>(n);
    const std::size_t nCores = lanes[0]->sys->cores_.size();
    const std::size_t vecW = simd::vectorWidth(simd::activeLevel());
    const std::size_t stride = ((count + vecW - 1) / vecW) * vecW;
    // Grow-only: a warm drain never resizes, so it never allocates.
    if (steadyL_.size() < nCores * stride * nn)
        steadyL_.resize(nCores * stride * nn);
    if (totalL_.size() < stride * nn)
        totalL_.resize(stride * nn);
    if (devL_.size() < stride * nn)
        devL_.resize(stride * nn);
    double *const steadyBase = steadyL_.data();
    double *const totalBase = totalL_.data();
    double *const devBase = devL_.data();

    simd::LaneStepArgs args;
    args.n = nn;
    args.lanes = count;
    args.stride = stride;
    args.cores = nCores;
    // Every stream the kernel gathers from or scatters to is a
    // per-lane contiguous column; pad lanes beyond `count` point at
    // their own columns, which hold stale finite values (resize
    // zero-initializes, and every write is a finite double). Their
    // parameters below are benign (zero coefficients, unit ripple
    // period), every kernel operation is elementwise, and their
    // outputs are never read back.
    for (std::size_t l = 0; l < stride; ++l) {
        for (std::size_t c = 0; c < nCores; ++c)
            args.steady[c][l] = steadyBase + (c * stride + l) * nn;
        args.total[l] = totalBase + l * nn;
        args.deviation[l] = devBase + l * nn;
    }

    // Gather: each lane's cores write their activity block straight
    // into that lane's steady column, and the elementwise steady
    // conversion runs in place (same calls the solo block path makes)
    // — no transposed copy is ever built.
    for (std::size_t l = 0; l < count; ++l) {
        System &sys = *lanes[l]->sys;
        for (std::size_t c = 0; c < nCores; ++c) {
            double *const col = steadyBase + (c * stride + l) * nn;
            sys.cores_[c]->tickBlock(col, nn);
            sys.currents_[c].steadyBlock(col, col, nn);
        }
        const auto cur0 = sys.currents_[0].cursor();
        args.tau[l] = cur0.tau;
        args.alpha[l] = cur0.alpha;
        args.slew[l] = cur0.slew;
        for (std::size_t c = 0; c < nCores; ++c)
            args.prev[c][l] = sys.currents_[c].cursor().prev;
        const auto bs = sys.pdn_.cursor();
        args.m00[l] = bs.m00;
        args.m01[l] = bs.m01;
        args.m10[l] = bs.m10;
        args.m11[l] = bs.m11;
        args.n00[l] = bs.n00;
        args.n01[l] = bs.n01;
        args.n10[l] = bs.n10;
        args.n11[l] = bs.n11;
        args.vdd[l] = bs.vdd;
        args.invVdd[l] = bs.invVdd;
        args.rcDamp[l] = bs.rc;
        args.dtStep[l] = bs.dt;
        args.rippleAmp[l] = bs.rippleAmp;
        args.ripplePeriod[l] = sys.pdn_.ripplePeriod();
        args.iL[l] = bs.iL;
        args.vC[l] = bs.vC;
        args.vDie[l] = bs.vDie;
        args.tTime[l] = bs.t;
    }
    for (std::size_t l = count; l < stride; ++l)
        args.ripplePeriod[l] = 1.0; // avoid 0/0 in the pad division

    const simd::LaneStepFn step = simd::kernels().laneStep;
    if (!step)
        panic("LaneGroup: no laneStep kernel at the active SIMD level");
    step(args);

    // Scatter: write back carried state and feed each lane's sinks
    // directly from its contiguous deviation (and, when tracing,
    // current) column — the same recordBlock/feedBlock calls, over the
    // same values, that lane's solo tickBlock would make.
    for (std::size_t l = 0; l < count; ++l) {
        System &sys = *lanes[l]->sys;
        for (std::size_t c = 0; c < nCores; ++c) {
            auto cur = sys.currents_[c].cursor();
            cur.prev = args.prev[c][l];
            sys.currents_[c].commit(cur);
        }
        auto bs = sys.pdn_.cursor();
        bs.iL = args.iL[l];
        bs.vC = args.vC[l];
        bs.vDie = args.vDie[l];
        bs.t = args.tTime[l];
        sys.pdn_.commit(bs);

        const double *const dev = args.deviation[l];
        sys.lastCurrent_ = args.total[l][nn - 1];

        sys.scope_.recordBlock(dev, nn);
        sys.bank_.feedBlock(dev, nn);
        if (sys.timeline_)
            sys.timeline_->feedBlock(dev, nn);
        if (sys.trace_)
            sys.trace_->recordBlock(sys.cycles_, dev, args.total[l],
                                    nn);

        for (Cycles &cd : sys.osTickCountdown_)
            cd -= n;
        sys.cycles_ += n;
    }
}

} // namespace vsmooth::sim
