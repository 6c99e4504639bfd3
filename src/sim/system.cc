#include "system.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "dsp/primitives.hh"

namespace vsmooth::sim {

namespace {

std::vector<double>
marginsOrDefault(const SystemConfig &cfg)
{
    return cfg.watchMargins.empty() ? defaultMarginSweep()
                                    : cfg.watchMargins;
}

} // namespace

bool
scalarTickForced()
{
    static const bool forced = [] {
        // Empty means unset, like the other VSMOOTH_* variables.
        const char *e = std::getenv("VSMOOTH_SCALAR_TICK");
        if (!e || !*e || std::strcmp(e, "0") == 0)
            return false;
        if (std::strcmp(e, "1") == 0)
            return true;
        fatal("VSMOOTH_SCALAR_TICK=%s is invalid; it must be 0 or 1", e);
    }();
    return forced;
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg),
      pdn_(cfg.package, toPeriod(cfg.clockFrequency)),
      bank_(marginsOrDefault(cfg))
{
    if (cfg.emergencyMargin > 0.0) {
        emergencyDetector_.emplace(cfg.emergencyMargin);
        if (cfg.recoveryCostCycles == 0)
            fatal("System: emergency margin set but recovery cost is 0");
    }
    if (cfg.enableTimeline)
        timeline_.emplace(cfg.timelineInterval, cfg.timelineMargin);
    if (cfg.enableTrace)
        trace_.emplace(cfg.traceCapacity);
    if (cfg.enableEmergencyPredictor)
        predictor_.emplace(cfg.predictorParams);
    if (cfg.enableResonanceDamper)
        damper_.emplace(cfg.damperParams);
    if (cfg.enableMarginController) {
        if (cfg.emergencyMargin > 0.0)
            fatal("System: margin controller and fixed emergency margin "
                  "are mutually exclusive (one margin authority)");
        if (cfg.recoveryCostCycles == 0)
            fatal("System: margin controller set but recovery cost is 0");
        auto params = cfg.marginControllerParams;
        if (params.updateInterval == 0) {
            params.updateInterval =
                cfg.osTickInterval ? cfg.osTickInterval : Cycles(10'000);
        }
        marginController_.emplace(
            params, pdn::secondOrderEquivalent(cfg.package).vdd);
    }

    // The batched fast path is sound only when nothing feeds a
    // per-cycle observation back into execution: the emergency
    // detector and margin controller inject recovery stalls, the
    // predictor and damper throttle, and split rails need per-cycle
    // per-core currents. OS-tick injections are handled by truncating
    // blocks at the injection cycle, so they do not disqualify the
    // fast path.
    blockEligible_ = cfg_.enableBlockedExecution && !scalarTickForced() &&
        !emergencyDetector_ && !predictor_ && !damper_ &&
        !marginController_ && !cfg_.splitSupplies;
}

std::size_t
System::addCore(std::unique_ptr<cpu::CoreModel> core)
{
    if (started_)
        fatal("System: cores must be added before the first tick");
    cores_.push_back(std::move(core));
    currents_.emplace_back(cfg_.coreCurrent);
    lastEventCounts_.emplace_back();
    return cores_.size() - 1;
}

void
System::start()
{
    if (started_)
        return;
    const std::size_t nCores = cores_.size();
    if (nCores == 0)
        fatal("System: no cores attached");
    started_ = true;
    coreCurrents_.resize(nCores);
    // Settle the PDN at the initial combined idle current so the
    // first samples are not a spurious power-on transient.
    double idle = 0.0;
    for (auto &cm : currents_)
        idle += cm.idleCurrent();
    pdn_.reset(idle);
    if (cfg_.splitSupplies) {
        // Each rail owns an equal share of the decap (and of the
        // parallel delivery paths, so L and R scale up).
        auto params = pdn::secondOrderEquivalent(cfg_.package);
        const double n = static_cast<double>(nCores);
        params.c = params.c / n;
        params.l = params.l * n;
        params.rSeries = params.rSeries * n;
        params.rDamp = params.rDamp * n;
        rails_.clear();
        for (std::size_t i = 0; i < nCores; ++i) {
            rails_.emplace_back(params,
                                toPeriod(cfg_.clockFrequency),
                                cfg_.package.rippleFraction,
                                cfg_.package.rippleFrequency);
            rails_.back().reset(currents_[i].idleCurrent());
        }
    }
    if (cfg_.osTickInterval > 0) {
        // Per-core countdowns to the staggered OS-tick injection
        // cycles, replacing a per-core modulo in the per-cycle hot
        // loop. Core i injects on every cycle c with
        // (c + i * 517) % interval == interval - 1; the countdown
        // holds the number of ticks before the next such cycle
        // (0 = the next tick injects).
        const Cycles interval = cfg_.osTickInterval;
        osTickCountdown_.resize(nCores);
        for (std::size_t i = 0; i < nCores; ++i) {
            osTickCountdown_[i] =
                interval - 1 - (cycles_ + i * 517) % interval;
        }
    }
    if (blockEligible_) {
        // One activity lane per core: the cores fill their lanes
        // block-wise, then the fused loop walks all lanes in step.
        blockActivity_.resize(nCores * kBlockCycles);
        blockTotal_.resize(kBlockCycles);
        blockDeviation_.resize(kBlockCycles);
    }
}

void
System::tick()
{
    // tick() runs hundreds of millions of times per sweep: hoist the
    // core count, mitigation handles, and config flags into locals so
    // the loop bodies stay tight.
    start();
    const std::size_t nCores = cores_.size();

    resilience::EmergencyPredictor *const predictor =
        predictor_ ? &*predictor_ : nullptr;
    resilience::ResonanceDamper *const damper =
        damper_ ? &*damper_ : nullptr;
    const bool split = cfg_.splitSupplies;

    if (cfg_.osTickInterval > 0) {
        // Interrupt delivery is staggered across cores (IPI latency,
        // per-core APIC timers), so one core's restart surge lands
        // while the other is still running its workload — their
        // superposition is what couples deep droops to the
        // co-runner's noise.
        for (std::size_t i = 0; i < nCores; ++i) {
            if (osTickCountdown_[i] == 0) {
                cores_[i]->injectPlatformInterrupt();
                osTickCountdown_[i] = cfg_.osTickInterval;
            }
            --osTickCountdown_[i];
        }
    }

    // Mitigation throttle decision for this cycle (evaluated before
    // the cores advance, from last cycle's observations).
    bool throttle = predictor && predictor->shouldThrottle();
    if (damper && damper->feed(pdn_.voltageDeviation()))
        throttle = true;

    double total = 0.0;
    const double throttleFactor = cfg_.throttleFactor;
    for (std::size_t i = 0; i < nCores; ++i) {
        double activity = cores_[i]->tick();
        if (throttle)
            activity *= throttleFactor;
        coreCurrents_[i] = currents_[i].currentFor(activity);
        total += coreCurrents_[i];
    }
    lastCurrent_ = total;

    // Feed newly started events to the signature predictor: a tight
    // diff of the per-cause counters against the last-seen snapshot.
    if (predictor) {
        for (std::size_t i = 0; i < nCores; ++i) {
            const auto &ctr = cores_[i]->counters();
            auto &last = lastEventCounts_[i];
            for (std::size_t c = 1;
                 c < cpu::PerfCounters::kNumCauses; ++c) {
                const auto cause = static_cast<cpu::StallCause>(c);
                const std::uint64_t n = ctr.eventCount(cause);
                if (n != last[c]) {
                    last[c] = n;
                    predictor->observeEvent(i, cause);
                }
            }
        }
    }

    double dev;
    if (split) {
        // Step each rail with its own core's current; the chip-level
        // deviation sample is the worst rail (a violation anywhere
        // forces a global recovery).
        double worst = 1e9;
        for (std::size_t i = 0; i < nCores; ++i) {
            rails_[i].step(coreCurrents_[i]);
            worst = std::min(worst, rails_[i].voltageDeviation());
        }
        pdn_.step(total); // keep the shared-rail view in sync too
        dev = worst;
    } else {
        pdn_.step(total);
        dev = pdn_.voltageDeviation();
    }

    scope_.record(dev);
    bank_.feed(dev);
    if (timeline_)
        timeline_->feed(dev);
    if (trace_)
        trace_->record(cycles_, dev, total);

    if (emergencyDetector_ && emergencyDetector_->feed(dev)) {
        ++emergencies_;
        if (predictor)
            predictor->observeEmergency();
        for (auto &core : cores_)
            core->injectRecoveryStall(cfg_.recoveryCostCycles);
    }

    // A violation of the controller's dynamic margin is an emergency
    // like any other: same chip-wide rollback, same counter. The
    // controller itself widens its margin before returning.
    if (marginController_ && marginController_->feed(dev)) {
        ++emergencies_;
        if (predictor)
            predictor->observeEmergency();
        for (auto &core : cores_)
            core->injectRecoveryStall(cfg_.recoveryCostCycles);
    }

    ++cycles_;
}

Cycles
System::blockLimit(Cycles want) const
{
    Cycles n = std::min<Cycles>(want, kBlockCycles);
    // A block must not contain an OS-tick injection cycle: countdown
    // k means core i injects on the k-th tick from now, so any block
    // of length <= min(k) is injection-free. When a countdown is 0
    // the caller falls back to one per-cycle tick(), which performs
    // the injection.
    for (const Cycles cd : osTickCountdown_)
        n = std::min(n, cd);
    return n;
}

void
System::tickBlock(Cycles n)
{
    // The batched pipeline, stage by stage. Each core fills its
    // activity lane for the whole block (one virtual dispatch per
    // core instead of one per cycle); each current model converts and
    // accumulates its lane onto the chip totals with its smoothing
    // state hoisted into cursor locals; the PDN integrates the whole
    // block the same way; then the scope/detector sinks consume the
    // deviation lane in bulk. Every stage performs exactly the
    // arithmetic the per-cycle path performs, in the same order — see
    // DESIGN.md "Batched execution" for the bit-identity argument.
    const std::size_t nCores = cores_.size();
    const auto nn = static_cast<std::size_t>(n);
    const auto stride = static_cast<std::size_t>(kBlockCycles);
    double *const act = blockActivity_.data();
    double *const total = blockTotal_.data();
    double *const dev = blockDeviation_.data();

    for (std::size_t i = 0; i < nCores; ++i)
        cores_[i]->tickBlock(act + i * stride, nn);

    // Cores accumulate in index order onto a 0.0 seed, matching the
    // scalar loop's summation exactly. The steady-current conversion
    // is elementwise, so it runs (vectorizably) over each lane in
    // place first; only the smoothing/slew chain carries state, and
    // the dominant one- and two-core shapes run those chains through
    // the dsp K-column fused primitive so they overlap in the
    // out-of-order window instead of running one whole block after
    // the other.
    if (nCores == 2) {
        currents_[0].steadyBlock(act, act, nn);
        currents_[1].steadyBlock(act + stride, act + stride, nn);
        auto c0 = currents_[0].cursor();
        auto c1 = currents_[1].cursor();
        dsp::SmoothSlew chains[2] = {
            {c0.tau, c0.alpha, c0.slew, c0.prev},
            {c1.tau, c1.alpha, c1.slew, c1.prev}};
        const double *const cols[2] = {act, act + stride};
        dsp::processSumColumns(chains, cols, total, nn);
        c0.prev = chains[0].prev;
        c1.prev = chains[1].prev;
        currents_[0].commit(c0);
        currents_[1].commit(c1);
    } else if (nCores == 1) {
        currents_[0].steadyBlock(act, act, nn);
        auto c0 = currents_[0].cursor();
        dsp::SmoothSlew chains[1] = {
            {c0.tau, c0.alpha, c0.slew, c0.prev}};
        const double *const cols[1] = {act};
        dsp::processSumColumns(chains, cols, total, nn);
        c0.prev = chains[0].prev;
        currents_[0].commit(c0);
    } else {
        std::fill(total, total + nn, 0.0);
        for (std::size_t i = 0; i < nCores; ++i)
            currents_[i].accumulateBlock(act + i * stride, total, nn);
    }
    pdn_.stepBlock(total, dev, nn);
    lastCurrent_ = total[nn - 1];

    scope_.recordBlock(dev, nn);
    bank_.feedBlock(dev, nn);
    if (timeline_)
        timeline_->feedBlock(dev, nn);
    if (trace_)
        trace_->recordBlock(cycles_, dev, total, nn);

    for (Cycles &cd : osTickCountdown_)
        cd -= n;
    cycles_ += n;
}

void
System::run(Cycles n)
{
    if (!blockEligible_) {
        for (Cycles i = 0; i < n; ++i)
            tick();
        return;
    }
    if (n == 0)
        return;
    start();
    Cycles remaining = n;
    while (remaining > 0) {
        const Cycles blk = blockLimit(remaining);
        if (blk == 0) {
            // An OS-tick injection is due this cycle: deliver it
            // through the per-cycle path, then resume blocking.
            tick();
            --remaining;
            continue;
        }
        tickBlock(blk);
        remaining -= blk;
    }
}

Cycles
System::runUntilFinished(Cycles maxCycles)
{
    // Cache which cores have reported finished so the per-cycle scan
    // skips their (virtual) finished() calls. A finished core can
    // regress — a later platform interrupt or chip-wide recovery
    // re-enters a stall event — so when the cached count reaches zero
    // the full scan re-runs once as confirmation before breaking.
    const std::size_t nCores = cores_.size();
    std::vector<std::uint8_t> done(nCores, 0);
    std::size_t remaining = nCores;
    Cycles executed = 0;
    while (executed < maxCycles) {
        for (std::size_t i = 0; i < nCores; ++i) {
            if (!done[i] && cores_[i]->finished()) {
                done[i] = 1;
                --remaining;
            }
        }
        if (remaining == 0) {
            for (std::size_t i = 0; i < nCores; ++i) {
                if (!cores_[i]->finished()) {
                    done[i] = 0;
                    ++remaining;
                }
            }
            if (remaining == 0)
                break;
        }
        if (blockEligible_) {
            // The run can only stop once *every* core is finished, so
            // the largest per-core lower bound on ticks-to-finish is
            // a stretch in which no per-cycle finish check is needed.
            Cycles bound = 0;
            for (std::size_t i = 0; i < nCores; ++i) {
                bound = std::max(bound,
                                 cores_[i]->minTicksUntilFinished());
            }
            if (bound > 0) {
                start();
                const Cycles blk =
                    blockLimit(std::min(bound, maxCycles - executed));
                if (blk > 0) {
                    tickBlock(blk);
                    executed += blk;
                    continue;
                }
            }
        }
        tick();
        ++executed;
    }
    return executed;
}

const std::vector<double> &
System::timelineSeries()
{
    if (!timeline_)
        fatal("System: timeline was not enabled");
    return timeline_->finish();
}

const noise::TraceWriter &
System::trace() const
{
    if (!trace_)
        fatal("System: trace was not enabled");
    return *trace_;
}

noise::TraceWriter &
System::trace()
{
    if (!trace_)
        fatal("System: trace was not enabled");
    return *trace_;
}

} // namespace vsmooth::sim
