#include "stage_replay.hh"

#include <bit>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "common/rng.hh"
#include "common/simd.hh"
#include "cpu/fast_core.hh"
#include "dsp/primitives.hh"
#include "noise/droop_detector.hh"
#include "noise/scope.hh"
#include "noise/timeline.hh"
#include "pdn/second_order.hh"
#include "power/current_model.hh"
#include "sim/calibration.hh"
#include "sim/lane_group.hh"
#include "trace.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

namespace perfbench {

using namespace vsmooth;

std::vector<Scenario>
sampleScenarios(const std::string &workload, std::size_t count,
                Cycles cycles)
{
    const auto &suite = workload::specCpu2006();
    Rng rng(2026);
    std::vector<Scenario> out;
    for (std::size_t t = 0; t < count; ++t) {
        const std::size_t i = rng.uniformInt(0, suite.size() - 1);
        const std::size_t j = rng.uniformInt(i, suite.size() - 1);
        Scenario s;
        s.benchA = suite[i].name;
        s.benchB = suite[j].name;
        s.cycles = cycles;
        if (workload == "sched_study") {
            // The Proc3 oracle matrix's pair runs.
            s.decap = 0.03;
            s.seed = 12345 + 1000003ULL * (i * suite.size() + j);
        } else if (workload == "characterize") {
            // The decap-1.0 population: singles and pairs.
            if (t % 4 == 0)
                s.benchB.clear();
            s.seed = 1 + 17ULL * (t + 1);
        } else {
            // serve_mix's oracle cells at both decaps.
            s.decap = t % 2 ? 0.03 : 1.0;
            s.seed = 12345 + 1000003ULL * (i * 2 + 1);
        }
        out.push_back(s);
    }
    return out;
}

sim::System
buildSystem(const Scenario &s)
{
    sim::SystemConfig cfg;
    cfg.package = pdn::PackageConfig::core2duo().withDecapFraction(s.decap);
    cfg.osTickInterval = 0;
    sim::System sys(cfg);
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName(s.benchA), s.cycles,
                              true),
        s.seed + 1));
    if (s.benchB.empty()) {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), s.seed + 2));
    } else {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(workload::specByName(s.benchB),
                                  s.cycles, true),
            s.seed + 2));
    }
    return sys;
}

namespace {

constexpr std::size_t kBlock = sim::System::kBlockCycles;
constexpr std::size_t kCores = 2;

/** The per-scenario pipeline state System::start() would build; the
 *  host System only owns the cores and is never run. */
struct ReplayState
{
    explicit ReplayState(const Scenario &s)
        : host(buildSystem(s)),
          pdn(host.config().package,
              toPeriod(host.config().clockFrequency)),
          bank(host.config().watchMargins.empty()
                   ? sim::defaultMarginSweep()
                   : host.config().watchMargins),
          timeline(100'000, sim::kIdleMargin), remaining(s.cycles)
    {
        double idle = 0.0;
        for (std::size_t c = 0; c < kCores; ++c) {
            currents.emplace_back(host.config().coreCurrent);
            idle += currents.back().idleCurrent();
        }
        pdn.reset(idle);
    }

    sim::System host;
    std::vector<power::CurrentModel> currents;
    pdn::SecondOrderPdn pdn;
    noise::Scope scope;
    noise::DroopDetectorBank bank;
    noise::NoiseTimeline timeline;
    Cycles remaining;
};

std::vector<std::uint64_t>
fingerprint(const noise::Scope &scope, const noise::DroopDetectorBank &bank)
{
    const Histogram &h = scope.histogram();
    std::vector<std::uint64_t> f{h.totalCount(), h.underflowCount(),
                                 h.overflowCount(),
                                 std::bit_cast<std::uint64_t>(h.minSample()),
                                 std::bit_cast<std::uint64_t>(h.maxSample())};
    for (std::size_t b = 0; b < h.numBins(); ++b)
        f.push_back(h.binCount(b));
    for (std::size_t i = 0; i < bank.size(); ++i)
        f.push_back(bank.eventCountAt(i));
    return f;
}

/** Run one stage call; when `on`, add its nanoseconds to `acc`. Only
 *  one stage is timed per replay: clock reads around every stage
 *  would serialize the pipeline and inflate the stage sum. */
template <class Fn>
inline void
timed(bool on, double &acc, Fn &&fn)
{
    if (!on) {
        fn();
        return;
    }
    const double t = nowSec();
    fn();
    acc += (nowSec() - t) * 1e9;
}

/** 64-byte-aligned column storage (the wide lane kernels' transposes
 *  expect cache-line-aligned columns, as LaneGroup provides). */
struct AlignedColumns
{
    explicit AlignedColumns(std::size_t n) : raw(n + 7)
    {
        const auto addr = reinterpret_cast<std::uintptr_t>(raw.data());
        base = reinterpret_cast<double *>((addr + 63) &
                                          ~std::uintptr_t{63});
    }
    std::vector<double> raw;
    double *base;
};

} // namespace

ReplayResult
replaySolo(const std::vector<Scenario> &scenarios, Stage which)
{
    ReplayResult out;
    StageTimes &t = out.times;
    std::vector<double> act(kCores * kBlock), total(kBlock), dev(kBlock);
    for (const Scenario &s : scenarios) {
        ReplayState st(s);
        while (st.remaining > 0) {
            const std::size_t n =
                std::min<std::size_t>(kBlock, st.remaining);
            timed(which == Stage::Core, t.core, [&] {
                for (std::size_t c = 0; c < kCores; ++c)
                    st.host.core(c).tickBlock(act.data() + c * kBlock, n);
            });
            timed(which == Stage::Steady, t.steady, [&] {
                for (std::size_t c = 0; c < kCores; ++c)
                    st.currents[c].steadyBlock(act.data() + c * kBlock,
                                               act.data() + c * kBlock, n);
            });
            timed(which == Stage::Sum, t.sum, [&] {
                auto c0 = st.currents[0].cursor();
                auto c1 = st.currents[1].cursor();
                dsp::SmoothSlew chains[2] = {
                    {c0.tau, c0.alpha, c0.slew, c0.prev},
                    {c1.tau, c1.alpha, c1.slew, c1.prev}};
                const double *const cols[2] = {act.data(),
                                               act.data() + kBlock};
                dsp::processSumColumns(chains, cols, total.data(), n);
                c0.prev = chains[0].prev;
                c1.prev = chains[1].prev;
                st.currents[0].commit(c0);
                st.currents[1].commit(c1);
            });
            timed(which == Stage::Pdn, t.pdn,
                  [&] { st.pdn.stepBlock(total.data(), dev.data(), n); });
            timed(which == Stage::Scope, t.scope,
                  [&] { st.scope.recordBlock(dev.data(), n); });
            timed(which == Stage::Bank, t.bank,
                  [&] { st.bank.feedBlock(dev.data(), n); });
            timed(which == Stage::Timeline, t.timeline,
                  [&] { st.timeline.feedBlock(dev.data(), n); });
            st.remaining -= n;
        }
        out.fingerprints.push_back(fingerprint(st.scope, st.bank));
    }
    return out;
}

ReplayResult
replayLaned(const std::vector<Scenario> &scenarios, Stage which)
{
    ReplayResult out;
    StageTimes &t = out.times;
    const std::size_t count = scenarios.size();
    if (count < 2 || count > simd::kMaxLanes) {
        std::cerr << "perfbench: laned replay needs 2.."
                  << simd::kMaxLanes << " lanes\n";
        std::exit(2);
    }
    std::vector<std::unique_ptr<ReplayState>> lanes;
    for (const Scenario &s : scenarios)
        lanes.push_back(std::make_unique<ReplayState>(s));
    for (const Scenario &s : scenarios)
        if (s.cycles != scenarios[0].cycles) {
            std::cerr << "perfbench: laned replay needs equal lengths\n";
            std::exit(2);
        }

    const std::size_t vecW = simd::vectorWidth(simd::activeLevel());
    const std::size_t stride = ((count + vecW - 1) / vecW) * vecW;
    AlignedColumns steady(kCores * stride * kBlock);
    AlignedColumns totals(stride * kBlock);
    AlignedColumns devs(stride * kBlock);
    const simd::LaneStepFn step = simd::kernels().laneStep;

    Cycles remaining = scenarios[0].cycles;
    while (remaining > 0) {
        const std::size_t n = std::min<std::size_t>(kBlock, remaining);
        simd::LaneStepArgs args;
        args.n = n;
        args.lanes = count;
        args.stride = stride;
        args.cores = kCores;
        for (std::size_t l = 0; l < stride; ++l) {
            for (std::size_t c = 0; c < kCores; ++c)
                args.steady[c][l] =
                    steady.base + (c * stride + l) * kBlock;
            args.total[l] = totals.base + l * kBlock;
            args.deviation[l] = devs.base + l * kBlock;
        }
        for (std::size_t l = 0; l < count; ++l) {
            ReplayState &st = *lanes[l];
            for (std::size_t c = 0; c < kCores; ++c) {
                double *const col =
                    steady.base + (c * stride + l) * kBlock;
                timed(which == Stage::Core, t.core,
                      [&] { st.host.core(c).tickBlock(col, n); });
                timed(which == Stage::Steady, t.steady,
                      [&] { st.currents[c].steadyBlock(col, col, n); });
            }
            const auto cur0 = st.currents[0].cursor();
            args.tau[l] = cur0.tau;
            args.alpha[l] = cur0.alpha;
            args.slew[l] = cur0.slew;
            for (std::size_t c = 0; c < kCores; ++c)
                args.prev[c][l] = st.currents[c].cursor().prev;
            const auto bs = st.pdn.cursor();
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
            args.ripplePeriod[l] = st.pdn.ripplePeriod();
            args.iL[l] = bs.iL;
            args.vC[l] = bs.vC;
            args.vDie[l] = bs.vDie;
            args.tTime[l] = bs.t;
        }
        for (std::size_t l = count; l < stride; ++l)
            args.ripplePeriod[l] = 1.0;

        timed(which == Stage::Lane, t.lane, [&] { step(args); });

        for (std::size_t l = 0; l < count; ++l) {
            ReplayState &st = *lanes[l];
            for (std::size_t c = 0; c < kCores; ++c) {
                auto cur = st.currents[c].cursor();
                cur.prev = args.prev[c][l];
                st.currents[c].commit(cur);
            }
            auto bs = st.pdn.cursor();
            bs.iL = args.iL[l];
            bs.vC = args.vC[l];
            bs.vDie = args.vDie[l];
            bs.t = args.tTime[l];
            st.pdn.commit(bs);
            const double *const dev = args.deviation[l];
            timed(which == Stage::Scope, t.scope,
                  [&] { st.scope.recordBlock(dev, n); });
            timed(which == Stage::Bank, t.bank,
                  [&] { st.bank.feedBlock(dev, n); });
        }
        remaining -= n;
    }
    for (const auto &st : lanes)
        out.fingerprints.push_back(fingerprint(st->scope, st->bank));
    return out;
}

std::vector<std::vector<std::uint64_t>>
systemFingerprints(const std::vector<Scenario> &scenarios, bool laned,
                   double *seconds)
{
    std::vector<sim::System> systems;
    systems.reserve(scenarios.size());
    for (const Scenario &s : scenarios)
        systems.push_back(buildSystem(s));
    const double t0 = nowSec();
    if (laned) {
        std::vector<sim::LanePlan> plans;
        for (std::size_t i = 0; i < systems.size(); ++i) {
            sim::LanePlan plan;
            plan.system = &systems[i];
            plan.cycles = scenarios[i].cycles;
            plans.push_back(plan);
        }
        sim::LaneGroup group(scenarios.size());
        group.run(plans);
    } else {
        for (std::size_t i = 0; i < systems.size(); ++i)
            systems[i].run(scenarios[i].cycles);
    }
    if (seconds)
        *seconds = nowSec() - t0;
    std::vector<std::vector<std::uint64_t>> out;
    for (const auto &sys : systems)
        out.push_back(fingerprint(sys.scope(), sys.droopBank()));
    return out;
}

} // namespace perfbench
