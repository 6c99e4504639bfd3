/**
 * @file
 * Ablations of the noise model's design choices (DESIGN.md Sec 6):
 *
 *  1. Current-edge smoothing (pipeline drain time constant): without
 *     it, high-frequency resonances are over-excited and future-node
 *     tails are unrealistically fat.
 *  2. Droop-detector hysteresis (release factor): event segmentation
 *     — and hence emergency counts — depend on re-arm behaviour.
 *  3. Memory-level parallelism (l2StallScale): stretching L2 stalls
 *     back to full memory latency collapses the event rate and breaks
 *     the droop/stall-ratio coupling.
 *  4. Detailed vs fast core model on the same microbenchmark.
 */

#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "cpu/detailed_core.hh"
#include "cpu/fast_core.hh"
#include "noise/droop_detector.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;

namespace {

/** What one ablation run reports; each ablation reads its fields. */
struct Probe
{
    double droopsPer1k = 0.0;
    double maxDroopPct = 0.0;
    double stallRatio = 0.0;
    double p2pPct = 0.0;
    /** Ablation 2: emergency events per release factor. */
    std::vector<std::uint64_t> releaseEvents;
};

const std::vector<double> kReleases = {0.1, 0.3, 0.5, 0.75, 0.9};

Probe
runSphinx(double smoothingTau, double l2Scale)
{
    sim::SystemConfig cfg;
    cfg.coreCurrent.smoothingTauCycles = smoothingTau;
    sim::System sys(cfg);
    auto schedule = workload::scheduleFor(workload::specByName("sphinx"),
                                          800'000, true);
    for (auto &phase : schedule.phases)
        phase.l2StallScale = l2Scale;
    sys.addCore(std::make_unique<cpu::FastCore>(schedule, 11));
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::idleSchedule(1000), 43));
    sys.run(800'000);
    Probe p;
    p.droopsPer1k = 1000.0 * sys.scope().fractionBelow(-sim::kIdleMargin);
    p.maxDroopPct = sys.scope().maxDroop() * 100;
    p.stallRatio = sys.core(0).counters().stallRatio();
    return p;
}

/** One fixed voltage trace, re-segmented by each release factor's
 *  hysteresis (per cycle, so the detectors see every sample). */
Probe
runReleaseFactors()
{
    sim::SystemConfig cfg;
    sim::System sys(cfg);
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName("sphinx"), 1'000'000,
                              true),
        11));
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::idleSchedule(1000), 43));
    std::vector<noise::DroopDetector> detectors;
    for (double r : kReleases)
        detectors.emplace_back(sim::kIdleMargin, r);
    for (int i = 0; i < 1'000'000; ++i) {
        sys.tick();
        for (auto &d : detectors)
            d.feed(sys.deviation());
    }
    Probe p;
    for (const auto &d : detectors)
        p.releaseEvents.push_back(d.eventCount());
    return p;
}

Probe
runMicrobench(workload::MicrobenchKind kind, bool detailed)
{
    sim::SystemConfig cfg;
    sim::System sys(cfg);
    std::unique_ptr<cpu::InstructionSource> stream;
    if (detailed) {
        stream = workload::makeMicrobenchmark(kind, 7);
        sys.addCore(std::make_unique<cpu::DetailedCore>(
            cpu::DetailedCoreParams{}, *stream));
    } else {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::microbenchmarkSchedule(kind, 1000), 7));
    }
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::idleSchedule(1000), 43));
    sys.run(1'000'000);
    Probe p;
    p.p2pPct = sys.scope().visualPeakToPeak() * 100;
    p.stallRatio = sys.core(0).counters().stallRatio();
    return p;
}

} // namespace

int
main()
{
    const double taus[] = {0.0, 1.0, 2.0, 3.0, 5.0};
    const double l2Scales[] = {0.25, 0.5, 1.0, 2.0, 4.0};
    const auto &kinds = workload::kEventMicrobenchmarks;
    const bool models[] = {true, false}; // detailed, fast

    // Every run is independent, so all 21 fan out over the pool as one
    // sweep, longest first: the per-cycle release-factor run, the
    // microbenchmark pairs, then the smoothing and L2-scale runs.
    std::vector<std::function<Probe()>> runs;
    runs.emplace_back(runReleaseFactors);
    for (auto kind : kinds)
        for (bool detailed : models)
            runs.emplace_back([=] { return runMicrobench(kind, detailed); });
    const std::size_t smoothingAt = runs.size();
    for (double tau : taus)
        runs.emplace_back([=] { return runSphinx(tau, 1.0); });
    const std::size_t l2At = runs.size();
    for (double s : l2Scales)
        runs.emplace_back([=] { return runSphinx(2.0, s); });
    const auto probes = parallelMap<Probe>(
        runs.size(), [&](std::size_t i) { return runs[i](); });

    auto result = bench::makeResult("ablation_noise_model");
    {
        TextTable t("Ablation 1: current-edge smoothing tau (cycles)");
        t.setHeader({"tau", "droops/1K", "max droop (%)"});
        for (std::size_t k = 0; k < std::size(taus); ++k) {
            const Probe &p = probes[smoothingAt + k];
            t.addRow({TextTable::num(taus[k], 1),
                      TextTable::num(p.droopsPer1k, 1),
                      TextTable::num(p.maxDroopPct, 2)});
            result.seriesPoint("smoothing_droops_per_1k", p.droopsPer1k);
            result.seriesPoint("smoothing_max_droop_pct", p.maxDroopPct);
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    {
        TextTable t("Ablation 2: droop-detector release factor");
        t.setHeader({"release", "emergency events @2.3% (per 1M)"});
        const auto &events = probes[0].releaseEvents;
        for (std::size_t k = 0; k < kReleases.size(); ++k) {
            t.addRow({TextTable::num(kReleases[k], 2),
                      TextTable::num(events[k])});
            result.seriesPoint("release_events_per_1m",
                               static_cast<double>(events[k]));
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    {
        TextTable t("Ablation 3: memory-level parallelism (L2 stall "
                    "scale)");
        t.setHeader({"l2StallScale", "droops/1K", "stall ratio"});
        for (std::size_t k = 0; k < std::size(l2Scales); ++k) {
            const Probe &p = probes[l2At + k];
            t.addRow({TextTable::num(l2Scales[k], 2),
                      TextTable::num(p.droopsPer1k, 1),
                      TextTable::num(p.stallRatio, 2)});
            result.seriesPoint("l2scale_droops_per_1k", p.droopsPer1k);
            result.seriesPoint("l2scale_stall_ratio", p.stallRatio);
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    {
        TextTable t("Ablation 4: detailed vs fast core (microbenchmarks)");
        t.setHeader({"microbenchmark", "model", "p2p (%)", "stall ratio"});
        std::size_t at = 1;
        for (auto kind : kinds) {
            for (bool detailed : models) {
                const Probe &p = probes[at++];
                const std::string name(workload::microbenchName(kind));
                t.addRow({name, detailed ? "detailed" : "fast",
                          TextTable::num(p.p2pPct, 2),
                          TextTable::num(p.stallRatio, 2)});
                result.metric("p2p_pct_" + name +
                                  (detailed ? "_detailed" : "_fast"),
                              p.p2pPct);
            }
        }
        t.print(std::cout);
    }
    bench::emitResult(result);
    return 0;
}
