/**
 * @file
 * Fig 12: peak-to-peak voltage swing caused by each microarchitectural
 * event microbenchmark on one core, relative to an idling machine.
 *
 * Paper headline: a branch-misprediction pipeline flush produces the
 * largest swing, over 1.7x the idle baseline.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "cpu/detailed_core.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"

using namespace vsmooth;

namespace {

struct Swing
{
    double p2p = 0.0;
    double eventsPer1k = 0.0;
    double stallRatio = 0.0;
};

double
idleVisualP2p()
{
    sim::SystemConfig cfg;
    sim::System sys(cfg);
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::idleSchedule(1000), 42));
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::idleSchedule(1000), 43));
    sys.run(2'000'000);
    return sys.scope().visualPeakToPeak();
}

Swing
microbenchSwing(workload::MicrobenchKind kind)
{
    sim::SystemConfig cfg;
    sim::System sys(cfg);
    auto stream = workload::makeMicrobenchmark(kind, 7);
    sys.addCore(std::make_unique<cpu::DetailedCore>(
        cpu::DetailedCoreParams{}, *stream));
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::idleSchedule(1000), 43));
    sys.run(2'000'000);

    const auto &ctr = sys.core(0).counters();
    std::uint64_t events = 0;
    for (std::size_t c = 0; c < cpu::kNumEventClasses; ++c)
        events += ctr.eventCount(cpu::eventClassCause(c));
    return {sys.scope().visualPeakToPeak(),
            1000.0 * static_cast<double>(events) /
                static_cast<double>(ctr.cycles()),
            ctr.stallRatio()};
}

} // namespace

int
main()
{
    // Every run is independent, so all of them fan out over the pool:
    // the per-cycle DetailedCore runs first, the idle baseline last.
    const auto &kinds = workload::kEventMicrobenchmarks;
    const auto swings =
        parallelMap<Swing>(kinds.size() + 1, [&](std::size_t k) {
            return k < kinds.size() ? microbenchSwing(kinds[k])
                                    : Swing{idleVisualP2p()};
        });
    const double idle = swings.back().p2p;
    auto result = bench::makeResult("fig12_event_swings");
    result.metric("idle_p2p_pct", idle * 100);

    TextTable table("Fig 12: event swing relative to idling machine");
    table.setHeader({"event", "p2p (% of Vdd)", "relative to idle",
                     "events/1K cycles", "stall ratio"});

    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const Swing &s = swings[k];
        const std::string name(workload::microbenchName(kinds[k]));
        table.addRow({name, TextTable::num(s.p2p * 100, 2),
                      TextTable::num(s.p2p / idle, 2),
                      TextTable::num(s.eventsPer1k, 1),
                      TextTable::num(s.stallRatio, 2)});
        result.metric("p2p_rel_" + name, s.p2p / idle);
        result.seriesPoint("p2p_pct", s.p2p * 100);
    }
    table.print(std::cout);
    bench::emitResult(result);
    std::cout << "\nIdle baseline p2p: " << TextTable::num(idle * 100, 2)
              << "% of Vdd\nPaper: branch mispredictions largest, over"
                 " 1.7x the idle baseline.\n";
    return 0;
}
