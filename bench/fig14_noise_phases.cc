/**
 * @file
 * Fig 14: voltage-noise phases — droops per 1K cycles over time for
 * three representative benchmarks:
 *   482.sphinx: no phases (stable near the top of the range),
 *   416.gamess: four clean phases between ~60 and ~100,
 *   465.tonto: strong oscillation between ~60 and ~100.
 *
 * Like the paper's Sec IV characterization, the droop margin is
 * 2.3 % (everything an idling machine does stays inside it) and the
 * counts come from the scope-histogram sample metric.
 */

#include <array>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "cpu/fast_core.hh"
#include "noise/timeline.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;

namespace {

/** Droops/1K per timeline interval of `bench` run to completion. */
std::vector<double>
droopTimeline(const workload::SpecBenchmark &bench)
{
    sim::SystemConfig cfg;
    cfg.enableTimeline = true;
    cfg.timelineInterval = 100'000; // the paper's 60 s, scaled
    sim::System sys(cfg);
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(bench, 2'000'000), 11));
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::idleSchedule(1000), 43));
    // Run in blocks while core 0 cannot finish within them, then tick
    // to the exact cycle it finishes: the same cycles as ticking until
    // finished().
    Cycles bound;
    while ((bound = sys.core(0).minTicksUntilFinished()) > 1)
        sys.run(bound - 1);
    while (!sys.core(0).finished())
        sys.tick();
    return sys.timelineSeries();
}

} // namespace

int
main()
{
    const std::array<const char *, 3> names = {"sphinx", "gamess", "tonto"};
    const auto timelines =
        parallelMap<std::vector<double>>(names.size(), [&](std::size_t i) {
            return droopTimeline(workload::specByName(names[i]));
        });

    auto result = bench::makeResult("fig14_noise_phases");
    for (std::size_t b = 0; b < names.size(); ++b) {
        const char *name = names[b];
        const auto &series = timelines[b];
        TextTable table("Fig 14: droops/1K cycles over time - " +
                        workload::specByName(name).name);
        table.setHeader({"interval", "droops/1K", ""});
        for (std::size_t i = 0; i < series.size(); ++i) {
            table.addRow({TextTable::num(static_cast<int>(i)),
                          TextTable::num(series[i], 1),
                          std::string(
                              static_cast<std::size_t>(series[i] / 2.5),
                              '#')});
        }
        table.print(std::cout);

        const auto phases = noise::detectPhases(series, 12.0);
        std::cout << "Detected phases: " << phases.size() << " (";
        for (std::size_t p = 0; p < phases.size(); ++p) {
            if (p)
                std::cout << ", ";
            std::cout << TextTable::num(phases[p].meanDroopsPer1k, 0);
        }
        std::cout << " droops/1K)\n\n";
        result.metric(std::string("phases_") + name,
                      static_cast<double>(phases.size()));
        result.series(std::string("droops_per_1k_") + name, series);
    }
    std::cout << "Paper: sphinx flat (~100), gamess four phases"
                 " (60..100), tonto oscillating (60..100).\n";
    bench::emitResult(result);
    return 0;
}
