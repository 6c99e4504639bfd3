/**
 * @file
 * Fig 13: chip-wide peak-to-peak swing when both cores run event
 * microbenchmarks simultaneously — the 5x5 interference matrix,
 * relative to an idling machine.
 *
 * Paper headline: dual-core worst case 2.42x versus 1.7x single-core
 * (a 42 % increase); the magnitude depends strongly on the event
 * pairing (constructive vs destructive interference).
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "cpu/detailed_core.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"

using namespace vsmooth;

namespace {

constexpr Cycles kSweepCycles = 1'500'000;

/** Chip-wide visual p2p swing of one cell: Core0 runs microbenchmark
 *  `a`, Core1 runs `b`; a core without one idles. */
double
cellP2p(std::optional<workload::MicrobenchKind> a,
        std::optional<workload::MicrobenchKind> b)
{
    // DetailedCore does not own its instruction source, so the
    // streams outlive the System.
    std::unique_ptr<cpu::InstructionSource> s0, s1;
    sim::System sys{sim::SystemConfig{}};
    if (a) {
        s0 = workload::makeMicrobenchmark(*a, 7);
        sys.addCore(std::make_unique<cpu::DetailedCore>(
            cpu::DetailedCoreParams{}, *s0));
    } else {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), 42));
    }
    if (b) {
        s1 = workload::makeMicrobenchmark(*b, 99);
        sys.addCore(std::make_unique<cpu::DetailedCore>(
            cpu::DetailedCoreParams{}, *s1));
    } else {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), 43));
    }
    sys.run(kSweepCycles);
    return sys.scope().visualPeakToPeak();
}

} // namespace

int
main()
{
    const auto &kinds = workload::kEventMicrobenchmarks;
    const std::size_t nk = kinds.size();

    // Every cell is an independent simulation, so the whole figure is
    // one sweep over the pool, longest first: the 5x5 dual-core grid
    // (row-major), the single-core cells (for the +42 % comparison),
    // then the idle baseline.
    const std::size_t nPairs = nk * nk;
    const auto p2p =
        parallelMap<double>(nPairs + nk + 1, [&](std::size_t t) {
            if (t < nPairs)
                return cellP2p(kinds[t / nk], kinds[t % nk]);
            if (t < nPairs + nk)
                return cellP2p(kinds[t - nPairs], std::nullopt);
            return cellP2p(std::nullopt, std::nullopt);
        });
    const double idle = p2p.back();
    std::vector<double> grid(nPairs), singles(nk);
    for (std::size_t t = 0; t < nPairs; ++t)
        grid[t] = p2p[t] / idle;
    for (std::size_t k = 0; k < nk; ++k)
        singles[k] = p2p[nPairs + k] / idle;
    const double single_max =
        *std::max_element(singles.begin(), singles.end());

    TextTable table(
        "Fig 13: dual-core p2p swing relative to idle (Core0 x Core1)");
    std::vector<std::string> header = {"Core0 \\ Core1"};
    for (auto k : kinds)
        header.emplace_back(workload::microbenchName(k));
    table.setHeader(header);

    double pair_max = 0.0;
    for (std::size_t r = 0; r < nk; ++r) {
        std::vector<std::string> row = {
            std::string(workload::microbenchName(kinds[r]))};
        for (std::size_t c = 0; c < nk; ++c) {
            const double rel = grid[r * nk + c];
            pair_max = std::max(pair_max, rel);
            row.push_back(TextTable::num(rel, 2));
        }
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout << "\nSingle-core max: " << TextTable::num(single_max, 2)
              << "x   dual-core max: " << TextTable::num(pair_max, 2)
              << "x   increase: "
              << TextTable::num((pair_max / single_max - 1.0) * 100, 0)
              << "%\nPaper: 1.7x single vs 2.42x dual (+42%), worst"
                 " case when both cores run the same heavyweight"
                 " event.\n";
    auto result = bench::makeResult("fig13_interference");
    result.metric("single_core_max_rel", single_max);
    result.metric("dual_core_max_rel", pair_max);
    result.metric("increase_pct", (pair_max / single_max - 1.0) * 100);
    result.series("grid_rel", grid);
    bench::emitResult(result);
    return 0;
}
