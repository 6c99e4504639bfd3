/**
 * @file
 * Ablation: voltage noise versus core count.
 *
 * Sec III-C of the paper: "as the number of cores per processor
 * increases, this problem can worsen" — more cores on one shared rail
 * means more simultaneous stall/refill transients and a deeper
 * combined distribution. This study scales the same workload mix
 * from 1 to 8 cores on a fixed package.
 */

#include <iostream>
#include <iterator>
#include <memory>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "cpu/fast_core.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;

int
main()
{
    const char *mix[] = {"sphinx", "mcf", "gamess", "milc",
                         "hmmer", "xalan", "lbm", "gcc"};

    TextTable t("voltage noise vs active core count (shared rail)");
    t.setHeader({"cores", "visual p2p (%)", "max droop (%)",
                 "droops/1K (2.3%)", "beyond -4% (%)"});

    // The four runs are independent: fan them out over the pool,
    // largest system first, and report them smallest first.
    const std::size_t coreCounts[] = {1, 2, 4, 8};
    const std::size_t nRuns = std::size(coreCounts);
    const auto scopes = parallelMap<noise::Scope>(nRuns, [&](std::size_t i) {
        const std::size_t n = coreCounts[nRuns - 1 - i];
        sim::SystemConfig cfg;
        sim::System sys(cfg);
        for (std::size_t c = 0; c < n; ++c) {
            sys.addCore(std::make_unique<cpu::FastCore>(
                workload::scheduleFor(workload::specByName(mix[c]),
                                      600'000, true),
                100 + c));
        }
        sys.run(600'000);
        return sys.scope();
    });

    auto result = bench::makeResult("ablation_core_scaling");
    for (std::size_t i = 0; i < nRuns; ++i) {
        const std::size_t n = coreCounts[i];
        const noise::Scope &scope = scopes[nRuns - 1 - i];
        t.addRow({TextTable::num(static_cast<std::uint64_t>(n)),
                  TextTable::num(scope.visualPeakToPeak() * 100, 2),
                  TextTable::num(scope.maxDroop() * 100, 2),
                  TextTable::num(1000.0 * scope.fractionBelow(-0.023), 1),
                  TextTable::num(scope.fractionBelow(-0.04) * 100, 3)});
        const std::string cores = TextTable::num(
            static_cast<std::uint64_t>(n));
        result.metric("visual_p2p_pct_" + cores + "core",
                      scope.visualPeakToPeak() * 100);
        result.metric("max_droop_pct_" + cores + "core",
                      scope.maxDroop() * 100);
        result.seriesPoint("droops_per_1k",
                           1000.0 * scope.fractionBelow(-0.023));
    }
    t.print(std::cout);
    bench::emitResult(result);
    std::cout << "\nExpected: swings and margin violations grow with"
                 " active cores on a shared supply (the paper's Sec"
                 " III-C multi-core argument), which is what makes"
                 " noise-aware scheduling matter more at scale.\n";
    return 0;
}
