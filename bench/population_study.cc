/**
 * @file
 * The characterization study over the paper's workload population
 * (Sec III): Fig 7 and Fig 8 from one Proc100 population, Fig 9 and
 * Fig 10 from one population per future-node proxy (Proc100, Proc25,
 * Proc3), as in the paper, where each pair of figures reads the same
 * measurements. The binary prints the four tables in that order and
 * emits one Result per experiment.
 *
 * `vsmooth verify` runs it once per registry name, so checking the
 * four experiments takes four processes. The study's output (its
 * printed tables and four Result files) therefore also lives in one
 * file, <temp dir>/vsmooth-<uid>/population_study.cache
 * (bench::cachedStudy): the first process runs the study and writes
 * it, the others replay it. A fresh TMPDIR, or deleting the file,
 * forces a cold run.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <span>

#include "bench_util.hh"
#include "common/table.hh"
#include "resilience/perf_model.hh"

using namespace vsmooth;

namespace {

/** The decaps of Fig 9 and Fig 10: Proc100, Proc25 and Proc3. */
constexpr std::array<double, 3> kFutureDecaps = {1.0, 0.25, 0.03};

/** Fig 7/8's Proc100 population, then Fig 9/10's population for each
 *  kFutureDecaps entry. */
std::vector<bench::Population>
populations()
{
    std::vector<bench::Population> pops;
    pops.push_back(bench::runPopulation(150'000, 1.0));
    for (double frac : kFutureDecaps)
        pops.push_back(bench::runPopulation(100'000, frac));
    return pops;
}

/**
 * Fig 7: cumulative distribution of voltage samples on the unmodified
 * processor (Proc100) across the full workload population (the
 * paper's 881 runs: single-threaded, multi-threaded, multi-program).
 *
 * Paper findings reproduced here: droops reach ~9.6 % (so the 14 %
 * worst-case margin is justified), but the typical case is +/-4 %,
 * with only ~0.06 % of samples beyond it.
 */
Result
fig07(const bench::Population &pop)
{
    auto result = bench::makeResult("fig07_voltage_cdf");
    TextTable table("Fig 7: voltage-sample CDF, Proc100 (population)");
    table.setHeader({"deviation (%)", "fraction of samples below"});
    for (double dev : {-8.0, -6.0, -5.0, -4.0, -3.0, -2.0, -1.0, 0.0,
                       1.0, 2.0, 3.0, 4.0}) {
        const double frac = pop.scope.fractionBelow(dev / 100.0);
        table.addRow({TextTable::num(dev, 1),
                      TextTable::num(frac, 6)});
        result.seriesPoint("cdf_fraction_below", frac);
    }
    table.print(std::cout);

    const double beyond =
        pop.scope.fractionOutside(sim::kTypicalCaseBand);
    result.metric("runs", static_cast<double>(pop.runs));
    result.metric("max_droop_pct", pop.scope.maxDroop() * 100);
    result.metric("max_overshoot_pct", pop.scope.maxOvershoot() * 100);
    result.metric("beyond_4pct_pct", beyond * 100);
    std::cout << "\nRuns aggregated: " << pop.runs << "\n"
              << "Max droop: "
              << TextTable::num(pop.scope.maxDroop() * 100, 2)
              << "% (paper: 9.6%)\n"
              << "Max overshoot: "
              << TextTable::num(pop.scope.maxOvershoot() * 100, 2)
              << "%\n"
              << "Samples beyond +/-4%: "
              << TextTable::num(beyond * 100, 4)
              << "% (paper: 0.06%)\n"
              << "Worst-case margin of the part: 14% -> still needed"
                 " for the rare deep droops, but far from typical.\n";
    return result;
}

/**
 * Fig 8: performance improvement from typical-case design on Proc100,
 * across voltage margins, for recovery costs 1..100k cycles.
 *
 * Reproduces the paper's three observations: one optimum per recovery
 * cost, 13-21 % gains at the optimum, and a "dead zone" past the
 * optimum where recoveries erase the gains (improvement < 0).
 */
Result
fig08(const bench::Population &pop)
{
    const auto &costs = sim::recoveryCostSweep();

    TextTable table(
        "Fig 8: improvement (%) vs margin, per recovery cost, Proc100");
    std::vector<std::string> header = {"margin (%)"};
    for (auto c : costs)
        header.push_back("cost " + TextTable::num(c));
    table.setHeader(header);

    for (double m : pop.emergencies.margins) {
        if (m > sim::kWorstCaseMargin)
            continue;
        std::vector<std::string> row = {TextTable::num(m * 100, 1)};
        for (auto c : costs) {
            row.push_back(TextTable::num(
                resilience::improvementPercent(pop.emergencies, m, c),
                2));
        }
        table.addRow(row);
    }
    table.print(std::cout);

    auto result = bench::makeResult("fig08_typical_case");
    std::cout << "\nOptimal margins:\n";
    for (auto c : costs) {
        const auto best = resilience::optimalMargin(pop.emergencies, c);
        std::cout << "  cost " << c << ": margin "
                  << TextTable::num(best.margin * 100, 1)
                  << "% -> improvement "
                  << TextTable::num(best.improvementPercent, 1) << "%\n";
        result.metric("optimal_margin_pct_cost" + TextTable::num(c),
                      best.margin * 100);
        result.metric("improvement_pct_cost" + TextTable::num(c),
                      best.improvementPercent);
    }
    std::cout << "\nPaper: gains between 13% and ~21%; overly"
                 " aggressive margins fall into the dead zone"
                 " (below 0%).\n";
    return result;
}

/**
 * Fig 9: typical-case voltage-sample distributions on the future-node
 * proxies Proc25 and Proc3.
 *
 * The paper's point: the distributions spread out as decap shrinks —
 * 0.06 % of samples violate the -4 % typical-case band on Proc100,
 * but ~0.2 % on Proc25 and ~2.2 % on Proc3, which is what erodes
 * resilient-design gains in future nodes.
 */
Result
fig09(std::span<const bench::Population> future)
{
    TextTable table("Fig 9: sample distribution spread vs decap");
    table.setHeader({"processor", "below -4% (%)", "below -2.3% (%)",
                     "max droop (%)", "visual p2p (%)"});

    auto result = bench::makeResult("fig09_future_cdf");
    for (std::size_t p = 0; p < kFutureDecaps.size(); ++p) {
        const double frac = kFutureDecaps[p];
        const auto &pop = future[p];
        table.addRow(
            {sim::procName(frac),
             TextTable::num(pop.scope.fractionBelow(-0.04) * 100, 4),
             TextTable::num(
                 pop.scope.fractionBelow(-sim::kIdleMargin) * 100, 2),
             TextTable::num(pop.scope.maxDroop() * 100, 2),
             TextTable::num(pop.scope.visualPeakToPeak() * 100, 2)});
        const std::string proc = sim::procName(frac);
        result.metric("below_4pct_pct_" + proc,
                      pop.scope.fractionBelow(-0.04) * 100);
        result.metric("max_droop_pct_" + proc,
                      pop.scope.maxDroop() * 100);
        result.metric("visual_p2p_pct_" + proc,
                      pop.scope.visualPeakToPeak() * 100);
    }
    table.print(std::cout);
    std::cout << "\nPaper: 0.06% (Proc100), 0.2% (Proc25), 2.2% (Proc3)"
                 " of samples beyond the -4% typical-case margin;"
                 " Proc3's distribution visibly wider.\n";
    return result;
}

/**
 * Fig 10: improvement heatmaps — recovery cost x operating margin —
 * for Proc100, Proc25, and Proc3.
 *
 * The pocket of high improvement between -6 % and -2 % margins on
 * Proc100 shrinks on Proc25 and nearly vanishes on Proc3: keeping a
 * 15 % gain requires a 1000-cycle recovery on Proc100, ~100 cycles on
 * Proc25, and ~10 cycles on Proc3 (the paper's long-term argument).
 */
Result
fig10(std::span<const bench::Population> future)
{
    auto result = bench::makeResult("fig10_heatmaps");
    for (std::size_t p = 0; p < kFutureDecaps.size(); ++p) {
        const double frac = kFutureDecaps[p];
        const auto map = resilience::improvementHeatmap(
            future[p].emergencies, sim::recoveryCostSweep());

        const std::string proc = sim::procName(frac);
        double best = map.improvement[0][0];
        for (const auto &row : map.improvement)
            for (double v : row)
                best = std::max(best, v);
        result.metric("best_improvement_pct_" + proc, best);
        for (std::size_t c = 0; c < map.costs.size(); ++c) {
            result.metric("best_improvement_pct_" + proc + "_cost" +
                              TextTable::num(map.costs[c]),
                          *std::max_element(map.improvement[c].begin(),
                                            map.improvement[c].end()));
        }

        TextTable table("Fig 10 heatmap: improvement (%), " +
                        sim::procName(frac));
        std::vector<std::string> header = {"cost \\ margin (%)"};
        for (double m : map.margins) {
            if (std::fmod(m * 1000.0, 10.0) != 0.0)
                continue; // print every 1% column to keep rows short
            header.push_back(TextTable::num(m * 100, 0));
        }
        table.setHeader(header);
        for (std::size_t c = 0; c < map.costs.size(); ++c) {
            std::vector<std::string> row = {
                TextTable::num(map.costs[c])};
            for (std::size_t k = 0; k < map.margins.size(); ++k) {
                if (std::fmod(map.margins[k] * 1000.0, 10.0) != 0.0)
                    continue;
                row.push_back(
                    TextTable::num(map.improvement[c][k], 1));
            }
            table.addRow(row);
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "Paper: the blue high-improvement pocket (-6%..-2%)"
                 " shrinks from Proc100 to Proc25 and Proc3; finer"
                 " recovery is needed to retain 15%.\n";
    return result;
}

} // namespace

int
main()
{
    bench::cachedStudy("population_study", [] {
        const auto pops = populations();
        const std::span<const bench::Population> future(pops.begin() + 1,
                                                        pops.end());
        return std::vector<Result>{fig07(pops.front()), fig08(pops.front()),
                                   fig09(future), fig10(future)};
    });
    return 0;
}
