/**
 * @file
 * The scheduling study on the Proc3 future node (paper Sec IV-C):
 * Fig 17, Fig 18, Fig 19 and Table I, all fed from one oracle pre-run
 * over every SPEC CPU2006 pair, as in the paper. The binary prints the
 * four tables in that order and emits one Result per experiment.
 *
 * `vsmooth verify` runs it once per registry name, so checking the
 * four experiments takes four processes. The study's output (its
 * printed tables and four Result files) therefore also lives in one
 * file, <temp dir>/vsmooth-<uid>/oracle_study.cache
 * (bench::cachedStudy): the first process runs the study and writes
 * it, the others replay it. A fresh TMPDIR, or deleting the file,
 * forces a cold run.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/statistics.hh"
#include "common/table.hh"
#include "sched/oracle_matrix.hh"
#include "sched/pass_analysis.hh"
#include "sched/policy.hh"
#include "sim/calibration.hh"

using namespace vsmooth;

namespace {

/** The Proc3 pre-run: every pair of the suite, measured once. */
sched::OracleMatrix
proc3Matrix()
{
    sched::OracleConfig cfg;
    cfg.system.package =
        pdn::PackageConfig::core2duo().withDecapFraction(0.03);
    cfg.cyclesPerPair = 800'000;
    cfg.droopMargin = sim::kProc3DroopMargin;
    return sched::OracleMatrix(workload::specCpu2006(), cfg);
}

/**
 * Fig 17: droop spread of every benchmark across all of its
 * co-schedules (boxplot data), with the single-core and SPECrate
 * (self-paired) values as the markers.
 *
 * Paper points: destructive interference exists (box bottoms at or
 * below single-core), constructive interference is common, and in
 * over half the co-schedules there is room to do better than the
 * SPECrate baseline. libquantum is the famous outlier with almost no
 * spread.
 */
Result
fig17(const sched::OracleMatrix &matrix)
{
    TextTable table(
        "Fig 17: droops/1K across co-schedules (Proc3)");
    table.setHeader({"benchmark", "single", "SPECrate", "min", "q1",
                     "median", "q3", "max"});

    auto result = bench::makeResult("fig17_coschedule_spread");
    std::size_t better_than_specrate = 0, total = 0;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        std::vector<double> spread;
        for (std::size_t j = 0; j < matrix.size(); ++j) {
            spread.push_back(matrix.pair(i, j).droopsPer1k);
            if (matrix.pair(i, j).droopsPer1k <
                matrix.specRate(i).droopsPer1k)
                ++better_than_specrate;
            ++total;
        }
        const auto box = boxplot(spread);
        table.addRow({matrix.benchmark(i).name,
                      TextTable::num(matrix.single(i).droopsPer1k, 1),
                      TextTable::num(matrix.specRate(i).droopsPer1k, 1),
                      TextTable::num(box.min, 1),
                      TextTable::num(box.q1, 1),
                      TextTable::num(box.median, 1),
                      TextTable::num(box.q3, 1),
                      TextTable::num(box.max, 1)});
        result.seriesPoint("median_droops_per_1k", box.median);
        result.seriesPoint("single_droops_per_1k",
                           matrix.single(i).droopsPer1k);
        result.seriesPoint("specrate_droops_per_1k",
                           matrix.specRate(i).droopsPer1k);
    }
    table.print(std::cout);

    const double better_pct =
        100.0 * static_cast<double>(better_than_specrate) /
        static_cast<double>(total);
    std::cout << "\nCo-schedules with fewer droops than the SPECrate"
                 " baseline: "
              << TextTable::num(better_pct, 0)
              << "% (paper: over half show room for improvement)\n";
    result.metric("better_than_specrate_pct", better_pct);
    return result;
}

std::vector<std::size_t>
makePool(std::size_t suiteSize, std::size_t copies)
{
    std::vector<std::size_t> pool;
    for (std::size_t c = 0; c < copies; ++c)
        for (std::size_t i = 0; i < suiteSize; ++i)
            pool.push_back(i);
    if (pool.size() % 2 != 0)
        pool.pop_back();
    return pool;
}

/**
 * Fig 18: batch-schedule outcomes per policy, as (droops, performance)
 * normalized to the SPECrate baseline — the paper's quadrant scatter.
 *
 * Expected placement: Random clusters at (1, 1); IPC improves
 * performance but sits at Random's droop level; Droop minimizes
 * droops with a slight performance gain (quadrant Q1); the hybrid
 * IPC/Droop^n traces the Q1 pareto frontier as n varies.
 */
Result
fig18(const sched::OracleMatrix &matrix)
{
    // Pool sized so one batch is ~50 pairs, like the paper.
    const auto pool = makePool(matrix.size(), 4); // 58 jobs -> 58 pairs

    TextTable table(
        "Fig 18: schedule outcomes relative to SPECrate (Proc3)");
    table.setHeader({"policy", "droops (rel)", "performance (rel)",
                     "quadrant"});

    auto quadrant = [](const sched::NormalizedMetrics &m) {
        if (m.droops <= 1.0 && m.performance >= 1.0)
            return "Q1 (good both)";
        if (m.droops > 1.0 && m.performance >= 1.0)
            return "Q2 (perf only)";
        if (m.droops > 1.0 && m.performance < 1.0)
            return "Q3 (bad both)";
        return "Q4 (droops only)";
    };

    Rng rng(2026);
    auto result = bench::makeResult("fig18_policy_scatter");

    // 100 random schedules, as in the paper.
    double rand_droops = 0.0, rand_perf = 0.0;
    for (int k = 0; k < 100; ++k) {
        const auto sched = sched::buildSchedule(
            pool, matrix, sched::PolicyKind::Random, rng);
        const auto norm = sched::normalizeAgainstSpecRate(
            sched::evaluateSchedule(sched, matrix), matrix);
        rand_droops += norm.droops;
        rand_perf += norm.performance;
    }
    sched::NormalizedMetrics rand_mean{rand_droops / 100.0,
                                       rand_perf / 100.0};
    table.addRow({"Random (mean of 100)",
                  TextTable::num(rand_mean.droops, 3),
                  TextTable::num(rand_mean.performance, 3),
                  quadrant(rand_mean)});
    result.metric("droops_rel_random", rand_mean.droops);
    result.metric("performance_rel_random", rand_mean.performance);

    for (auto kind : {sched::PolicyKind::Ipc, sched::PolicyKind::Droop}) {
        const auto sched = sched::buildSchedule(pool, matrix, kind, rng);
        const auto norm = sched::normalizeAgainstSpecRate(
            sched::evaluateSchedule(sched, matrix), matrix);
        table.addRow({sched::policyName(kind),
                      TextTable::num(norm.droops, 3),
                      TextTable::num(norm.performance, 3),
                      quadrant(norm)});
        const std::string tag = sched::policyName(kind);
        result.metric("droops_rel_" + tag, norm.droops);
        result.metric("performance_rel_" + tag, norm.performance);
    }
    for (double n : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        const auto sched = sched::buildSchedule(
            pool, matrix, sched::PolicyKind::IpcOverDroopN, rng, n);
        const auto norm = sched::normalizeAgainstSpecRate(
            sched::evaluateSchedule(sched, matrix), matrix);
        table.addRow({"IPC/Droop^" + TextTable::num(n, 2),
                      TextTable::num(norm.droops, 3),
                      TextTable::num(norm.performance, 3),
                      quadrant(norm)});
        result.seriesPoint("hybrid_droops_rel", norm.droops);
        result.seriesPoint("hybrid_performance_rel", norm.performance);
    }
    table.print(std::cout);
    std::cout << "\nPaper: Random ~ SPECrate; IPC boosts performance at"
                 " Random's droop level; Droop minimizes droops (Q1"
                 " with slight perf gain); the hybrid spans the Q1"
                 " pareto frontier.\n";
    return result;
}

/**
 * Fig 19: how many co-schedules meet the typical-case design target
 * ("pass") under IPC vs Droop scheduling, as a % increase over the
 * SPECrate baseline, across recovery costs.
 *
 * Paper points: both policies recover ~60 % more passing schedules at
 * fine recovery costs; IPC's benefit decays with cost while Droop
 * stays consistently ahead and wins clearly at coarse (1000+ cycle)
 * recovery — the argument for noise-aware scheduling.
 */
Result
fig19(const sched::OracleMatrix &matrix)
{
    // One job pool: two copies of every benchmark (29 pairs formed,
    // comparable to the 29 SPECrate schedules).
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        pool.push_back(i);
        pool.push_back(i);
    }

    const auto table_rows =
        sched::optimalMarginTable(matrix, sim::recoveryCostSweep(),
                                  /*tolerancePercent=*/1.0);

    TextTable table("Fig 19: passing schedules vs SPECrate (Proc3)");
    table.setHeader({"recovery cost", "SPECrate passes", "IPC passes",
                     "Droop passes", "IPC +%", "Droop +%"});

    Rng rng(7);
    auto result = bench::makeResult("fig19_pass_increase");
    for (const auto &row : table_rows) {
        const auto ipc_sched = sched::buildSchedule(
            pool, matrix, sched::PolicyKind::Ipc, rng);
        const auto droop_sched = sched::buildSchedule(
            pool, matrix, sched::PolicyKind::Droop, rng);

        const int ipc_pass = sched::countPassing(
            ipc_sched, matrix, row.optimalMargin, row.recoveryCost,
            row.expectedImprovementPercent, /*tolerancePercent=*/1.0);
        const int droop_pass = sched::countPassing(
            droop_sched, matrix, row.optimalMargin, row.recoveryCost,
            row.expectedImprovementPercent, /*tolerancePercent=*/1.0);

        auto pct = [&](int passes) {
            if (row.passingSpecRate == 0)
                return std::string(passes > 0 ? "inf" : "0");
            return TextTable::num(
                100.0 * (static_cast<double>(passes) /
                             static_cast<double>(row.passingSpecRate) -
                         1.0),
                0);
        };
        table.addRow({TextTable::num(row.recoveryCost),
                      TextTable::num(row.passingSpecRate),
                      TextTable::num(ipc_pass),
                      TextTable::num(droop_pass), pct(ipc_pass),
                      pct(droop_pass)});
        const std::string cost = TextTable::num(row.recoveryCost);
        result.metric("specrate_passes_cost" + cost,
                      static_cast<double>(row.passingSpecRate));
        result.metric("ipc_passes_cost" + cost,
                      static_cast<double>(ipc_pass));
        result.metric("droop_passes_cost" + cost,
                      static_cast<double>(droop_pass));
    }
    table.print(std::cout);
    std::cout << "\nPaper: ~60% increase for both at 10-cycle recovery;"
                 " IPC's benefit decays with cost; Droop consistently"
                 " outperforms IPC and wins at 1000+ cycles.\n";
    return result;
}

/**
 * Table I: typical-case design analysis of SPECrate schedules — for
 * each recovery cost, the optimal aggressive margin (derived from the
 * full workload population), the expected improvement at it, and how
 * many of the 29 SPECrate schedules actually meet that expectation.
 *
 * Paper values: margins tighten from 5.3 % (1-cycle recovery) to
 * 8.6 % (100k), expected improvement falls 15.7 % -> 9.7 %, and the
 * passing count collapses 28 -> 9 as recovery coarsens.
 */
Result
table1(const sched::OracleMatrix &matrix)
{
    const auto rows =
        sched::optimalMarginTable(matrix, sim::recoveryCostSweep(),
                                  /*tolerancePercent=*/1.0);

    TextTable table("Table I: SPECrate typical-case analysis (Proc3)");
    table.setHeader({"recovery cost (cycles)", "optimal margin (%)",
                     "expected improvement (%)", "# schedules that pass",
                     "paper margin (%)", "paper improv (%)",
                     "paper passes"});

    const char *paper[6][3] = {{"5.3", "15.7", "28"}, {"5.6", "15.1", "28"},
                               {"6.4", "13.7", "15"}, {"7.4", "12.2", "12"},
                               {"8.2", "10.8", "9"},  {"8.6", "9.7", "9"}};
    auto result = bench::makeResult("table1_optimal_margins");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        table.addRow({TextTable::num(r.recoveryCost),
                      TextTable::num(r.optimalMargin * 100, 1),
                      TextTable::num(r.expectedImprovementPercent, 1),
                      TextTable::num(r.passingSpecRate),
                      paper[i][0], paper[i][1], paper[i][2]});
        const std::string cost = TextTable::num(r.recoveryCost);
        result.metric("optimal_margin_pct_cost" + cost,
                      r.optimalMargin * 100);
        result.metric("improvement_pct_cost" + cost,
                      r.expectedImprovementPercent);
        result.metric("passes_cost" + cost,
                      static_cast<double>(r.passingSpecRate));
    }
    table.print(std::cout);
    std::cout << "\nShape targets: margins relax and improvement falls"
                 " as recovery coarsens; the passing count collapses"
                 " beyond ~10-cycle recovery.\n";
    return result;
}

} // namespace

int
main()
{
    bench::cachedStudy("oracle_study", [] {
        const sched::OracleMatrix matrix = proc3Matrix();
        std::vector<Result> results;
        results.push_back(fig17(matrix));
        std::cout << "\n";
        results.push_back(fig18(matrix));
        std::cout << "\n";
        results.push_back(fig19(matrix));
        std::cout << "\n";
        results.push_back(table1(matrix));
        return results;
    });
    return 0;
}
