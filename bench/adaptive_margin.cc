/**
 * @file
 * Adaptive margin under co-scheduling: does voltage smoothing let the
 * closed-loop controller run a thinner margin?
 *
 * A six-benchmark pool is paired three ways: SPECrate-style (two
 * copies of the same program launched together, so their instruction
 * streams run in lockstep and their current transients align), by the
 * Random policy (the paper's control), and by the droop-aware policy
 * (its proposal). Every scheduled pair then runs with the PI margin
 * controller closing the loop on the simulated ring-oscillator
 * sensor. Homogeneous lockstep pairs stack their di/dt spikes in the
 * same cycle and force the controller to bank a wide guard band; the
 * noise-aware pairing mixes unlike programs whose transients cannot
 * align, so the controller sees shallower worst-case droops and
 * settles a thinner margin — the end-to-end payoff the paper's
 * scheduling section argues for, measured directly as sustained guard
 * band rather than droop counts.
 */

#include <iostream>
#include <memory>
#include <span>
#include <vector>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "sched/policy.hh"

using namespace vsmooth;

namespace {

constexpr Cycles kCyclesPerPair = 400'000;

/** Mixed-noise pool: memory-bound droop generators (mcf, lbm, milc)
 *  alongside compute-steady programs (hmmer, namd, povray), so the
 *  pairing policy has real smoothing headroom to exploit. */
std::vector<workload::SpecBenchmark>
makeSuite()
{
    std::vector<workload::SpecBenchmark> suite;
    for (const char *name :
         {"mcf", "lbm", "milc", "hmmer", "namd", "povray"})
        suite.push_back(workload::specByName(name));
    return suite;
}

sim::SystemConfig
controllerConfig()
{
    sim::SystemConfig cfg;
    // The future-chip package (ProcN-style decap scaling): enough
    // noise that margin policy matters.
    cfg.package = pdn::PackageConfig::core2duo().withDecapFraction(0.1);
    cfg.osTickInterval = 0;
    cfg.enableMarginController = true;
    cfg.marginControllerParams.updateInterval = 5'000;
    cfg.recoveryCostCycles = 600;
    return cfg;
}

struct ScheduleOutcome
{
    /** Cycle-weighted mean margin across all pairs of the schedule. */
    double avgMargin = 0.0;
    /** Mean settled (final) margin. */
    double finalMargin = 0.0;
    std::uint64_t violations = 0;
    double droopsPer1k = 0.0;
};

/** One scheduled pair run under the margin controller. */
ScheduleOutcome
runPair(const sched::ScheduledPair &p,
        const std::vector<workload::SpecBenchmark> &suite)
{
    sim::System sys(controllerConfig());
    // Seeds derive from the pair's *contents*, not its slot, so both
    // policies measure identical per-pair realizations and differ
    // only in how they paired the pool. Two copies of the same
    // program get the same seed and thus run in lockstep — the
    // phase-aligned worst case a SPECrate-style launch produces on
    // real hardware.
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(suite[p.a], kCyclesPerPair, true),
        101 + 7 * p.a));
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(suite[p.b], kCyclesPerPair, true),
        101 + 7 * p.b));
    sys.run(kCyclesPerPair);

    const auto *mc = sys.marginController();
    return {mc->averageMargin(), mc->margin(), mc->widenings(),
            1000.0 * sys.scope().fractionBelow(-sim::kIdleMargin)};
}

/** A schedule's means over its pair runs, summed in pair order. */
ScheduleOutcome
summarize(std::span<const ScheduleOutcome> pairs)
{
    ScheduleOutcome o;
    for (const auto &p : pairs) {
        o.avgMargin += p.avgMargin;
        o.finalMargin += p.finalMargin;
        o.violations += p.violations;
        o.droopsPer1k += p.droopsPer1k;
    }
    const double n = static_cast<double>(pairs.size());
    o.avgMargin /= n;
    o.finalMargin /= n;
    o.droopsPer1k /= n;
    return o;
}

} // namespace

int
main()
{
    const auto suite = makeSuite();

    sched::OracleConfig ocfg;
    ocfg.system.package =
        pdn::PackageConfig::core2duo().withDecapFraction(0.1);
    ocfg.cyclesPerPair = 60'000;
    ocfg.droopMargin = sim::kProc3DroopMargin;
    // Let the pre-run phase see what SPECrate launches really cost:
    // lockstep self-pairs stack their transients, and the droop-aware
    // policy must steer around them.
    ocfg.alignedSelfPairs = true;
    const sched::OracleMatrix matrix(suite, ocfg);

    // Two copies of each program -> six pairs per schedule.
    std::vector<std::size_t> pool;
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t i = 0; i < suite.size(); ++i)
            pool.push_back(i);

    Rng rng(2026);
    const auto specRateSched = sched::specRateSchedule(matrix);
    const auto randomSched = sched::buildSchedule(
        pool, matrix, sched::PolicyKind::Random, rng);
    const auto droopSched = sched::buildSchedule(
        pool, matrix, sched::PolicyKind::DroopWorstFirst, rng);

    auto pairList = [&](const sched::Schedule &s) {
        std::string out;
        for (const auto &p : s) {
            if (!out.empty())
                out += " ";
            out += suite[p.a].name + "+" + suite[p.b].name;
        }
        return out;
    };
    std::cout << "SPECrate pairs:    " << pairList(specRateSched) << "\n";
    std::cout << "Random pairs:      " << pairList(randomSched) << "\n";
    std::cout << "Droop-aware pairs: " << pairList(droopSched) << "\n";

    // The 18 pair runs are independent: fan them out over the pool as
    // one sweep, then take each schedule's means after the join.
    std::vector<sched::ScheduledPair> pairs;
    for (const auto *sch : {&specRateSched, &randomSched, &droopSched})
        pairs.insert(pairs.end(), sch->begin(), sch->end());
    const auto outcomes = parallelMap<ScheduleOutcome>(
        pairs.size(), [&](std::size_t i) { return runPair(pairs[i], suite); });
    std::span<const ScheduleOutcome> rest(outcomes);
    auto next = [&](const sched::Schedule &sch) {
        const ScheduleOutcome o = summarize(rest.first(sch.size()));
        rest = rest.subspan(sch.size());
        return o;
    };
    const ScheduleOutcome specRate = next(specRateSched);
    const ScheduleOutcome random = next(randomSched);
    const ScheduleOutcome droop = next(droopSched);
    const double advantage = specRate.avgMargin - droop.avgMargin;

    TextTable t("Adaptive margin under co-scheduling "
                "(6 pairs/schedule, PI controller, ProcN decap)");
    t.setHeader({"schedule", "avg margin (%)", "final margin (%)",
                 "violations", "droops/1k"});
    auto row = [&](const char *name, const ScheduleOutcome &o) {
        t.addRow({name, TextTable::num(100.0 * o.avgMargin, 3),
                  TextTable::num(100.0 * o.finalMargin, 3),
                  TextTable::num(o.violations),
                  TextTable::num(o.droopsPer1k, 2)});
    };
    row("SPECrate", specRate);
    row("Random", random);
    row("Droop-aware", droop);
    t.print(std::cout);

    auto result = bench::makeResult("adaptive_margin");
    result.metric("avg_margin_specrate", specRate.avgMargin);
    result.metric("avg_margin_random", random.avgMargin);
    result.metric("avg_margin_droop", droop.avgMargin);
    result.metric("final_margin_random", random.finalMargin);
    result.metric("final_margin_droop", droop.finalMargin);
    result.metric("violations_random",
                  static_cast<double>(random.violations));
    result.metric("violations_droop",
                  static_cast<double>(droop.violations));
    result.metric("droops_per_1k_random", random.droopsPer1k);
    result.metric("droops_per_1k_droop", droop.droopsPer1k);
    result.metric("margin_advantage", advantage);
    bench::emitResult(result);

    std::cout << "\nExpected: the droop-aware schedule smooths each"
                 " pair's combined noise, so the controller sustains a"
                 " thinner margin (positive advantage of "
              << TextTable::num(100.0 * advantage, 3)
              << " points here) with fewer violations.\n";
    return 0;
}
