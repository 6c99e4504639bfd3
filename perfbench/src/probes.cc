#include "probes.hh"

#include <iostream>
#include <memory>
#include <thread>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "cpu/detailed_core.hh"
#include "cpu/fast_core.hh"
#include "sched/oracle_matrix.hh"
#include "sched/policy.hh"
#include "serve/batch.hh"
#include "serve/cache.hh"
#include "serve_session.hh"
#include "sim/calibration.hh"
#include "stage_replay.hh"
#include "stats.hh"
#include "trace.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

namespace perfbench {

using namespace vsmooth;

namespace {

constexpr int kReps = 3;

/** Keeps timed results observable so the calls are not elided. */
volatile double g_sink = 0.0;

/** Median wall seconds of `reps` calls of fn(). */
template <class Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> s;
    for (int r = 0; r < reps; ++r) {
        const double t = nowSec();
        fn();
        s.push_back(nowSec() - t);
    }
    return median(s);
}

sched::OracleConfig
proc3Config(Cycles cycles)
{
    sched::OracleConfig cfg;
    cfg.system.package =
        pdn::PackageConfig::core2duo().withDecapFraction(0.03);
    cfg.cyclesPerPair = cycles;
    cfg.droopMargin = sim::kProc3DroopMargin;
    return cfg;
}

/** Stage rows from the solo and laned replays, plus the simulator's
 *  own solo and LaneGroup timings on the same scenarios. Each replay
 *  times one stage; a stage's row is the median over kReps replays. */
void
probeStages(const std::string &workload, Json &m, Json &split)
{
    const std::size_t lanes = simd::defaultLaneWidth();
    constexpr Cycles kCycles = 100'000;
    const auto scenarios = sampleScenarios(workload, lanes, kCycles);
    const double cyc = static_cast<double>(lanes * kCycles);
    const Stage soloStages[] = {Stage::Core, Stage::Steady, Stage::Sum,
                                Stage::Pdn,  Stage::Scope,  Stage::Bank,
                                Stage::Timeline};
    const Stage lanedStages[] = {Stage::Core, Stage::Steady, Stage::Lane,
                                 Stage::Scope, Stage::Bank};
    std::vector<StageTimes> solo, laned;
    std::vector<double> soloS, groupS;
    for (int r = 0; r < kReps; ++r) {
        for (Stage st : soloStages)
            solo.push_back(replaySolo(scenarios, st).times);
        for (Stage st : lanedStages)
            laned.push_back(replayLaned(scenarios, st).times);
        double s = 0.0;
        systemFingerprints(scenarios, false, &s);
        soloS.push_back(s);
        systemFingerprints(scenarios, true, &s);
        groupS.push_back(s);
    }
    // Median over the replays that timed the field (the others read 0;
    // a field no replay timed gives 0).
    auto med = [&](const std::vector<StageTimes> &v,
                   double StageTimes::*field) {
        std::vector<double> xs;
        for (const auto &t : v)
            if (t.*field > 0.0)
                xs.push_back(t.*field);
        return median(xs) / cyc;
    };
    auto sum = [&](const std::vector<StageTimes> &v) {
        double total = 0.0;
        for (auto f : {&StageTimes::core, &StageTimes::steady,
                       &StageTimes::sum, &StageTimes::pdn,
                       &StageTimes::lane, &StageTimes::scope,
                       &StageTimes::bank})
            total += med(v, f);
        return total;
    };
    const double soloNs = median(soloS) * 1e9 / cyc;
    const double groupNs = median(groupS) * 1e9 / cyc;
    const double lanedSum = sum(laned);

    m.set("sim.solo_ns_per_cyc", soloNs);
    m.set("sim.lanegroup_ns_per_lane_cyc", groupNs);
    m.set("sim.lane_overhead_ns_per_lane_cyc", groupNs - lanedSum);
    m.set("cpu.fastcore_tickblock_ns_per_cyc",
          med(solo, &StageTimes::core));
    m.set("power.steady_block_ns_per_cyc", med(solo, &StageTimes::steady));
    m.set("dsp.sum_columns_ns_per_cyc", med(solo, &StageTimes::sum));
    m.set("pdn.step_block_ns_per_cyc", med(solo, &StageTimes::pdn));
    m.set("dsp.lane_step_ns_per_lane_cyc", med(laned, &StageTimes::lane));
    m.set("noise.scope_record_ns_per_cyc", med(solo, &StageTimes::scope));
    m.set("noise.bank_feed_ns_per_cyc", med(solo, &StageTimes::bank));
    m.set("noise.timeline_feed_ns_per_cyc",
          med(solo, &StageTimes::timeline));

    // The laned split as shares of LaneGroup::run, beside ROADMAP's
    // gprof split of BM_PopulationLaned; the solo stage sum beside
    // System::run.
    split.set("base", "LaneGroup::run ns per lane-cycle");
    split.set("lanegroup_ns_per_lane_cyc", groupNs);
    split.set("fastcore", med(laned, &StageTimes::core) / groupNs);
    split.set("steady", med(laned, &StageTimes::steady) / groupNs);
    split.set("lane_kernel", med(laned, &StageTimes::lane) / groupNs);
    split.set("scope_addblock", med(laned, &StageTimes::scope) / groupNs);
    split.set("bank_feed", med(laned, &StageTimes::bank) / groupNs);
    split.set("gather_scatter_residual", (groupNs - lanedSum) / groupNs);
    split.set("solo_ns_per_cyc", soloNs);
    split.set("solo_stage_sum_ns_per_cyc", sum(solo));
    split.set("solo_residual_ns_per_cyc", soloNs - sum(solo));
    split.set("lanes", Json(static_cast<std::uint64_t>(lanes)));
    split.set("simd", simd::description());
}

void
probeSched(Json &m)
{
    // Oracle cells: a fixed 4-benchmark subset of the Proc3 matrix
    // (4 singles + 10 pairs at 800k cycles).
    const auto &suite = workload::specCpu2006();
    const std::vector<workload::SpecBenchmark> subset = {
        suite[0], suite[7], suite[14], suite[21]};
    const auto cfg = proc3Config(800'000);
    const double s = medianSeconds(2, [&] {
        const sched::OracleMatrix matrix(subset, cfg);
    });
    m.set("sched.oracle_cell_ms", s * 1e3 / 14.0);

    // fig18's policy set on a full 29x29 matrix (short runs: only the
    // profile values matter to the policies, not their length).
    const sched::OracleMatrix matrix(suite, proc3Config(2'000));
    std::vector<std::size_t> pool;
    for (std::size_t c = 0; c < 4; ++c)
        for (std::size_t i = 0; i < matrix.size(); ++i)
            pool.push_back(i);
    const double p = medianSeconds(5, [&] {
        Rng rng(2026);
        for (int k = 0; k < 100; ++k)
            sched::normalizeAgainstSpecRate(
                sched::evaluateSchedule(
                    sched::buildSchedule(pool, matrix,
                                         sched::PolicyKind::Random, rng),
                    matrix),
                matrix);
        for (auto kind : {sched::PolicyKind::Ipc, sched::PolicyKind::Droop})
            sched::evaluateSchedule(
                sched::buildSchedule(pool, matrix, kind, rng), matrix);
        for (double n : {0.25, 0.5, 1.0, 2.0, 4.0})
            sched::evaluateSchedule(
                sched::buildSchedule(pool, matrix,
                                     sched::PolicyKind::IpcOverDroopN, rng,
                                     n),
                matrix);
    });
    m.set("sched.policy_eval_ms", p * 1e3);
}

void
probeParallel(Json &m, Json &bases)
{
    const auto &suite = workload::specCpu2006();
    constexpr std::size_t kRuns = 128;
    auto sweep = [&] {
        bench::runLanedSweep(
            kRuns,
            [&](std::size_t t) {
                return bench::preparePair(suite[t % suite.size()],
                                          suite[(t * 7 + 3) % suite.size()],
                                          100'000, 0.03, 1 + 17 * t);
            },
            [](std::size_t, sim::System &) {});
    };
    const std::size_t n =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    setJobs(1);
    const double t1 = medianSeconds(2, sweep);
    setJobs(n);
    const double tn = medianSeconds(2, sweep);
    setJobs(1);
    m.set("common.parallel_efficiency",
          t1 / (tn * static_cast<double>(n)));
    bases.set("common.parallel_efficiency",
              "runLanedSweep of 128 Proc3 pairs x 100k cycles: jobs=1 " +
                  std::to_string(t1) + " s vs jobs=" + std::to_string(n) +
                  " " + std::to_string(tn) + " s, divided by " +
                  std::to_string(n));
}

void
probePerCycle(Json &m)
{
    // The per-cycle feedback configs of ablation_mitigations and
    // adaptive_margin: these never take the block pipeline.
    constexpr Cycles kCycles = 200'000;
    std::vector<sim::SystemConfig> cfgs;
    {
        sim::SystemConfig cfg;
        cfg.emergencyMargin = 0.04;
        cfg.recoveryCostCycles = 600;
        cfg.enableEmergencyPredictor = true;
        cfg.enableResonanceDamper = true;
        cfg.damperParams.triggerAmplitude = 0.022;
        cfg.throttleFactor = 0.75;
        cfgs.push_back(cfg);
    }
    {
        sim::SystemConfig cfg;
        cfg.osTickInterval = 0;
        cfg.enableMarginController = true;
        cfg.marginControllerParams.updateInterval = 5'000;
        cfg.recoveryCostCycles = 600;
        cfgs.push_back(cfg);
    }
    double total = 0.0;
    for (const auto &cfg : cfgs) {
        sim::System sys(cfg);
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(workload::specByName("sphinx"), kCycles,
                                  true),
            3));
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(workload::specByName("mcf"), kCycles,
                                  true),
            4));
        const double t = nowSec();
        sys.run(kCycles);
        total += nowSec() - t;
    }
    m.set("sim.percycle_ns_per_cyc",
          total * 1e9 / static_cast<double>(kCycles * cfgs.size()));

    // DetailedCore on fig11/fig12's microbenchmark streams.
    constexpr int kTicks = 50'000;
    double detailed = 0.0;
    int kinds = 0;
    for (auto kind : {workload::MicrobenchKind::PowerVirus,
                      workload::MicrobenchKind::L1Miss,
                      workload::MicrobenchKind::L2Miss,
                      workload::MicrobenchKind::TlbMiss,
                      workload::MicrobenchKind::BranchMispredict,
                      workload::MicrobenchKind::Exception}) {
        auto stream = workload::makeMicrobenchmark(kind, 7);
        cpu::DetailedCore core(cpu::DetailedCoreParams{}, *stream);
        const double t = nowSec();
        double sink = 0.0;
        for (int k = 0; k < kTicks; ++k)
            sink += core.tick();
        detailed += nowSec() - t;
        ++kinds;
        g_sink = g_sink + sink;
    }
    m.set("cpu.detailed_tick_ns_per_cyc",
          detailed * 1e9 / static_cast<double>(kTicks * kinds));
}

void
probeServe(std::uint64_t seed, Json &m)
{
    const ServeSchedule schedule = makeServeSchedule(seed, 870);
    std::vector<serve::BatchItem> parsed(schedule.items.size());
    for (std::size_t k = 0; k < schedule.items.size(); ++k)
        serve::BatchItem::fromJson(Json::parse(schedule.items[k].json),
                                   parsed[k], nullptr);

    // runBatchItem on every 29th cell of the schedule.
    constexpr std::size_t kCells = 30;
    std::vector<double> runMs;
    std::vector<Result> results;
    for (std::size_t k = 0; k < kCells; ++k) {
        const double t = nowSec();
        results.push_back(
            serve::runBatchItem(parsed[k * parsed.size() / kCells]));
        runMs.push_back((nowSec() - t) * 1e3);
    }
    m.set("serve.run_batch_item_ms", median(runMs));

    std::vector<std::string> payloads;
    const double ser = medianSeconds(kReps, [&] {
        payloads.clear();
        for (int r = 0; r < 20; ++r)
            for (const auto &res : results)
                payloads.push_back(serve::serializeResult(res));
    });
    m.set("serve.serialize_result_us",
          ser * 1e6 / static_cast<double>(20 * kCells));

    // Per-item key path the daemon runs on every request.
    std::vector<Json> itemJson;
    for (const auto &slot : schedule.slots)
        itemJson.push_back(Json::parse(schedule.items[slot.item].json));
    const double key = medianSeconds(kReps, [&] {
        for (const Json &j : itemJson) {
            serve::BatchItem item;
            serve::BatchItem::fromJson(j, item, nullptr);
            serve::fnv1aHex(item.canonicalKey());
        }
    });
    m.set("serve.item_key_us",
          key * 1e6 / static_cast<double>(itemJson.size()));

    // Cache filled to the schedule's size with real payload bytes.
    std::vector<double> insertUs, lookupUs;
    for (int r = 0; r < kReps; ++r) {
        serve::ResultCache cache(std::size_t{64} << 20);
        double t = nowSec();
        for (std::size_t k = 0; k < parsed.size(); ++k)
            cache.insert(parsed[k].canonicalKey(),
                         payloads[k % payloads.size()]);
        insertUs.push_back((nowSec() - t) * 1e6 /
                           static_cast<double>(parsed.size()));
        std::string out;
        std::size_t hits = 0;
        t = nowSec();
        for (const auto &slot : schedule.slots)
            if (slot.hit)
                hits += cache.lookup(parsed[slot.item].canonicalKey(), &out);
        lookupUs.push_back((nowSec() - t) * 1e6 /
                           static_cast<double>(hits ? hits : 1));
    }
    m.set("serve.cache_insert_us", median(insertUs));
    m.set("serve.cache_lookup_us", median(lookupUs));
}

} // namespace

int
runProbes(const std::string &workload, std::uint64_t seed)
{
    setJobs(1);
    Json m = Json::object();
    Json split = Json::object();
    Json bases = Json::object();

    // Identity first: the stage rows below mean something only if the
    // replay runs the simulator's real arithmetic.
    const auto idScen =
        sampleScenarios(workload, simd::defaultLaneWidth(), 50'000);
    const bool soloOk = replaySolo(idScen, Stage::None).fingerprints ==
                        systemFingerprints(idScen, false, nullptr);
    const bool lanedOk = replayLaned(idScen, Stage::None).fingerprints ==
                         systemFingerprints(idScen, true, nullptr);

    probeStages(workload, m, split);
    probeSched(m);
    probeParallel(m, bases);
    probePerCycle(m);
    probeServe(seed, m);

    Json identity = Json::object();
    identity.set("solo", soloOk);
    identity.set("laned", lanedOk);
    identity.set("scenarios",
                 Json(static_cast<std::uint64_t>(idScen.size())));
    identity.set("cycles", Json(static_cast<std::uint64_t>(50'000)));
    Json out = Json::object();
    out.set("identity_ok", soloOk && lanedOk);
    out.set("identity", identity);
    out.set("metrics", m);
    out.set("split", split);
    out.set("bases", bases);
    std::cout << out.dump() << "\n";
    return soloOk && lanedOk ? 0 : 1;
}

} // namespace perfbench
