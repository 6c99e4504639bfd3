#include "bench_util.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "sim/lane_group.hh"

#ifndef VSMOOTH_GIT_DESCRIBE
#define VSMOOTH_GIT_DESCRIBE "unknown"
#endif

namespace vsmooth::bench {

RunResult
resultFrom(sim::System &sys)
{
    RunResult r;
    r.scope = sys.scope();
    r.emergencies =
        resilience::profileFromBank(sys.droopBank(), sys.cycles());
    r.stallRatio = sys.core(0).counters().stallRatio();
    r.ipc = sys.core(0).counters().ipc();
    if (sys.numCores() > 1)
        r.ipc += sys.core(1).counters().ipc();
    r.cycles = sys.cycles();
    return r;
}

namespace {

sim::System
makeSystem(double decapFraction)
{
    sim::SystemConfig cfg;
    cfg.package =
        pdn::PackageConfig::core2duo().withDecapFraction(decapFraction);
    cfg.osTickInterval = sim::kCompressedOsTick;
    return sim::System(cfg);
}

} // namespace

PreparedRun
prepareSingle(const workload::SpecBenchmark &bench, Cycles cycles,
              double decapFraction, std::uint64_t seed)
{
    PreparedRun p{makeSystem(decapFraction), cycles};
    p.sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(bench, cycles, true), seed + 1));
    p.sys.addCore(std::make_unique<cpu::FastCore>(
        workload::idleSchedule(1000), seed + 2));
    return p;
}

PreparedRun
preparePair(const workload::SpecBenchmark &a,
            const workload::SpecBenchmark &b, Cycles cycles,
            double decapFraction, std::uint64_t seed)
{
    PreparedRun p{makeSystem(decapFraction), cycles};
    p.sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(a, cycles, true), seed + 1));
    p.sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(b, cycles, true), seed + 2));
    return p;
}

PreparedRun
prepareParsec(const workload::ParsecBenchmark &bench, Cycles cycles,
              double decapFraction, std::uint64_t seed)
{
    // PARSEC schedules are finite; pad to the nominal length so run
    // weights stay comparable.
    PreparedRun p{makeSystem(decapFraction), cycles, true, cycles};
    p.sys.addCore(std::make_unique<cpu::FastCore>(
        workload::parsecThreadSchedule(bench, 0, cycles), seed + 1));
    p.sys.addCore(std::make_unique<cpu::FastCore>(
        workload::parsecThreadSchedule(bench, 1, cycles), seed + 2));
    return p;
}

void
runLanedSweep(
    std::size_t total,
    const std::function<PreparedRun(std::size_t)> &prepare,
    const std::function<void(std::size_t, sim::System &)> &extract)
{
    const std::size_t lanes = simd::defaultLaneWidth();
    const std::size_t nGroups = (total + lanes - 1) / lanes;
    parallelFor(0, nGroups, [&](std::size_t g) {
        const std::size_t begin = g * lanes;
        const std::size_t end = std::min(total, begin + lanes);
        std::vector<PreparedRun> prepared;
        prepared.reserve(end - begin);
        std::vector<sim::LanePlan> plans;
        plans.reserve(end - begin);
        for (std::size_t t = begin; t < end; ++t) {
            prepared.push_back(prepare(t));
            PreparedRun &p = prepared.back();
            sim::LanePlan plan;
            plan.system = &p.sys;
            plan.cycles = p.cycles;
            plan.untilFinished = p.untilFinished;
            plan.padTo = p.padTo;
            plans.push_back(plan);
        }
        sim::LaneGroup group(lanes);
        group.run(plans);
        for (std::size_t t = begin; t < end; ++t)
            extract(t, prepared[t - begin].sys);
    });
}

Population
runPopulation(Cycles cyclesPerRun, double decapFraction,
              std::uint64_t seed)
{
    Population pop;
    const auto &suite = workload::specCpu2006();
    const auto &parsec = workload::parsecSuite();
    const std::size_t nSingle = suite.size();
    const std::size_t nParsec = parsec.size();

    // Flat task list: singles, then PARSEC, then the unordered pairs,
    // in the historical serial order. Each task's seed derives from
    // its index (the same `s += 17` walk the serial loop produced),
    // so the population is bit-identical for any job count.
    std::vector<std::pair<std::size_t, std::size_t>> pairIdx;
    pairIdx.reserve(nSingle * (nSingle + 1) / 2);
    for (std::size_t i = 0; i < nSingle; ++i)
        for (std::size_t j = i; j < nSingle; ++j)
            pairIdx.emplace_back(i, j);
    const std::size_t total = nSingle + nParsec + pairIdx.size();
    auto seedFor = [seed](std::size_t t) {
        return seed + 17ULL * (t + 1);
    };

    std::vector<RunResult> results(total);
    std::vector<sim::SamplingReport> reports(total);
    runLanedSweep(
        total,
        [&](std::size_t t) {
            if (t < nSingle) {
                return prepareSingle(suite[t], cyclesPerRun,
                                     decapFraction, seedFor(t));
            }
            if (t < nSingle + nParsec) {
                return prepareParsec(parsec[t - nSingle], cyclesPerRun,
                                     decapFraction, seedFor(t));
            }
            const auto [i, j] = pairIdx[t - nSingle - nParsec];
            return preparePair(suite[i], suite[j], cyclesPerRun,
                               decapFraction, seedFor(t));
        },
        [&](std::size_t t, sim::System &sys) {
            results[t] = resultFrom(sys);
            reports[t] = sys.samplingReport();
        });

    // Merge after the join, in index order.
    for (const auto &r : results) {
        pop.scope.merge(r.scope);
        pop.emergencies.merge(r.emergencies);
        pop.tailFractions.push_back(r.scope.fractionBelow(-0.04));
        ++pop.runs;
    }
    for (const auto &rep : reports)
        pop.sampling.merge(rep);
    return pop;
}

Result
makeResult(std::string experiment, std::uint64_t seed)
{
    Result r(std::move(experiment));
    r.setSeed(seed);
    r.setJobs(numJobs());
    r.setGitDescribe(VSMOOTH_GIT_DESCRIBE);
    r.setSimd(simd::description());
    return r;
}

void
stampSampling(Result &r, const sim::SamplingReport &report,
              std::vector<std::pair<std::string, double>> bounds)
{
    if (!report.active)
        return;
    ResultSampling s;
    s.mode = "auto";
    s.simulatedFraction = report.simulatedFraction();
    s.bounds = std::move(bounds);
    r.setSampling(std::move(s));
}

void
emitResult(const Result &r)
{
    const char *dir = std::getenv("VSMOOTH_RESULT_DIR");
    if (!dir || !*dir)
        return;
    const std::string path =
        std::string(dir) + "/" + r.experiment() + ".json";
    std::ofstream out(path);
    if (!out)
        fatal("cannot write result file '%s'", path.c_str());
    r.toJson().write(out, 2);
    out << "\n";
    if (!out.good())
        fatal("error writing result file '%s'", path.c_str());
}

} // namespace vsmooth::bench
