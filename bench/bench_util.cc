#include "bench_util.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/fsio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "serve/cache.hh"
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

namespace {

/**
 * Run sweep indices [begin, end) on the calling thread in lane groups
 * of the default width (each group its own LaneGroup drain; solo runs
 * at width 1), handing each finished system to `extract` in index
 * order. Only one group's systems are alive at a time.
 */
void
runLanedRange(
    std::size_t begin, std::size_t end,
    const std::function<PreparedRun(std::size_t)> &prepare,
    const std::function<void(std::size_t, sim::System &)> &extract)
{
    sim::LaneGroup group;
    const std::size_t lanes = group.width();
    // Reserved once: the plans point into `prepared`.
    std::vector<PreparedRun> prepared;
    prepared.reserve(lanes);
    std::vector<sim::LanePlan> plans;
    plans.reserve(lanes);
    for (std::size_t first = begin; first < end; first += lanes) {
        const std::size_t last = std::min(end, first + lanes);
        prepared.clear();
        plans.clear();
        for (std::size_t t = first; t < last; ++t) {
            prepared.push_back(prepare(t));
            PreparedRun &p = prepared.back();
            sim::LanePlan plan;
            plan.system = &p.sys;
            plan.cycles = p.cycles;
            plan.untilFinished = p.untilFinished;
            plan.padTo = p.padTo;
            plans.push_back(plan);
        }
        group.run(plans);
        for (std::size_t t = first; t < last; ++t)
            extract(t, prepared[t - first].sys);
    }
}

/** Fold one finished run into a population. */
void
addRun(Population &pop, sim::System &sys)
{
    pop.scope.merge(sys.scope());
    pop.emergencies.merge(
        resilience::profileFromBank(sys.droopBank(), sys.cycles()));
    ++pop.runs;
}

/** Fold another population's runs into `pop`, as if run after it. */
void
addPopulation(Population &pop, const Population &more)
{
    pop.scope.merge(more.scope);
    pop.emergencies.merge(more.emergencies);
    pop.runs += more.runs;
}

} // namespace

void
runLanedSweep(
    std::size_t total,
    const std::function<PreparedRun(std::size_t)> &prepare,
    const std::function<void(std::size_t, sim::System &)> &extract)
{
    const std::size_t lanes = simd::defaultLaneWidth();
    const std::size_t nGroups = (total + lanes - 1) / lanes;
    parallelFor(0, nGroups, [&](std::size_t g) {
        runLanedRange(g * lanes, std::min(total, (g + 1) * lanes),
                      prepare, extract);
    });
}

Population
runPopulation(Cycles cyclesPerRun, double decapFraction,
              std::uint64_t seed)
{
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
    auto prepare = [&](std::size_t t) {
        if (t < nSingle) {
            return prepareSingle(suite[t], cyclesPerRun, decapFraction,
                                 seedFor(t));
        }
        if (t < nSingle + nParsec) {
            return prepareParsec(parsec[t - nSingle], cyclesPerRun,
                                 decapFraction, seedFor(t));
        }
        const auto [i, j] = pairIdx[t - nSingle - nParsec];
        return preparePair(suite[i], suite[j], cyclesPerRun,
                           decapFraction, seedFor(t));
    };

    // Like the oscilloscope's histogram mode, every run folds into its
    // chunk's population as it finishes, and the chunks merge in
    // order after the join: the same bits as one index-order merge,
    // with one scope per chunk alive instead of one per run.
    return parallelFold(
        total, Population{},
        [&](std::size_t begin, std::size_t end, Population &part) {
            runLanedRange(begin, end, prepare,
                          [&](std::size_t, sim::System &sys) {
                              addRun(part, sys);
                          });
        },
        addPopulation);
}

namespace {

/**
 * FNV-1a digest of this executable's bytes. Each 64 KiB chunk is
 * hashed, then the chunk digests, so the file is never held in memory
 * whole. Empty when the executable cannot be read.
 */
std::string
executableHash()
{
    std::ifstream in("/proc/self/exe", std::ios::binary);
    std::vector<char> chunk(64 * 1024);
    std::string digests;
    while (in) {
        in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        digests += serve::fnv1aHex(
            {chunk.data(), static_cast<std::size_t>(in.gcount())});
    }
    if (in.bad() || digests.empty())
        return {};
    return serve::fnv1aHex(digests);
}

/**
 * The study cache key: the executable hash (it fixes the model and
 * every study config) plus the execution path the Results claim.
 * Empty when the executable cannot be hashed.
 */
std::string
cacheKey()
{
    const std::string exe = executableHash();
    if (exe.empty())
        return {};
    auto env = [](const char *name) {
        const char *v = std::getenv(name);
        return std::string(v ? v : "");
    };
    return "exe=" + exe + " simd=" + simd::description() +
        " jobs=" + std::to_string(numJobs()) +
        " scalar_tick=" + env("VSMOOTH_SCALAR_TICK");
}

/** <temp dir>/vsmooth-<uid>/<study>.cache; empty without a temp dir. */
std::string
cachePath(const std::string &study)
{
    std::error_code ec;
    const auto tmp = std::filesystem::temp_directory_path(ec);
    if (ec)
        return {};
    return (tmp / ("vsmooth-" + std::to_string(::geteuid())) /
            (study + ".cache"))
        .string();
}

constexpr std::string_view kStudyFormat = "vsmooth-study-output 1";

/** The text of `r`'s Result file. */
std::string
resultFileText(const Result &r)
{
    std::ostringstream os;
    r.toJson().write(os, 2);
    os << "\n";
    return os.str();
}

/**
 * Write `text` to $VSMOOTH_RESULT_DIR/<experiment>.json; with the
 * variable unset no file is written. Every Result file, emitted or
 * replayed, is written here.
 */
void
writeResultFile(const std::string &experiment, const std::string &text)
{
    const char *dir = std::getenv("VSMOOTH_RESULT_DIR");
    if (!dir || !*dir)
        return;
    const std::string path = std::string(dir) + "/" + experiment + ".json";
    std::ofstream out(path);
    if (!out)
        fatal("cannot write result file '%s'", path.c_str());
    out << text;
    if (!out.good())
        fatal("error writing result file '%s'", path.c_str());
}

/**
 * Run `run` with std::cout captured (and restored, even if it
 * throws), and record under `key` what it printed and each Result's
 * experiment name and file text.
 */
Json
runAndRecord(const std::string &key,
             const std::function<std::vector<Result>()> &run)
{
    std::ostringstream captured;
    std::vector<Result> results;
    {
        struct Redirect
        {
            std::streambuf *saved;
            ~Redirect() { std::cout.rdbuf(saved); }
        } redirect{std::cout.rdbuf(captured.rdbuf())};
        results = run();
    }
    Json files = Json::array();
    for (const Result &r : results) {
        Json file = Json::object();
        file.set("experiment", r.experiment());
        file.set("file", resultFileText(r));
        files.push(std::move(file));
    }
    Json record = Json::object();
    record.set("format", std::string(kStudyFormat));
    record.set("key", key);
    record.set("stdout", captured.str());
    record.set("results", std::move(files));
    return record;
}

/** Whether `record` is a whole study record written under `key`. */
bool
isStudyRecord(const Json &record, const std::string &key)
{
    auto text = [](const Json &j, std::string_view name,
                   std::optional<std::string_view> value = {}) {
        const Json *v = j.find(name);
        return v && v->isString() && (!value || v->asString() == *value);
    };
    const Json *results = record.find("results");
    return text(record, "format", kStudyFormat) &&
        text(record, "key", key) && text(record, "stdout") && results &&
        results->isArray() &&
        std::all_of(results->asArray().begin(), results->asArray().end(),
                    [&](const Json &r) {
                        return text(r, "experiment") && text(r, "file");
                    });
}

} // namespace

void
cachedStudy(const std::string &study,
            const std::function<std::vector<Result>()> &run)
{
    const std::string path = cachePath(study);
    const std::string key = cacheKey();
    Json record;
    auto build = [&] { record = runAndRecord(key, run); };
    if (path.empty() || key.empty()) {
        inform("%s: no usable output cache; running", study.c_str());
        build();
    } else {
        const CacheOutcome outcome = loadOrBuild(
            path,
            [&](std::istream &is) {
                record = Json::parse(
                    std::string(std::istreambuf_iterator<char>(is), {}));
                return isStudyRecord(record, key);
            },
            build,
            [&](std::ostream &os) {
                record.write(os);
                os << "\n";
                return os.good();
            });
        switch (outcome) {
          case CacheOutcome::Hit:
            inform("%s: output replayed from %s", study.c_str(),
                   path.c_str());
            break;
          case CacheOutcome::Miss:
            inform("%s: ran; output saved to %s", study.c_str(),
                   path.c_str());
            break;
          case CacheOutcome::Unusable:
            inform("%s: ran; cache %s not usable", study.c_str(),
                   path.c_str());
            break;
        }
    }
    std::cout << record.at("stdout").asString() << std::flush;
    for (const Json &r : record.at("results").asArray())
        writeResultFile(r.at("experiment").asString(),
                        r.at("file").asString());
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
emitResult(const Result &r)
{
    writeResultFile(r.experiment(), resultFileText(r));
}

} // namespace vsmooth::bench
