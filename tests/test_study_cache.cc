/**
 * @file
 * Tests for the output cache the study binaries share between
 * processes: bench::cachedStudy, which keeps a study's printed bytes
 * and Result files in one JSON record and replays them, the one-file
 * cache helper under it (common/fsio's loadOrBuild), and the
 * populations the characterization study runs, which must be the same
 * bits at every lane width and job count.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench_util.hh"
#include "common/fsio.hh"
#include "common/json.hh"
#include "common/parallel.hh"

using namespace vsmooth;

namespace fs = std::filesystem;

namespace {

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A fresh, not yet created directory under the test temp dir. */
fs::path
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("vsmooth_study_cache_" + name);
    if (fs::exists(dir))
        fs::permissions(dir, fs::perms::owner_all);
    fs::remove_all(dir);
    return dir;
}

/** Path of the cache file in a fresh, not yet created directory. */
fs::path
cacheFile(const std::string &name)
{
    return freshDir(name) / "study.cache";
}

/** Set (or, for nullptr, unset) an environment variable for one
 *  scope, then put back what was there. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        set(value);
    }
    ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }

  private:
    void
    set(const char *value)
    {
        if (value)
            ::setenv(name_, value, 1);
        else
            ::unsetenv(name_);
    }

    const char *name_;
    std::optional<std::string> saved_;
};

/** What one cachedStudy call printed and wrote. */
struct StudyRun
{
    std::string printed;
    std::string fileA;
    std::string fileB;
};

/**
 * A small study whose output needs every kind of JSON string escape:
 * quotes, a backslash, a tab, a control byte and UTF-8. `runs` counts
 * the calls that actually ran it.
 */
std::vector<Result>
toyStudy(int &runs)
{
    ++runs;
    std::cout << "Toy table: \"q\" \\ \t\x01 \xc2\xb1 4 %\n";
    std::cout << "last line, no newline";
    Result a = bench::makeResult("toy_a");
    a.metric("droops_per_1k", 0.1);
    a.seriesPoint("cdf", 1.0 / 3.0);
    Result b = bench::makeResult("toy_b");
    b.metricCount("runs", 475);
    return {a, b};
}

/** cachedStudy("toy_study") in the current TMPDIR, with stdout and the
 *  Result files captured under `dir`. */
StudyRun
runToy(const fs::path &dir, int &runs)
{
    const fs::path results = dir / "results";
    fs::remove_all(results);
    fs::create_directories(results);
    ScopedEnv resultDir("VSMOOTH_RESULT_DIR", results.c_str());
    std::ostringstream captured;
    std::streambuf *saved = std::cout.rdbuf(captured.rdbuf());
    bench::cachedStudy("toy_study", [&] { return toyStudy(runs); });
    std::cout.rdbuf(saved);
    return {captured.str(), slurp(results / "toy_a.json"),
            slurp(results / "toy_b.json")};
}

/** Where cachedStudy keeps `study`'s record under temp dir `tmp`. */
fs::path
recordFile(const fs::path &tmp, const std::string &study)
{
    return tmp / ("vsmooth-" + std::to_string(::geteuid())) /
        (study + ".cache");
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Every field identical, doubles compared by bit pattern. */
void
expectSamePopulation(const bench::Population &a, const bench::Population &b)
{
    EXPECT_EQ(a.runs, b.runs);
    const Histogram &ha = a.scope.histogram();
    const Histogram &hb = b.scope.histogram();
    EXPECT_EQ(ha.totalCount(), hb.totalCount());
    EXPECT_EQ(ha.underflowCount(), hb.underflowCount());
    EXPECT_EQ(ha.overflowCount(), hb.overflowCount());
    EXPECT_EQ(bits(ha.minSample()), bits(hb.minSample()));
    EXPECT_EQ(bits(ha.maxSample()), bits(hb.maxSample()));
    ASSERT_EQ(ha.numBins(), hb.numBins());
    for (std::size_t i = 0; i < ha.numBins(); ++i)
        EXPECT_EQ(ha.binCount(i), hb.binCount(i)) << "bin " << i;

    EXPECT_EQ(a.emergencies.cycles, b.emergencies.cycles);
    EXPECT_EQ(a.emergencies.counts, b.emergencies.counts);
    ASSERT_EQ(a.emergencies.margins.size(), b.emergencies.margins.size());
    for (std::size_t k = 0; k < a.emergencies.margins.size(); ++k)
        EXPECT_EQ(bits(a.emergencies.margins[k]),
                  bits(b.emergencies.margins[k]));
}

} // namespace

TEST(StudyCache, MissRunsThenHitReplaysTheSameBytes)
{
    const fs::path dir = freshDir("miss_hit");
    fs::create_directories(dir);
    ScopedEnv tmpdir("TMPDIR", dir.c_str());
    int runs = 0;

    const StudyRun cold = runToy(dir, runs);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(cold.printed, "Toy table: \"q\" \\ \t\x01 \xc2\xb1 4 %\n"
                            "last line, no newline");
    // The Result files are what emitResult writes for the same Results.
    int direct = 0;
    const auto results = toyStudy(direct);
    const fs::path emitted = dir / "emitted";
    fs::create_directories(emitted);
    {
        ScopedEnv resultDir("VSMOOTH_RESULT_DIR", emitted.c_str());
        for (const Result &r : results)
            bench::emitResult(r);
    }
    EXPECT_EQ(cold.fileA, slurp(emitted / "toy_a.json"));
    EXPECT_EQ(cold.fileB, slurp(emitted / "toy_b.json"));
    const fs::path record = recordFile(dir, "toy_study");
    ASSERT_TRUE(fs::exists(record));
    EXPECT_EQ(fs::status(record.parent_path()).permissions() &
                  (fs::perms::group_all | fs::perms::others_all),
              fs::perms::none);

    const StudyRun warm = runToy(dir, runs);
    EXPECT_EQ(runs, 1) << "a hit must not run the study";
    EXPECT_EQ(warm.printed, cold.printed);
    EXPECT_EQ(warm.fileA, cold.fileA);
    EXPECT_EQ(warm.fileB, cold.fileB);

    // A study that throws leaves std::cout as it was and saves nothing.
    std::ostringstream outer;
    std::streambuf *saved = std::cout.rdbuf(outer.rdbuf());
    EXPECT_THROW(bench::cachedStudy("throwing_study",
                                    []() -> std::vector<Result> {
                                        std::cout << "partial";
                                        throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
    EXPECT_EQ(std::cout.rdbuf(), outer.rdbuf());
    std::cout.rdbuf(saved);
    EXPECT_EQ(outer.str(), "");
    EXPECT_FALSE(fs::exists(recordFile(dir, "throwing_study")));
}

TEST(StudyCache, DamagedOrForeignRecordRebuildsAndOverwrites)
{
    const fs::path dir = freshDir("damaged");
    fs::create_directories(dir);
    ScopedEnv tmpdir("TMPDIR", dir.c_str());
    int runs = 0;
    const StudyRun cold = runToy(dir, runs);
    const fs::path record = recordFile(dir, "toy_study");
    const std::string good = slurp(record);
    ASSERT_FALSE(good.empty());

    auto with = [&](const char *member, const std::string &value) {
        Json j = Json::parse(good);
        EXPECT_TRUE(j.contains(member));
        j.set(member, value);
        return j.dump() + "\n";
    };
    const std::string key = Json::parse(good).at("key").asString();
    const std::vector<std::pair<const char *, std::string>> bad = {
        {"truncated", good.substr(0, good.size() / 2)},
        {"another key", with("key", key + " scalar_tick=1")},
        {"wrong format tag", with("format", "vsmooth-study-output 0")},
        {"trailing bytes", good + "x\n"},
        {"a pre-run in the old line format",
         "vsmooth-population 1\nkey " + key + "\nend\n"},
    };
    for (const auto &[what, text] : bad) {
        SCOPED_TRACE(what);
        std::ofstream(record, std::ios::binary) << text;
        const int before = runs;
        const StudyRun rebuilt = runToy(dir, runs);
        EXPECT_EQ(runs, before + 1) << "a bad record must be a miss";
        EXPECT_EQ(rebuilt.printed, cold.printed);
        EXPECT_EQ(rebuilt.fileA, cold.fileA);
        EXPECT_EQ(rebuilt.fileB, cold.fileB);
        EXPECT_EQ(slurp(record), good);
    }

    // The rewritten record is a hit.
    const int before = runs;
    const StudyRun hit = runToy(dir, runs);
    EXPECT_EQ(runs, before);
    EXPECT_EQ(hit.printed, cold.printed);
}

TEST(Population, IdenticalAcrossLanesAndJobs)
{
    // The fold's chunks depend on the run count alone, so a population
    // is the same bits at every lane width and job count.
    std::optional<bench::Population> first;
    for (const char *lanes : {"1", "3", "8"}) {
        for (std::size_t jobs : {1, 4}) {
            SCOPED_TRACE(std::string("lanes ") + lanes + ", jobs " +
                         std::to_string(jobs));
            ScopedEnv laneWidth("VSMOOTH_LANES", lanes);
            setJobs(jobs);
            const bench::Population pop =
                bench::runPopulation(2'000, 0.25, 7);
            if (first)
                expectSamePopulation(*first, pop);
            else
                first = pop;
        }
    }
    setJobs(0);
    ASSERT_TRUE(first.has_value());
    // Every run folded in once: singles, PARSEC, unordered pairs.
    const std::size_t n = workload::specCpu2006().size();
    EXPECT_EQ(first->runs,
              n + workload::parsecSuite().size() + n * (n + 1) / 2);
    EXPECT_GT(first->scope.histogram().totalCount(), 0u);
    EXPECT_FALSE(first->emergencies.margins.empty());
}

TEST(LoadOrBuild, UnsafeOrUnwritableDirectoryIsNotUsed)
{
    // A one-line value; `load` would accept the foreign file, so a
    // read would show as a Hit.
    std::string value;
    int loads = 0;
    auto cached = [&](const fs::path &file) {
        value.clear();
        return loadOrBuild(
            file.string(),
            [&](std::istream &is) {
                ++loads;
                return static_cast<bool>(std::getline(is, value));
            },
            [&] { value = "built"; },
            [&](std::ostream &os) { return static_cast<bool>(os << value); });
    };

    const std::vector<std::pair<const char *, fs::perms>> modes = {
        {"group-writable", fs::perms::owner_all | fs::perms::group_write},
        {"other-writable", fs::perms::owner_all | fs::perms::others_write},
        {"unwritable", fs::perms::owner_read | fs::perms::owner_exec},
    };
    for (const auto &[what, mode] : modes) {
        SCOPED_TRACE(what);
        const fs::path file = cacheFile(std::string("unsafe_") + what);
        fs::create_directories(file.parent_path());
        std::ofstream(file, std::ios::binary) << "foreign";
        fs::permissions(file.parent_path(), mode);
        EXPECT_EQ(cached(file), CacheOutcome::Unusable);
        EXPECT_EQ(value, "built");
        // Neither read nor overwritten.
        EXPECT_EQ(loads, 0);
        EXPECT_EQ(slurp(file), "foreign");
        fs::permissions(file.parent_path(), fs::perms::owner_all);
    }

    // A directory that cannot be created is no error either.
    const fs::path blocked = cacheFile("blocked");
    fs::create_directories(blocked.parent_path());
    std::ofstream(blocked) << "a file, not a directory";
    EXPECT_EQ(cached(blocked / "study.cache"), CacheOutcome::Unusable);
    EXPECT_EQ(value, "built");
}
