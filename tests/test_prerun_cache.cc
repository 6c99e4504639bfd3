/**
 * @file
 * Tests for the pre-run cache the study binaries share between
 * processes: the one-file cache helper (common/fsio's loadOrBuild)
 * and the population record the characterization study keeps in it.
 * OracleMatrix's own record is tested with the rest of the scheduling
 * study (OracleMatrixCache.*).
 */

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_util.hh"
#include "common/fsio.hh"

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

/** Path of the cache file in a fresh, not yet created directory. */
fs::path
cacheFile(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("vsmooth_prerun_cache_" + name);
    if (fs::exists(dir))
        fs::permissions(dir, fs::perms::owner_all);
    fs::remove_all(dir);
    return dir / "study.cache";
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * Two populations with a non-default value in every field: samples
 * in range and on both sides of the scope's range, two watched
 * margins, and an active sampling report with distinct bounds.
 */
const std::vector<bench::Population> &
handBuilt()
{
    static const auto pops = [] {
        std::vector<bench::Population> v(2);
        for (std::size_t p = 0; p < v.size(); ++p) {
            auto &pop = v[p];
            const double shift = 0.001 * static_cast<double>(p);
            for (double x : {-0.31, -0.0213, -0.0213, 0.0, 0.0042, 0.17})
                pop.scope.record(x + shift);
            pop.runs = 475 + p;
            pop.emergencies.margins = {0.023, 0.04 + shift};
            pop.emergencies.counts = {1234 + p, 56};
            pop.emergencies.cycles = 150'000 * 475 + p;
            auto &r = pop.sampling;
            r.active = true;
            r.simulatedCycles = 1'000'003 + p;
            r.extrapolatedCycles = 2'999'997;
            r.skips = 42 + p;
            r.maxDroopBound = 0.0117 + shift;
            r.maxOvershootBound = 0.0031;
            r.eventCountBound = 829'000.5;
            r.deepestEventBound = 0.002;
            r.timelineElementBound = 1.0 / 3.0;
            r.coreInstructionBound = 7e9;
            r.coreStallCycleBound = 3.5e8;
            r.histFractionBound = 1e-7;
        }
        return v;
    }();
    return pops;
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

    const auto &ra = a.sampling;
    const auto &rb = b.sampling;
    EXPECT_EQ(ra.active, rb.active);
    EXPECT_EQ(ra.simulatedCycles, rb.simulatedCycles);
    EXPECT_EQ(ra.extrapolatedCycles, rb.extrapolatedCycles);
    EXPECT_EQ(ra.skips, rb.skips);
    const auto boundsA = ra.namedBounds();
    const auto boundsB = rb.namedBounds();
    ASSERT_EQ(boundsA.size(), boundsB.size());
    for (std::size_t k = 0; k < boundsA.size(); ++k)
        EXPECT_EQ(bits(boundsA[k].second), bits(boundsB[k].second))
            << boundsA[k].first;
}

std::string
saved(const std::vector<bench::Population> &pops, const std::string &key)
{
    std::ostringstream os;
    EXPECT_TRUE(bench::Population::save(os, key, pops));
    return os.str();
}

/** handBuilt() through the one-file cache `file` under key "k";
 *  `built` says whether the build step ran. */
std::vector<bench::Population>
cachedPopulations(const fs::path &file, CacheOutcome &outcome, bool &built)
{
    std::vector<bench::Population> pops;
    built = false;
    outcome = loadOrBuild(
        file.string(),
        [&](std::istream &is) {
            auto loaded = bench::Population::load(is, "k", 2);
            if (loaded)
                pops = std::move(*loaded);
            return loaded.has_value();
        },
        [&] {
            built = true;
            pops = handBuilt();
        },
        [&](std::ostream &os) {
            return bench::Population::save(os, "k", pops);
        });
    return pops;
}

} // namespace

TEST(PopulationCache, SaveLoadIsBitExact)
{
    const auto &pops = handBuilt();
    ASSERT_TRUE(pops[0].sampling.active);
    std::istringstream in(saved(pops, "key 1"));
    const auto loaded = bench::Population::load(in, "key 1", pops.size());
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), pops.size());
    for (std::size_t p = 0; p < pops.size(); ++p)
        expectSamePopulation(pops[p], (*loaded)[p]);
    EXPECT_EQ(saved(*loaded, "key 1"), saved(pops, "key 1"));
}

TEST(PopulationCache, DamagedOrForeignFileRebuildsAndOverwrites)
{
    const std::string good = saved(handBuilt(), "k");
    // The first population line follows the format, key and header
    // lines; its counts line follows that.
    std::size_t firstPopulation = 0;
    for (int line = 0; line < 3; ++line)
        firstPopulation = good.find('\n', firstPopulation) + 1;
    const std::size_t countsEnd =
        good.find('\n', good.find('\n', firstPopulation) + 1);
    std::string nonNumeric = good;
    nonNumeric.insert(firstPopulation + std::string("population ").size(),
                      "zz");
    std::string headerBins = good;
    const std::string bins =
        " bins " + std::to_string(noise::Scope().histogram().numBins());
    headerBins.replace(headerBins.find(bins), bins.size(), bins + "1");
    std::string extraCount = good;
    extraCount.insert(countsEnd, " 0");

    const std::vector<std::pair<const char *, std::string>> bad = {
        {"truncated", good.substr(0, good.size() / 2)},
        {"no end marker", good.substr(0, good.size() - 4)},
        {"different key", saved(handBuilt(), "other")},
        {"wrong bin count in header", headerBins},
        {"wrong bin count in counts line", extraCount},
        {"non-numeric token", nonNumeric},
        {"trailing data", good + "x\n"},
    };
    const fs::path file = cacheFile("damaged");
    for (const auto &[what, text] : bad) {
        SCOPED_TRACE(what);
        fs::create_directories(file.parent_path());
        fs::permissions(file.parent_path(), fs::perms::owner_all);
        std::ofstream(file, std::ios::binary) << text;
        CacheOutcome outcome = CacheOutcome::Hit;
        bool built = false;
        const auto pops = cachedPopulations(file, outcome, built);
        EXPECT_EQ(outcome, CacheOutcome::Miss);
        EXPECT_TRUE(built);
        ASSERT_EQ(pops.size(), 2u);
        EXPECT_EQ(slurp(file), good);
    }

    // The rewritten file is a hit that reads the populations back.
    CacheOutcome outcome = CacheOutcome::Miss;
    bool built = true;
    const auto hit = cachedPopulations(file, outcome, built);
    EXPECT_EQ(outcome, CacheOutcome::Hit);
    EXPECT_FALSE(built);
    ASSERT_EQ(hit.size(), 2u);
    for (std::size_t p = 0; p < hit.size(); ++p)
        expectSamePopulation(handBuilt()[p], hit[p]);
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
