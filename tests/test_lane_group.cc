/**
 * @file
 * Differential tests of the scenario-lane engine: any mix of plans
 * drained through a LaneGroup must leave every System bit-identical
 * to running the same plan standalone — at every lane width, at every
 * SIMD dispatch level the host supports, through retirement/refill,
 * and across lanes whose OS-tick and trace boundaries disagree.
 * Everything is compared exactly (no tolerances).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "common/simd.hh"
#include "cpu/fast_core.hh"
#include "sim/lane_group.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;
using namespace vsmooth::sim;

namespace {

std::unique_ptr<cpu::FastCore>
benchCore(const char *name, std::uint64_t seed, bool loop,
          Cycles baseLength = 9'000)
{
    return std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName(name), baseLength,
                              loop),
        seed);
}

/** One scenario: a config, cores, and a run shape. */
struct Scenario
{
    SystemConfig cfg;
    std::size_t nCores = 2;
    bool loop = true;
    std::uint64_t seed = 100;
    Cycles cycles = 20'000;
    bool untilFinished = false;
    Cycles padTo = 0;
};

std::unique_ptr<System>
buildSystem(const Scenario &sc)
{
    static const char *const kNames[] = {"sphinx", "mcf", "hmmer",
                                         "bzip2"};
    auto sys = std::make_unique<System>(sc.cfg);
    for (std::size_t i = 0; i < sc.nCores; ++i)
        sys->addCore(benchCore(kNames[i % 4], sc.seed + i, sc.loop));
    return sys;
}

void
expectHistogramsIdentical(const Histogram &a, const Histogram &b)
{
    ASSERT_EQ(a.numBins(), b.numBins());
    EXPECT_EQ(a.totalCount(), b.totalCount());
    EXPECT_EQ(a.underflowCount(), b.underflowCount());
    EXPECT_EQ(a.overflowCount(), b.overflowCount());
    EXPECT_EQ(a.minSample(), b.minSample());
    EXPECT_EQ(a.maxSample(), b.maxSample());
    for (std::size_t i = 0; i < a.numBins(); ++i)
        EXPECT_EQ(a.binCount(i), b.binCount(i)) << "bin " << i;
}

void
expectSystemsIdentical(System &laned, System &solo)
{
    EXPECT_EQ(laned.cycles(), solo.cycles());
    EXPECT_EQ(laned.emergencies(), solo.emergencies());
    EXPECT_EQ(laned.dieVoltage(), solo.dieVoltage());
    EXPECT_EQ(laned.deviation(), solo.deviation());
    EXPECT_EQ(laned.totalCurrent(), solo.totalCurrent());

    expectHistogramsIdentical(laned.scope().histogram(),
                              solo.scope().histogram());

    const auto &bankA = laned.droopBank();
    const auto &bankB = solo.droopBank();
    ASSERT_EQ(bankA.size(), bankB.size());
    for (std::size_t i = 0; i < bankA.size(); ++i) {
        EXPECT_EQ(bankA.detector(i).eventCount(),
                  bankB.detector(i).eventCount())
            << "margin " << bankA.marginAt(i);
        EXPECT_EQ(bankA.detector(i).deepestEvent(),
                  bankB.detector(i).deepestEvent());
    }

    for (std::size_t i = 0; i < laned.numCores(); ++i) {
        const auto &ca = laned.core(i).counters();
        const auto &cb = solo.core(i).counters();
        EXPECT_EQ(ca.cycles(), cb.cycles());
        EXPECT_EQ(ca.instructions(), cb.instructions());
        for (std::size_t c = 0; c < cpu::PerfCounters::kNumCauses;
             ++c) {
            const auto cause = static_cast<cpu::StallCause>(c);
            EXPECT_EQ(ca.stallCycles(cause), cb.stallCycles(cause));
        }
    }

    if (laned.config().enableTrace) {
        const auto sa = laned.trace().chronological();
        const auto sb = solo.trace().chronological();
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].cycle, sb[i].cycle);
            EXPECT_EQ(sa[i].deviation, sb[i].deviation);
            EXPECT_EQ(sa[i].currentAmps, sb[i].currentAmps);
        }
    }
    if (laned.config().enableTimeline) {
        const auto &ta = laned.timelineSeries();
        const auto &tb = solo.timelineSeries();
        ASSERT_EQ(ta.size(), tb.size());
        for (std::size_t i = 0; i < ta.size(); ++i)
            EXPECT_EQ(ta[i], tb[i]) << "interval " << i;
    }
}

/** Run every scenario laned (at `width`) and solo; compare exactly. */
void
runDifferential(const std::vector<Scenario> &scenarios,
                std::size_t width)
{
    std::vector<std::unique_ptr<System>> laned, solo;
    std::vector<LanePlan> plans;
    for (const Scenario &sc : scenarios) {
        laned.push_back(buildSystem(sc));
        solo.push_back(buildSystem(sc));
        LanePlan plan;
        plan.system = laned.back().get();
        plan.cycles = sc.cycles;
        plan.untilFinished = sc.untilFinished;
        plan.padTo = sc.padTo;
        plans.push_back(plan);
    }

    LaneGroup group(width);
    group.run(plans);

    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &sc = scenarios[i];
        if (sc.untilFinished) {
            const Cycles executed =
                solo[i]->runUntilFinished(sc.cycles);
            if (sc.padTo > solo[i]->cycles())
                solo[i]->run(sc.padTo - solo[i]->cycles());
            EXPECT_EQ(plans[i].executed, executed) << "scenario " << i;
        } else {
            solo[i]->run(sc.cycles);
        }
        SCOPED_TRACE("scenario " + std::to_string(i) + " width " +
                     std::to_string(width));
        expectSystemsIdentical(*laned[i], *solo[i]);
    }
}

/** A population with non-uniform core counts, run lengths, OS-tick
 *  intervals, and sinks — the general fusion + retirement case. */
std::vector<Scenario>
mixedPopulation(int count = 7)
{
    std::vector<Scenario> out;
    for (int i = 0; i < count; ++i) {
        Scenario sc;
        sc.seed = 500 + 31ULL * static_cast<std::uint64_t>(i);
        sc.nCores = (i % 3 == 0) ? 1 : 2;
        sc.cycles = 12'000 + 1'731 * static_cast<Cycles>(i % 8);
        sc.cfg.osTickInterval = (i % 2 == 0) ? 997 : 1'543;
        out.push_back(sc);
    }
    return out;
}

/** Levels the host can actually run, narrowest first. */
std::vector<simd::IsaLevel>
hostLevels()
{
    std::vector<simd::IsaLevel> levels{simd::IsaLevel::Scalar};
    if (simd::detectHostLevel() == simd::IsaLevel::Avx2)
        levels.push_back(simd::IsaLevel::Avx2);
    return levels;
}

/** Restore the dispatch level after a test body that overrides it. */
class LevelGuard
{
  public:
    LevelGuard() : saved_(simd::activeLevel()) {}
    ~LevelGuard() { simd::setActiveLevel(saved_); }

  private:
    simd::IsaLevel saved_;
};

TEST(LaneGroup, AllWidthsAllLevelsBitIdentical)
{
    LevelGuard guard;
    const auto scenarios = mixedPopulation();
    for (const simd::IsaLevel level : hostLevels()) {
        simd::setActiveLevel(level);
        for (const std::size_t width : {1u, 2u, 3u, 4u, 5u, 7u, 8u}) {
            SCOPED_TRACE(std::string("level ") +
                         simd::levelName(level));
            runDifferential(scenarios, width);
        }
    }
}

TEST(LaneGroup, PopulationNotDivisibleByWidth)
{
    // 7 plans through 4 lanes: a full group, retirements, and a final
    // partial group that exercises the padded kernel columns.
    runDifferential(mixedPopulation(), 4);
}

TEST(LaneGroup, WidePopulationNotDivisibleBySixteen)
{
    // 21 plans through 8 lanes: two full 8-wide groups and a final
    // 5-lane partial one, so the widest configuration exercises both
    // the fully-packed and the padded kernel columns.
    runDifferential(mixedPopulation(21), 8);
}

TEST(LaneGroup, WidthOneDegeneratesToBlockedPath)
{
    runDifferential(mixedPopulation(), 1);
}

TEST(LaneGroup, DifferingOsTickAndTraceBoundaries)
{
    // Lanes whose per-cycle fallbacks land on different cycles: prime
    // OS-tick intervals force lane-specific block truncation, and
    // small trace rings wrap at different times. The fused step must
    // truncate to the tightest lane without disturbing the others.
    std::vector<Scenario> scenarios;
    const Cycles ticks[] = {613, 997, 1'009, 25'000};
    for (int i = 0; i < 4; ++i) {
        Scenario sc;
        sc.seed = 900 + 17ULL * static_cast<std::uint64_t>(i);
        sc.cycles = 30'000;
        sc.cfg.osTickInterval = ticks[i];
        sc.cfg.enableTrace = true;
        sc.cfg.traceCapacity = 512u << i; // different wrap points
        sc.cfg.enableTimeline = true;
        sc.cfg.timelineInterval = 777 + 100 * static_cast<Cycles>(i);
        scenarios.push_back(sc);
    }
    runDifferential(scenarios, 4);
}

TEST(LaneGroup, MidSweepRetirementOnFiniteSchedules)
{
    // Finite and looping schedules interleaved: the finite lanes
    // finish at staggered cycles (then pad prepareParsec-style), freeing
    // lanes that refill from the queue mid-sweep.
    std::vector<Scenario> scenarios;
    for (int i = 0; i < 9; ++i) {
        Scenario sc;
        sc.seed = 40 + 13ULL * static_cast<std::uint64_t>(i);
        sc.loop = (i % 2 == 1);
        sc.untilFinished = true;
        sc.cycles = 40'000;
        sc.padTo = (i % 3 == 0) ? 45'000 : 0;
        sc.cfg.osTickInterval = 2'111;
        scenarios.push_back(sc);
    }
    runDifferential(scenarios, 4);
}

TEST(LaneGroup, IneligiblePlansRunSolo)
{
    // Mitigation feedback and split rails disqualify the block
    // pipeline; the group must route those plans through the
    // standalone scalar path and still match exactly.
    std::vector<Scenario> scenarios;
    Scenario plain;
    plain.seed = 7;
    scenarios.push_back(plain);

    Scenario mitigated;
    mitigated.seed = 8;
    mitigated.cfg.emergencyMargin = 0.033;
    mitigated.cfg.recoveryCostCycles = 160;
    scenarios.push_back(mitigated);

    Scenario split;
    split.seed = 9;
    split.cfg.splitSupplies = true;
    scenarios.push_back(split);

    runDifferential(scenarios, 4);
}

TEST(LaneGroup, ZeroCycleAndPrefinishedPlans)
{
    // run(0) must not even start the System (no PDN settling), and an
    // untilFinished plan whose cores are already done at entry must
    // execute nothing — both match the standalone semantics.
    std::vector<Scenario> scenarios;
    Scenario zero;
    zero.seed = 70;
    zero.cycles = 0;
    scenarios.push_back(zero);

    Scenario finite;
    finite.seed = 71;
    finite.loop = false;
    finite.untilFinished = true;
    finite.cycles = 0; // budget 0: executes nothing
    scenarios.push_back(finite);

    Scenario normal;
    normal.seed = 72;
    normal.cycles = 9'000;
    scenarios.push_back(normal);

    runDifferential(scenarios, 4);
}

TEST(LaneGroup, DefaultWidthHonoursLanesEnv)
{
    ASSERT_EQ(setenv("VSMOOTH_LANES", "3", 1), 0);
    EXPECT_EQ(LaneGroup().width(), 3u);
    ASSERT_EQ(setenv("VSMOOTH_LANES", "8", 1), 0);
    EXPECT_EQ(LaneGroup().width(), 8u);
    ASSERT_EQ(unsetenv("VSMOOTH_LANES"), 0);
    EXPECT_GE(LaneGroup().width(), 4u);
}

struct CliResult
{
    int exitCode = -1;
    std::string output;
};

CliResult
runCli(const std::string &env, const std::string &args)
{
    const std::string cmd = env + " " + std::string(VSMOOTH_CLI_PATH) +
        " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    CliResult r;
    std::array<char, 4096> buf;
    while (pipe && fgets(buf.data(), buf.size(), pipe))
        r.output += buf.data();
    if (pipe) {
        const int status = pclose(pipe);
        r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    return r;
}

TEST(SimdOverride, UnknownLevelIsFatalAndListsAccepted)
{
    for (const char *level : {"avx999", "sse2", "avx512"}) {
        const CliResult r =
            runCli(std::string("VSMOOTH_SIMD=") + level,
                   "fuzz --iters 1 --seed 1");
        EXPECT_NE(r.exitCode, 0) << r.output;
        EXPECT_NE(r.output.find("scalar, avx2"), std::string::npos)
            << r.output;
    }
}

TEST(SimdOverride, KnownLevelRoundTrips)
{
    const CliResult r =
        runCli("VSMOOTH_SIMD=scalar", "fuzz --iters 5 --seed 1");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("scalar"), std::string::npos) << r.output;
}

TEST(SimdOverride, BadLaneCountIsFatal)
{
    for (const char *lanes : {"9", "+8", "' 8'"}) {
        const CliResult r =
            runCli(std::string("VSMOOTH_LANES=") + lanes,
                   "fuzz --iters 1 --seed 1");
        EXPECT_NE(r.exitCode, 0) << r.output;
        EXPECT_NE(r.output.find("VSMOOTH_LANES"), std::string::npos)
            << r.output;
    }
}

} // namespace
