/**
 * @file
 * Tests for the property-based fuzzing layer itself: generator
 * determinism and validity, FuzzConfig JSON round-trips, the property
 * registry, the registered invariants on pinned configs, and the
 * shrinker's minimization behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "common/rng.hh"
#include "simtest/gen.hh"
#include "simtest/properties.hh"
#include "simtest/shrink.hh"

using namespace vsmooth;
using namespace vsmooth::simtest;

TEST(Gen, CombinatorsAreDeterministic)
{
    Rng a(42), b(42);
    const auto g = logUniformGen(100.0, 1e6);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(g(a), g(b));

    Rng c(7), d(7);
    const auto ints = intGen(3, 19);
    for (int i = 0; i < 100; ++i) {
        const auto v = ints(c);
        EXPECT_EQ(v, ints(d));
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 19u);
    }
}

TEST(Gen, MapAndSuchThatCompose)
{
    Rng rng(1);
    const auto even =
        intGen(0, 1000).suchThat([](std::uint64_t v) {
            return v % 2 == 0;
        });
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(even(rng) % 2, 0u);

    const auto doubled =
        intGen(1, 10).map([](std::uint64_t v) { return v * 2; });
    for (int i = 0; i < 50; ++i) {
        const auto v = doubled(rng);
        EXPECT_GE(v, 2u);
        EXPECT_LE(v, 20u);
        EXPECT_EQ(v % 2, 0u);
    }
}

TEST(FuzzConfigGen, SameSeedSameConfigs)
{
    const auto gen = fuzzConfigGen();
    Rng a(123), b(123);
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(gen(a) == gen(b)) << "draw " << i;
}

TEST(FuzzConfigGen, EveryDrawIsValid)
{
    const auto gen = fuzzConfigGen();
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const FuzzConfig cfg = gen(rng);
        std::string why;
        EXPECT_TRUE(cfg.valid(&why)) << why;
        EXPECT_GE(cfg.cores.size(), 1u);
    }
}

TEST(FuzzConfig, JsonRoundTripIsLossless)
{
    const auto gen = fuzzConfigGen();
    Rng rng(99);
    for (int i = 0; i < 50; ++i) {
        const FuzzConfig cfg = gen(rng);
        for (const bool omitDefaults : {false, true}) {
            FuzzConfig back;
            std::string error;
            ASSERT_TRUE(FuzzConfig::fromJson(cfg.toJson(omitDefaults),
                                             back, &error))
                << error;
            EXPECT_TRUE(back == cfg)
                << "draw " << i << " omitDefaults " << omitDefaults;
        }
    }
}

TEST(FuzzConfig, DefaultConfigSerializesToEmptyObject)
{
    const FuzzConfig def;
    EXPECT_EQ(def.toJson(true).dump(), "{}");

    FuzzConfig back;
    std::string error;
    ASSERT_TRUE(FuzzConfig::fromJson(Json::object(), back, &error))
        << error;
    EXPECT_TRUE(back == def);
}

TEST(FuzzConfig, FromJsonRejectsUnknownAndInvalid)
{
    std::string error;
    FuzzConfig out;

    auto parse = [](const char *text) {
        std::string parseError;
        Json j = Json::parse(text, &parseError);
        EXPECT_TRUE(parseError.empty()) << parseError;
        return j;
    };

    EXPECT_FALSE(
        FuzzConfig::fromJson(parse("{\"cyclez\": 100}"), out, &error));
    EXPECT_NE(error.find("cyclez"), std::string::npos);

    // A leftover sampled-execution knob is refused and named like any
    // other unknown field.
    EXPECT_FALSE(FuzzConfig::fromJson(parse("{\"samplingWindow\": 4}"),
                                      out, &error));
    EXPECT_NE(error.find("samplingWindow"), std::string::npos);

    EXPECT_FALSE(
        FuzzConfig::fromJson(parse("{\"cycles\": 0}"), out, &error));

    // Margin without a recovery cost would fatal inside System.
    EXPECT_FALSE(FuzzConfig::fromJson(
        parse("{\"emergencyMargin\": 0.04}"), out, &error));

    // The repro metadata key is tolerated (and ignored).
    EXPECT_TRUE(FuzzConfig::fromJson(
        parse("{\"property\": \"blocked_vs_scalar\"}"), out, &error))
        << error;

    // Integer fields take exact integers only, refused by name before
    // any cast: -1 once ran as seed 2^64 - 1, 1.5 as 1, and 1e300 was
    // an out-of-range float-to-integer conversion.
    for (const char *field : {"seed", "cycles"}) {
        for (const char *value : {"-1", "1.5", "1e300"}) {
            const std::string text =
                std::string("{\"") + field + "\": " + value + "}";
            EXPECT_FALSE(
                FuzzConfig::fromJson(parse(text.c_str()), out, &error))
                << text;
            EXPECT_NE(error.find(std::string("'") + field + "'"),
                      std::string::npos)
                << text << ": " << error;
        }
    }
}

TEST(FuzzConfig, IntegerFieldsRoundTripExactly)
{
    for (std::uint64_t seed : {std::numeric_limits<std::uint64_t>::max(),
                               (std::uint64_t{1} << 53) + 1}) {
        FuzzConfig cfg;
        cfg.seed = seed;
        const std::string text = cfg.toJson(/*omitDefaults=*/true).dump();
        EXPECT_EQ(text, "{\"seed\":" + std::to_string(seed) + "}");
        std::string parseError, error;
        const Json j = Json::parse(text, &parseError);
        ASSERT_TRUE(parseError.empty()) << parseError;
        FuzzConfig back;
        ASSERT_TRUE(FuzzConfig::fromJson(j, back, &error)) << error;
        EXPECT_EQ(back.seed, seed);
        EXPECT_EQ(back, cfg);
    }
}

TEST(PropertyRegistry, LookupAndUniqueness)
{
    const auto &registry = propertyRegistry();
    ASSERT_GE(registry.size(), 6u);

    std::set<std::string> names;
    for (const Property &p : registry) {
        EXPECT_TRUE(names.insert(p.name).second)
            << "duplicate " << p.name;
        EXPECT_EQ(findProperty(p.name), &p);
        EXPECT_NE(p.summary, nullptr);
    }
    EXPECT_EQ(findProperty("no_such_property"), nullptr);
    EXPECT_NE(findProperty("blocked_vs_scalar"), nullptr);
}

namespace {

/** A small but non-trivial pinned scenario: two cores, odd OS-tick
 *  and timeline boundaries, finite schedules. */
FuzzConfig
pinnedConfig()
{
    FuzzConfig cfg;
    cfg.cycles = 6'000;
    cfg.baseLength = 5'000;
    cfg.cores = {FuzzCore{3, false}, FuzzCore{11, true}};
    cfg.loop = false;
    cfg.decapFraction = 0.25;
    cfg.osTickInterval = 1'861; // deliberately not 256-aligned
    cfg.enableTimeline = true;
    cfg.timelineInterval = 777;
    return cfg;
}

} // namespace

TEST(Properties, AllHoldOnPinnedConfigs)
{
    for (const FuzzConfig &cfg : {FuzzConfig{}, pinnedConfig()}) {
        for (const Property &p : propertyRegistry()) {
            std::string why;
            EXPECT_TRUE(p.check(cfg, &why)) << p.name << ": " << why;
        }
    }
}

TEST(Properties, SummarizeRunIsRepeatable)
{
    const RunSummary a = summarizeRun(pinnedConfig(), false);
    const RunSummary b = summarizeRun(pinnedConfig(), false);
    EXPECT_TRUE(a == b);
    EXPECT_TRUE(firstDifference(a, b).empty());

    // And the scalar path sees the same observables (the
    // blocked_vs_scalar property, spot-checked directly).
    const RunSummary scalar = summarizeRun(pinnedConfig(), true);
    EXPECT_TRUE(firstDifference(a, scalar).empty());
}

namespace {

/** Synthetic property: fails whenever cycles >= 100 (captureless, so
 *  it converts to the registry's function-pointer type). */
bool
holdsBelow100Cycles(const FuzzConfig &cfg, std::string *why)
{
    if (cfg.cycles < 100)
        return true;
    if (why)
        *why = "cycles >= 100";
    return false;
}

} // namespace

TEST(Shrink, MinimizesSyntheticFailure)
{
    // A big, noisy failing config: everything irrelevant to the
    // synthetic predicate must be stripped away.
    FuzzConfig failing = pinnedConfig();
    failing.cycles = 50'000;
    failing.enableTrace = true;
    failing.traceCapacity = 999;
    failing.rippleFraction = 0.0123;
    failing.jobs = 6;
    failing.seed = 424'242;

    const Property synthetic{"synthetic_cycles", "test", "test-only",
                             nullptr, holdsBelow100Cycles};
    ASSERT_FALSE(synthetic.check(failing, nullptr));

    const ShrinkOutcome out = shrinkConfig(failing, synthetic);
    EXPECT_FALSE(synthetic.check(out.config, nullptr));
    EXPECT_GT(out.accepted, 0u);

    // Halving with a floor of 64 cannot land below 100, and anything
    // >= 200 would still shrink further.
    EXPECT_GE(out.config.cycles, 100u);
    EXPECT_LT(out.config.cycles, 200u);
    // Irrelevant structure got dropped to defaults.
    const FuzzConfig def;
    EXPECT_EQ(out.config.cores.size(), 1u);
    EXPECT_FALSE(out.config.enableTrace);
    EXPECT_FALSE(out.config.enableTimeline);
    EXPECT_EQ(out.config.seed, def.seed);
    EXPECT_EQ(out.config.jobs, def.jobs);
    EXPECT_EQ(out.config.rippleFraction, 0.0);

    // The repro document stays replay-friendly: short, and leading
    // with the property name.
    const std::string repro =
        reproJson(out.config, synthetic.name).dump(2);
    EXPECT_LE(std::count(repro.begin(), repro.end(), '\n'), 20);
    EXPECT_EQ(repro.find("{\n  \"property\": \"synthetic_cycles\""), 0u);
}

TEST(Shrink, PassingReductionsAreRejected)
{
    // A property that fails only with >= 2 cores: the shrinker must
    // keep the second core (dropping it would make the config pass).
    const Property needsTwoCores{
        "synthetic_cores", "test", "test-only", nullptr,
        [](const FuzzConfig &cfg, std::string *) {
            return cfg.cores.size() < 2;
        }};
    FuzzConfig failing;
    failing.cores = {FuzzCore{1, false}, FuzzCore{2, false},
                     FuzzCore{3, false}};

    const ShrinkOutcome out = shrinkConfig(failing, needsTwoCores);
    EXPECT_EQ(out.config.cores.size(), 2u);
    EXPECT_FALSE(needsTwoCores.check(out.config, nullptr));
}
