/**
 * @file
 * Error-path tests for the vsmooth CLI: every user mistake (missing
 * directories, malformed JSON, unknown experiment or property names,
 * bad flag values) must exit nonzero with an actionable message, not
 * crash or silently pass.
 *
 * Tests run the real binary (path injected via VSMOOTH_CLI_PATH at
 * compile time) through popen and assert on exit status + combined
 * stdout/stderr.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "common/fsio.hh"

namespace fs = std::filesystem;

namespace {

struct CliResult
{
    int exitCode = -1;
    std::string output; // stdout + stderr interleaved
};

/** Run the CLI with `args`; `env` is an optional `NAME=value ...`
 *  prefix for its environment. */
CliResult
runCli(const std::string &args, const std::string &env = "")
{
    const std::string cmd =
        env + " " + std::string(VSMOOTH_CLI_PATH) + " " + args + " 2>&1";
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

/** Fresh scratch directory under the test tmp dir. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
        ("vsmooth_cli_errors_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A minimal valid Result for experiment `name`. */
std::string
fakeResult(const std::string &name)
{
    return "{\"experiment\": \"" + name + "\", \"metrics\": {\"m\": 1}}";
}

/** Create an executable fake experiment "binary" that emits a minimal
 *  valid Result into $VSMOOTH_RESULT_DIR, or, with `emits` false,
 *  exits 0 without emitting anything. */
void
writeFakeExperiment(const fs::path &benchDir, const std::string &name,
                    bool emits = true)
{
    const fs::path script = benchDir / name;
    {
        std::ofstream os(script);
        os << "#!/bin/sh\n";
        if (emits)
            os << "printf '" << fakeResult(name)
               << "' > \"$VSMOOTH_RESULT_DIR/" << name << ".json\"\n";
    }
    fs::permissions(script, fs::perms::owner_all);
}

} // namespace

TEST(CliErrors, NoArgumentsPrintsUsage)
{
    const auto r = runCli("");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("usage"), std::string::npos);
}

TEST(CliErrors, VerifyUnknownExperiment)
{
    const auto r = runCli("verify --experiments not_an_experiment");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("unknown experiment"), std::string::npos);
    // The message points at the discovery command.
    EXPECT_NE(r.output.find("--list"), std::string::npos);
}

TEST(CliErrors, VerifyEmptyExperimentList)
{
    // An empty list, or an empty entry, names no experiment: it must
    // not fall back to the default subset, nor rewrite its goldens
    // under --update.
    const auto bench = scratchDir("verify_empty_bench");
    const auto golden = scratchDir("verify_empty_golden");
    writeFakeExperiment(bench, "fig04_impedance");
    for (const char *list : {"\"\"", ",", "fig04_impedance,"}) {
        for (const char *update : {"", " --update"}) {
            SCOPED_TRACE(std::string(list) + update);
            const auto r = runCli(std::string("verify") + update +
                                  " --bench-dir " + bench.string() +
                                  " --golden-dir " + golden.string() +
                                  " --experiments " + list);
            EXPECT_EQ(r.exitCode, 1) << r.output;
            EXPECT_NE(r.output.find("--experiments"), std::string::npos)
                << r.output;
            EXPECT_TRUE(fs::is_empty(golden));
        }
    }
}

TEST(CliErrors, VerifyMissingBenchBinary)
{
    const auto bench = scratchDir("verify_nobin_bench");
    const auto golden = scratchDir("verify_nobin_golden");
    const auto r = runCli("verify --bench-dir " + bench.string() +
                          " --golden-dir " + golden.string() +
                          " --experiments fig01_future_swings");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("missing binary"), std::string::npos);
    EXPECT_NE(r.output.find("build the bench targets"),
              std::string::npos);
}

TEST(CliErrors, VerifyMissingGolden)
{
    const auto bench = scratchDir("verify_nogold_bench");
    const auto golden = scratchDir("verify_nogold_golden");
    writeFakeExperiment(bench, "fig01_future_swings");
    const auto r = runCli("verify --bench-dir " + bench.string() +
                          " --golden-dir " + golden.string() +
                          " --experiments fig01_future_swings");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("missing/bad golden"), std::string::npos);
    // ... and how to fix it.
    EXPECT_NE(r.output.find("--update"), std::string::npos);
}

TEST(CliErrors, VerifyMalformedGoldenJson)
{
    const auto bench = scratchDir("verify_badgold_bench");
    const auto golden = scratchDir("verify_badgold_golden");
    writeFakeExperiment(bench, "fig01_future_swings");
    std::ofstream(golden / "fig01_future_swings.json")
        << "{\"experiment\": \"fig01_future_swings\", oops";
    const auto r = runCli("verify --bench-dir " + bench.string() +
                          " --golden-dir " + golden.string() +
                          " --experiments fig01_future_swings");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("FAIL"), std::string::npos);
    EXPECT_NE(r.output.find("fig01_future_swings.json"),
              std::string::npos);
}

namespace {

/** Every regular file in `dir` (for temp-leftover assertions). */
std::vector<std::string>
filesIn(const fs::path &dir)
{
    std::vector<std::string> names;
    for (const auto &e : fs::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    return names;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

TEST(CliErrors, AtomicWriteSurvivesSimulatedPartialWrite)
{
    // A golden update that dies mid-write (Ctrl-C, crash, full disk)
    // must leave the previous golden intact — the old in-place
    // ofstream truncated the target before the first byte landed.
    const auto dir = scratchDir("atomic_partial");
    const fs::path target = dir / "golden.json";
    const std::string original = "{\"experiment\": \"x\"}\n";
    std::ofstream(target) << original;

    std::string error;
    const bool ok = vsmooth::writeFileAtomic(
        target.string(),
        [](std::ostream &os) {
            os << "{\"experiment\": \"y\", \"metr"; // partial write...
            return false;                           // ...then die
        },
        &error);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(error.empty());

    // Original untouched, and the aborted temp file cleaned up.
    EXPECT_EQ(slurp(target), original);
    EXPECT_EQ(filesIn(dir), std::vector<std::string>{"golden.json"});

    // A successful writer replaces the content whole.
    ASSERT_TRUE(vsmooth::writeFileAtomic(
        target.string(),
        [](std::ostream &os) {
            os << "{\"experiment\": \"z\"}\n";
            return os.good();
        },
        &error))
        << error;
    EXPECT_EQ(slurp(target), "{\"experiment\": \"z\"}\n");
    EXPECT_EQ(filesIn(dir), std::vector<std::string>{"golden.json"});
}

TEST(CliErrors, VerifyUpdateReplacesGoldenAtomically)
{
    const auto bench = scratchDir("verify_update_bench");
    const auto golden = scratchDir("verify_update_golden");
    writeFakeExperiment(bench, "fig01_future_swings");
    // Pre-existing golden with a tolerances block that must survive
    // the update, written through the temp + rename path.
    std::ofstream(golden / "fig01_future_swings.json")
        << "{\"experiment\": \"fig01_future_swings\","
           " \"metrics\": {\"m\": 2},"
           " \"tolerances\": {\"m\": {\"abs\": 0.5}}}\n";

    const auto r = runCli("verify --update --bench-dir " +
                          bench.string() + " --golden-dir " +
                          golden.string() +
                          " --experiments fig01_future_swings");
    EXPECT_EQ(r.exitCode, 0) << r.output;

    const std::string updated =
        slurp(golden / "fig01_future_swings.json");
    EXPECT_NE(updated.find("\"m\": 1"), std::string::npos) << updated;
    EXPECT_NE(updated.find("tolerances"), std::string::npos) << updated;
    // No .tmp.<pid> debris left behind.
    EXPECT_EQ(filesIn(golden),
              std::vector<std::string>{"fig01_future_swings.json"});
}

TEST(CliErrors, VerifySilentBinaryIsBadResultFile)
{
    // A binary that exits 0 without emitting must fail, even with a
    // matching Result from an earlier run left in the work dir.
    const auto bench = scratchDir("verify_silent_bench");
    const auto golden = scratchDir("verify_silent_golden");
    const auto work = scratchDir("verify_silent_work");
    writeFakeExperiment(bench, "fig01_future_swings", /*emits=*/false);
    std::ofstream(golden / "fig01_future_swings.json")
        << fakeResult("fig01_future_swings");
    std::ofstream(work / "fig01_future_swings.json")
        << fakeResult("fig01_future_swings");
    const auto r = runCli("verify --bench-dir " + bench.string() +
                          " --golden-dir " + golden.string() +
                          " --work-dir " + work.string() +
                          " --experiments fig01_future_swings");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("FAIL (bad result file)"), std::string::npos)
        << r.output;
    // A given work dir is kept.
    EXPECT_TRUE(fs::is_directory(work));
}

TEST(CliErrors, VerifyRemovesItsOwnWorkDir)
{
    const auto bench = scratchDir("verify_cleanup_bench");
    const auto golden = scratchDir("verify_cleanup_golden");
    const auto tmp = scratchDir("verify_cleanup_tmp");
    writeFakeExperiment(bench, "fig01_future_swings");
    std::ofstream(golden / "fig01_future_swings.json")
        << fakeResult("fig01_future_swings");
    const auto r = runCli("verify --bench-dir " + bench.string() +
                              " --golden-dir " + golden.string() +
                              " --experiments fig01_future_swings",
                          "TMPDIR=" + tmp.string());
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_EQ(filesIn(tmp), std::vector<std::string>{});
}

TEST(CliErrors, VerifyWorkDirWithQuote)
{
    // verify runs each binary directly, not through a shell, so a
    // quote or a space in the work dir or TMPDIR is just a character.
    const auto dir = scratchDir("verify_quote") / "it's here";
    const auto work = dir / "work";
    fs::create_directories(work);
    const std::string args = "verify --bench-dir " VSMOOTH_BENCH_DIR
                             " --golden-dir " VSMOOTH_GOLDEN_DIR
                             " --experiments fig04_impedance";
    auto r = runCli(args + " --work-dir \"" + work.string() + "\"");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("fig04_impedance: PASS"), std::string::npos)
        << r.output;
    EXPECT_TRUE(fs::exists(work / "fig04_impedance.json"));

    r = runCli(args, "TMPDIR=\"" + dir.string() + "\"");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("fig04_impedance: PASS"), std::string::npos)
        << r.output;
}

TEST(CliErrors, FuzzUnknownProperty)
{
    const auto r = runCli("fuzz --iters 1 --properties not_a_property");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("unknown property"), std::string::npos);
    // The actionable part: the known names are listed.
    EXPECT_NE(r.output.find("blocked_vs_scalar"), std::string::npos);
}

TEST(CliErrors, FuzzMissingCorpusDir)
{
    const auto r =
        runCli("fuzz --corpus /nonexistent/vsmooth-corpus-dir");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("does not exist"), std::string::npos);
}

TEST(CliErrors, FuzzEmptyCorpusDir)
{
    const auto dir = scratchDir("fuzz_empty_corpus");
    const auto r = runCli("fuzz --corpus " + dir.string());
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("no .json"), std::string::npos);
}

TEST(CliErrors, FuzzMissingReproFile)
{
    const auto r = runCli("fuzz --repro /nonexistent/repro.json");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("cannot open repro"), std::string::npos);
}

TEST(CliErrors, FuzzMalformedReproJson)
{
    const auto dir = scratchDir("fuzz_bad_repro");
    const fs::path repro = dir / "repro.json";
    std::ofstream(repro) << "{oops";
    const auto r = runCli("fuzz --repro " + repro.string());
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("not valid JSON"), std::string::npos);
}

TEST(CliErrors, FuzzInvalidReproConfig)
{
    const auto dir = scratchDir("fuzz_invalid_repro");
    const fs::path repro = dir / "repro.json";
    std::ofstream(repro) << "{\"cycles\": 0}";
    const auto r = runCli("fuzz --repro " + repro.string());
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("not a valid fuzz config"),
              std::string::npos);
}

TEST(CliErrors, FuzzBadFlagValue)
{
    const auto r = runCli("fuzz --iters not_a_number");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("bad value"), std::string::npos);

    // VSMOOTH_JOBS accepts exactly what --jobs does.
    for (const char *jobs : {"-1", "4x", "0"}) {
        const auto bad =
            runCli("fuzz --iters 1", std::string("VSMOOTH_JOBS=") + jobs);
        EXPECT_EQ(bad.exitCode, 1) << jobs;
        EXPECT_NE(bad.output.find("VSMOOTH_JOBS"), std::string::npos)
            << bad.output;
    }

    // VSMOOTH_SCALAR_TICK takes 0 or 1; empty means unset.
    for (const char *tick : {"off", "true", "2"}) {
        const auto bad = runCli(
            "fuzz --iters 1", std::string("VSMOOTH_SCALAR_TICK=") + tick);
        EXPECT_EQ(bad.exitCode, 1) << tick;
        EXPECT_NE(bad.output.find("VSMOOTH_SCALAR_TICK"), std::string::npos)
            << bad.output;
    }
    for (const char *tick : {"", "0", "1"}) {
        const auto good = runCli("run --cycles 20000 hmmer",
                                 std::string("VSMOOTH_SCALAR_TICK=") + tick);
        EXPECT_EQ(good.exitCode, 0) << tick << ": " << good.output;
        EXPECT_NE(good.output.find("max droop"), std::string::npos)
            << good.output;
    }

    const auto r2 = runCli("fuzz --no-such-flag");
    EXPECT_EQ(r2.exitCode, 2);
    EXPECT_NE(r2.output.find("usage"), std::string::npos);
}

TEST(CliErrors, FuzzSummaryKeepsTheSeedExact)
{
    // The summary once wrote the seed through a double: 2^64 - 1
    // came out as 18446744073709551616.
    const fs::path dir = scratchDir("fuzz_summary_seed");
    const fs::path summary = dir / "summary.json";
    const auto r = runCli("fuzz --seed 18446744073709551615 --iters 1 "
                          "--properties run_twice_determinism "
                          "--summary " + summary.string());
    ASSERT_EQ(r.exitCode, 0) << r.output;
    std::ifstream in(summary);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("\"seed\": 18446744073709551615,"),
              std::string::npos)
        << text.str();
}
