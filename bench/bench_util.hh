/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench binary prints the paper's rows or series through
 * TextTable so the reproduction output is uniform; this header holds
 * the run plumbing they share (single runs, pair runs, population
 * aggregation over the 29 + 11 + pairs workload set, and the pre-run
 * cache of the study binaries).
 */

#ifndef VSMOOTH_BENCH_BENCH_UTIL_HH
#define VSMOOTH_BENCH_BENCH_UTIL_HH

#include <functional>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/result.hh"
#include "cpu/fast_core.hh"
#include "noise/scope.hh"
#include "resilience/perf_model.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/parsec.hh"
#include "workload/spec_suite.hh"

namespace vsmooth::bench {

/** Outcome of one measured run. */
struct RunResult
{
    noise::Scope scope;
    resilience::EmergencyProfile emergencies;
    double stallRatio = 0.0;
    double ipc = 0.0;
    Cycles cycles = 0;

    /** Droops (samples below margin) per 1K cycles. */
    double
    droopsPer1k(double margin = sim::kIdleMargin) const
    {
        return 1000.0 * scope.fractionBelow(-margin);
    }
};

/** Collect a RunResult from a completed simulation. */
RunResult resultFrom(sim::System &sys);

/**
 * A fully constructed simulation plus its run plan, ready to execute
 * either solo or as one lane of a sim::LaneGroup sweep. The System is
 * held by value so a sweep group can own its lane states contiguously.
 */
struct PreparedRun
{
    sim::System sys;
    Cycles cycles = 0;
    /** Run until the schedules finish instead of for a fixed budget. */
    bool untilFinished = false;
    /** After finishing, pad out to this cycle count (0 = no pad). */
    Cycles padTo = 0;
};

/** Build (but do not run) one benchmark with the second core idle. */
PreparedRun prepareSingle(const workload::SpecBenchmark &bench,
                          Cycles cycles, double decapFraction = 1.0,
                          std::uint64_t seed = 1);

/** Build (but do not run) a benchmark pair (multi-program). */
PreparedRun preparePair(const workload::SpecBenchmark &a,
                        const workload::SpecBenchmark &b, Cycles cycles,
                        double decapFraction = 1.0, std::uint64_t seed = 1);

/** Build (but do not run) one PARSEC program with two threads. */
PreparedRun prepareParsec(const workload::ParsecBenchmark &bench,
                          Cycles cycles, double decapFraction = 1.0,
                          std::uint64_t seed = 1);

/**
 * Execute `total` independently prepared simulations, draining them
 * through sim::LaneGroup lanes under the worker-thread pool: each
 * worker claims a group of K consecutive indices, builds its K systems
 * with `prepare`, steps them in SIMD lockstep, and hands each finished
 * system to `extract` (called with the scenario index, in group order).
 * Group boundaries derive from the index alone and every laned run is
 * bit-identical to a solo run, so results are invariant under both the
 * job count and the lane width.
 */
void runLanedSweep(
    std::size_t total,
    const std::function<PreparedRun(std::size_t)> &prepare,
    const std::function<void(std::size_t, sim::System &)> &extract);

/**
 * Aggregate population statistics over the paper's 881-run set
 * (29 single-threaded + 11 multi-threaded + 29x29 multi-program),
 * sub-sampled: all singles, all PARSEC, and every pair combination
 * (unordered, which is statistically equivalent to the full ordered
 * sweep on symmetric cores).
 */
struct Population
{
    noise::Scope scope;
    resilience::EmergencyProfile emergencies;
    std::size_t runs = 0;
    /** Merged sampled-execution report over all runs (inactive when
     *  every run executed exactly — the default). */
    sim::SamplingReport sampling;

    /**
     * Stream `pops` in load()'s format, headed by `key`: per
     * population its run count, the scope histogram's exact state,
     * the emergency profile and the sampling report, doubles as their
     * bit patterns. Returns false on a stream error.
     */
    static bool save(std::ostream &os, const std::string &key,
                     const std::vector<Population> &pops);

    /**
     * The `count` populations save() wrote under exactly `key`. Any
     * other input (another key, population count or bin count, a
     * truncated stream, a malformed token, trailing data) yields
     * nullopt, never a partial population.
     */
    static std::optional<std::vector<Population>>
    load(std::istream &is, const std::string &key, std::size_t count);
};

Population runPopulation(Cycles cyclesPerRun, double decapFraction,
                         std::uint64_t seed = 1);

/**
 * Run a study's pre-run once per `vsmooth verify` pass: the study's
 * processes share it through the file <temp dir>/vsmooth-<uid>/
 * <study>.cache. Its key hashes this executable's bytes and names the
 * execution path the Results claim (SIMD level, job count, raw
 * VSMOOTH_SCALAR_TICK and VSMOOTH_SAMPLING), so any rebuild, or a run
 * on another path, misses. `load` reads a pre-run saved under the
 * given key and returns true; otherwise `build` runs the pre-run and
 * `save` writes it under that key (common/fsio's loadOrBuild). Says on
 * stderr, under the study's name, whether it was built or read.
 */
void cachedPrerun(
    const std::string &study,
    const std::function<bool(std::istream &, const std::string &)> &load,
    const std::function<void()> &build,
    const std::function<bool(std::ostream &, const std::string &)> &save);

/**
 * Start a structured Result for one experiment, stamped with the
 * primary RNG seed, the effective worker-thread count (VSMOOTH_JOBS /
 * --jobs), and the git revision of the producing build.
 */
Result makeResult(std::string experiment, std::uint64_t seed = 1);

/**
 * Attach sampled-execution metadata to a Result when the report says
 * sampling was active (a no-op otherwise, so default exact runs keep
 * their goldens byte-stable): the mode, the realized simulated
 * fraction, and the caller-supplied (metric-name, absolute-bound)
 * annotations mapping the report's generic bounds onto the
 * experiment's own metric/series names and units.
 */
void stampSampling(Result &r, const sim::SamplingReport &report,
                   std::vector<std::pair<std::string, double>> bounds);

/**
 * Emit a Result as JSON alongside the text tables, to
 * $VSMOOTH_RESULT_DIR/<experiment>.json; with the variable unset no
 * file is written, so interactive runs stay file-free. `vsmooth
 * verify` sets it for each experiment it re-runs and diffs against
 * bench/golden/.
 */
void emitResult(const Result &r);

} // namespace vsmooth::bench

#endif // VSMOOTH_BENCH_BENCH_UTIL_HH
