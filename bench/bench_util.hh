/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench binary prints the paper's rows or series through
 * TextTable so the reproduction output is uniform; this header holds
 * the run plumbing they share (single runs, pair runs, population
 * aggregation over the 29 + 11 + pairs workload set, and the output
 * cache of the study binaries).
 */

#ifndef VSMOOTH_BENCH_BENCH_UTIL_HH
#define VSMOOTH_BENCH_BENCH_UTIL_HH

#include <functional>
#include <memory>
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
};

/**
 * Run the population at `cyclesPerRun` cycles per run and package
 * decap `decapFraction`, drained in lane groups. Each run folds into
 * its chunk's partial as it finishes (parallelFold), so memory holds
 * one scope per fold chunk and per lane in flight, never one per run;
 * the result is bit-identical for any job count and lane width.
 */
Population runPopulation(Cycles cyclesPerRun, double decapFraction,
                         std::uint64_t seed = 1);

/**
 * Run a study once per `vsmooth verify` pass: `run` prints the
 * study's tables to std::cout and returns its Results, and the
 * study's processes share that output through the file
 * <temp dir>/vsmooth-<uid>/<study>.cache. Its key hashes this
 * executable's bytes and names the execution path the Results claim
 * (SIMD level, job count, raw VSMOOTH_SCALAR_TICK), so any rebuild, or
 * a run on another path, misses. A miss runs `run` with std::cout
 * captured, then saves the printed bytes and each Result's file text
 * under the key (common/fsio's loadOrBuild); a hit reads them back
 * instead of calling `run`. Either way the same bytes are then printed
 * and written as the Result files emitResult() would write, so a
 * replay is byte-identical to the run by construction. Says on
 * stderr, under the study's name, whether it ran or replayed.
 */
void cachedStudy(const std::string &study,
                 const std::function<std::vector<Result>()> &run);

/**
 * Start a structured Result for one experiment, stamped with the
 * primary RNG seed, the effective worker-thread count (VSMOOTH_JOBS /
 * --jobs), and the git revision of the producing build.
 */
Result makeResult(std::string experiment, std::uint64_t seed = 1);

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
