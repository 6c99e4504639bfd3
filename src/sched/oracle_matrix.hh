/**
 * @file
 * Oracle co-schedule profiles (paper Sec IV-C).
 *
 * The paper's scheduling study is oracle-based: a pre-run phase
 * measures, for every pair of CPU2006 benchmarks, the droop rate and
 * throughput of running them together on the two cores (the 29x29
 * sweep). Policies then select pairs from a job pool using this
 * matrix. OracleMatrix performs that pre-run phase with the full
 * simulation stack and caches the results. A matrix can also be saved
 * to a file and loaded back bit for bit, so several processes can
 * share one pre-run (cached()).
 */

#ifndef VSMOOTH_SCHED_ORACLE_MATRIX_HH
#define VSMOOTH_SCHED_ORACLE_MATRIX_HH

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "resilience/perf_model.hh"
#include "sim/system.hh"
#include "workload/spec_suite.hh"

namespace vsmooth::sched {

/** Measured profile of one co-scheduled benchmark pair. */
struct PairProfile
{
    /** Droops (samples below the idle margin) per 1000 cycles. */
    double droopsPer1k = 0.0;
    /** Combined throughput: sum of both cores' IPC. */
    double ipc = 0.0;
    /** Emergency events per watched margin, for the perf model. */
    resilience::EmergencyProfile emergencies;
};

/** Configuration of the oracle pre-run phase. */
struct OracleConfig
{
    sim::SystemConfig system;
    /** Cycles simulated per pair. */
    Cycles cyclesPerPair = 600'000;
    /** Droop-counting margin (the paper's 2.3 %). */
    double droopMargin = sim::kIdleMargin;
    std::uint64_t seed = 12345;
    /**
     * Model self-pairs (i, i) as phase-aligned: both copies get the
     * same stream seed and run in lockstep, the worst case a
     * SPECrate-style simultaneous launch produces on real hardware.
     * Off by default — the classic matrix treats the two copies as
     * independently phased.
     */
    bool alignedSelfPairs = false;
};

/** How OracleMatrix::cached() obtained its matrix. */
enum class CacheOutcome
{
    /** Loaded from the cache file. */
    Hit,
    /** Built, then written to the cache file. */
    Miss,
    /** Built; the cache directory failed its checks or the write
     *  failed, so nothing was read or kept. */
    Unusable,
};

/** The NxN pair-profile matrix over a benchmark suite. */
class OracleMatrix
{
  public:
    /**
     * Run the pre-run measurement phase over all pairs (i <= j; the
     * matrix is symmetric by construction since core order does not
     * matter). Always a full build: the constructor never touches a
     * cache.
     */
    OracleMatrix(const std::vector<workload::SpecBenchmark> &suite,
                 const OracleConfig &cfg);

    /**
     * The matrix for (suite, cfg) through a one-file cache: loaded
     * from `file` when it holds a matrix saved under exactly `key`,
     * else built by the constructor and written there atomically,
     * replacing whatever the file held. `key` (one line) must name
     * everything the profiles depend on besides the suite size.
     *
     * The directory holding `file` is created 0700 if missing and used
     * only if it is a directory (not a symlink) owned by this user,
     * with owner rwx and no group or other write permission. When it
     * fails that check, or the write fails, the built matrix is still
     * returned.
     */
    static OracleMatrix cached(
        const std::vector<workload::SpecBenchmark> &suite,
        const OracleConfig &cfg, const std::string &file,
        const std::string &key, CacheOutcome *outcome = nullptr);

    /**
     * Stream the profiles in load()'s format, headed by `key`: the
     * watched margins once, then one line per profile, doubles as
     * their bit patterns. Returns false on a stream error.
     */
    bool save(std::ostream &os, const std::string &key) const;

    /**
     * The matrix save() wrote under exactly `key`, with one profile
     * per measurement of `suite`. Any other input (wrong key or
     * profile count, a truncated stream, a malformed token, trailing
     * data) yields nullopt, never a partial matrix.
     */
    static std::optional<OracleMatrix>
    load(std::istream &is, const std::vector<workload::SpecBenchmark> &suite,
         const OracleConfig &cfg, const std::string &key);

    std::size_t size() const { return n_; }
    const workload::SpecBenchmark &benchmark(std::size_t i) const
    { return suite_[i]; }

    /** Profile of co-scheduling benchmarks i and j. */
    const PairProfile &pair(std::size_t i, std::size_t j) const;

    /** Profile of benchmark i running with the other core idle. */
    const PairProfile &single(std::size_t i) const
    { return singles_.at(i); }

    /** SPECrate profile: two copies of benchmark i (= pair(i, i)). */
    const PairProfile &specRate(std::size_t i) const
    { return pair(i, i); }

    const OracleConfig &config() const { return cfg_; }

  private:
    /** Tag for the constructor that sizes but does not measure. */
    struct Unmeasured
    {
    };
    OracleMatrix(const std::vector<workload::SpecBenchmark> &suite,
                 const OracleConfig &cfg, Unmeasured);

    PairProfile measure(std::size_t i, std::size_t j,
                        bool idleSecond) const;
    /** Construct (but do not run) the System for one measurement. */
    sim::System buildMeasure(std::size_t i, std::size_t j,
                             bool idleSecond) const;
    /** Extract the profile from a completed measurement run. */
    PairProfile profileFrom(sim::System &sys, std::size_t i,
                            std::size_t j, bool idleSecond) const;

    std::vector<workload::SpecBenchmark> suite_;
    OracleConfig cfg_;
    std::size_t n_;
    std::vector<PairProfile> pairs_;   // upper triangle, row-major
    std::vector<PairProfile> singles_;
};

} // namespace vsmooth::sched

#endif // VSMOOTH_SCHED_ORACLE_MATRIX_HH
