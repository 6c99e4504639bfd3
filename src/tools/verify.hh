/**
 * @file
 * `vsmooth verify` — golden-result regression checking.
 *
 * Re-runs the binaries behind a subset of the experiments with
 * structured-result emission enabled (VSMOOTH_RESULT_DIR), parses the
 * JSON each experiment's Result lands in, and diffs it
 * against the checked-in golden under per-metric tolerances. Exits
 * nonzero naming every drifting metric, so a calibration or model
 * change can never silently alter a paper observable.
 */

#ifndef VSMOOTH_TOOLS_VERIFY_HH
#define VSMOOTH_TOOLS_VERIFY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vsmooth::tools {

/** One golden-checked experiment. */
struct ExperimentInfo
{
    const char *name;
    /** In the default verify subset (seconds, not minutes, to run). */
    bool fast;
    /** The bench binary that emits this experiment's Result, when it
     *  is not named after the experiment. */
    const char *binary = nullptr;

    const char *binaryName() const { return binary ? binary : name; }
};

/** Every experiment whose bench binary emits a structured Result. */
const std::vector<ExperimentInfo> &experimentRegistry();

struct VerifyOptions
{
    /** Directory holding the experiment binaries. */
    std::string benchDir = "build/bench";
    /** Directory of golden <experiment>.json files. */
    std::string goldenDir = "bench/golden";
    /** Scratch directory for freshly produced results (defaults to a
     *  per-process directory under the system temp dir, removed when
     *  verify exits; a given one is kept). */
    std::string workDir;
    /** Explicit experiment subset; empty means the fast default set
     *  (or everything with `all`). */
    std::vector<std::string> experiments;
    bool all = false;
    /** Regenerate the goldens from this run instead of diffing,
     *  carrying over any per-metric tolerances already checked in. */
    bool update = false;
    /** Worker threads for the re-run (0 = inherit VSMOOTH_JOBS). */
    std::uint64_t jobs = 0;
    bool verbose = false;
};

/** Returns the process exit code: 0 if every experiment matched its
 *  golden (or was regenerated), 1 on any drift or run failure. */
int runVerify(const VerifyOptions &opt);

} // namespace vsmooth::tools

#endif // VSMOOTH_TOOLS_VERIFY_HH
