/**
 * @file
 * The serve_mix workload: a freshly spawned `vsmooth serve` daemon
 * driven over its Unix socket by a closed loop of connections, each
 * holding one single-item batch in flight.
 *
 * The schedule is a seeded list of `oracle_cell` items over the 435
 * unordered SPEC pairs at decap 1.0 and 0.03. Each distinct cell
 * appears first as a miss (compute + cache insert) and is re-requested
 * later as a hit, three hits per miss, interleaved. A hit is only sent
 * once its cell's miss has been acknowledged (batch_done, which the
 * daemon sends after the cache insert), so every planned hit is a real
 * hit and the planned hit ratio is exact.
 */

#ifndef PERFBENCH_SERVE_SESSION_HH
#define PERFBENCH_SERVE_SESSION_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One distinct oracle cell. */
struct ServeItem
{
    std::string benchA;
    std::string benchB;
    double decap = 1.0;
    /** The batch item JSON (no id: the cache key excludes it). */
    std::string json;
};

struct ScheduleSlot
{
    std::size_t item = 0;
    bool hit = false;
    /** Slot of the miss that introduces the item (== own slot for a
     *  miss). */
    std::size_t missSlot = 0;
};

struct ServeSchedule
{
    std::vector<ServeItem> items;
    std::vector<ScheduleSlot> slots;
    std::size_t plannedHits = 0;
};

/** All 870 cells (or the first `distinct` of the seeded order), one
 *  miss and three hits each. */
ServeSchedule makeServeSchedule(std::uint64_t seed, std::size_t distinct);

/** What the benchmark process computes for an item outside the timed
 *  region: serve::serializeResult(serve::runBatchItem(item)), plus
 *  the config hash the daemon must report. */
struct Reference
{
    std::string payload;
    std::string configHash;
};
Reference computeReference(const ServeItem &item);

/**
 * The correctness check every response goes through: the line must be
 * a `result` envelope whose config_hash and embedded Result bytes equal
 * the reference. Returns "" when the line passes, else the reason.
 */
std::string checkResultLine(const std::string &line, const Reference &ref);

struct SessionOptions
{
    std::string vsmooth;   ///< path of the vsmooth binary
    std::string workDir;   ///< parent of the per-pass temp directories
    std::uint64_t seed = 1;
    double seconds = 10.0; ///< passes continue while they fit
    std::size_t distinct = 870;
    std::string traceOut;  ///< span file; non-empty = a traced run
};

/** Run passes (each on a fresh daemon in a fresh directory) and print
 *  one JSON summary line; returns the process exit code. */
int runServeSession(const SessionOptions &opt);

/** The correctness-gate self-test: one real daemon response passes the
 *  check and the same response with one flipped payload byte fails
 *  it. Prints a JSON line; returns 0 when both verdicts are right. */
int runServeSelfTest(const SessionOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_SERVE_SESSION_HH
