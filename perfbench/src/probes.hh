/**
 * @file
 * Layer probes for the traced run: benchmark-owned code timing calls
 * into each module's public functions (sched, sim, cpu, power, dsp,
 * pdn, noise, serve, common). Nothing inside the simulator is
 * instrumented.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <string>

namespace perfbench {

/** Run every probe with `workload`'s scenario sample and print one
 *  JSON line: {"identity_ok": bool, "metrics": {...}, "split": {...}}.
 *  Returns 0 when the stage-replay identity check passes. */
int runProbes(const std::string &workload, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
