/**
 * @file
 * Executable invariants checked against randomized configurations.
 *
 * Each Property is a named predicate over a FuzzConfig: it builds
 * whatever simulator state the config describes, runs it, and checks
 * an invariant the codebase promises unconditionally —
 *
 *   - blocked_vs_scalar: the batched tick pipeline is bit-identical
 *     to the per-cycle path at arbitrary block/phase/OS-tick/trace
 *     boundaries (not just the 256-aligned ones unit tests pin);
 *   - run_twice_determinism: the same seed reproduces every
 *     observable exactly;
 *   - parallel_vs_serial: a parallelMap sweep is bit-identical for
 *     any worker-thread count;
 *   - laned_vs_scalar: the scenario-lane SIMD engine (sim::LaneGroup)
 *     is bit-identical to solo runs at any lane width, including
 *     mixed finite/looping schedules that retire mid-sweep;
 *   - pdn_linearity: the second-order PDN is LTI — superposition and
 *     scaling of current stimuli, exact DC gain R·I, and a step
 *     response inside analytic second-order bounds;
 *   - histogram_invariants: mass conservation, block/scalar feed
 *     identity, merge commutativity/associativity, and
 *     concatenation == merge;
 *   - result_roundtrip: Result -> JSON -> Result is lossless;
 *   - adaptive_margin_invariants: the closed-loop margin controller
 *     stays within its configured bounds, its trajectory is
 *     deterministic, disabling it is bit-identical to the plain
 *     engine regardless of the controller knobs, and a zero-gain
 *     controller is bit-identical to the fixed-margin fail-safe;
 *   - fault_injection_determinism: undervolt fault sets are exactly
 *     nested across margins, exactly zero at the safe margin, and
 *     identical under any shard or blocked/scalar partition.
 *
 * On failure, check() returns false and fills *why with the first
 * divergent observable. The fuzz driver shrinks the config and writes
 * a replayable repro.
 */

#ifndef VSMOOTH_SIMTEST_PROPERTIES_HH
#define VSMOOTH_SIMTEST_PROPERTIES_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "simtest/gen.hh"

namespace vsmooth::sim {
class System;
}

namespace vsmooth::simtest {

/** One registered invariant. */
struct Property
{
    const char *name;
    /** Subsystem the invariant guards — the `fuzz --list` grouping
     *  key (e.g. "sim/system", "pdn", "common"). */
    const char *subsystem;
    const char *summary;
    /** Generator parameter ranges the property draws beyond the
     *  common FuzzConfig fields (shown by --list; nullptr = none). */
    const char *params;
    bool (*check)(const FuzzConfig &cfg, std::string *why);
};

/** All registered properties, in stable registry order. */
const std::vector<Property> &propertyRegistry();

/** Look up a property by name; nullptr if unknown. */
const Property *findProperty(std::string_view name);

/**
 * Every observable of one System run, captured for exact comparison
 * (the currency of the differential properties). All counts and
 * doubles are compared bitwise — the simulator's reproducibility
 * guarantees are bit-level, never "close enough".
 */
struct RunSummary
{
    Cycles cycles = 0;
    double dieVoltage = 0.0;
    double deviation = 0.0;
    double totalCurrent = 0.0;
    std::uint64_t emergencies = 0;
    std::uint64_t histTotal = 0;
    std::uint64_t histUnderflow = 0;
    std::uint64_t histOverflow = 0;
    double histMin = 0.0;
    double histMax = 0.0;
    std::vector<std::uint64_t> histBins;
    std::vector<std::uint64_t> bankEvents;
    std::vector<double> bankDeepest;
    std::vector<std::uint64_t> coreInstructions;
    std::vector<std::uint64_t> coreStallCycles;
    std::vector<double> timeline;
    std::vector<double> traceSamples;
    /** Adaptive margin controller observables (all zero, active
     *  false, when no controller is configured). */
    bool controllerActive = false;
    double ctrlFinalMargin = 0.0;
    double ctrlAvgMargin = 0.0;
    double ctrlMinMargin = 0.0;
    double ctrlMaxMargin = 0.0;
    std::uint64_t ctrlUpdates = 0;
    std::uint64_t ctrlWidenings = 0;

    bool operator==(const RunSummary &) const = default;
};

/**
 * Build the System a FuzzConfig describes and run it. forceScalar
 * disables the blocked fast path (the scalar reference side of the
 * differential).
 */
sim::System runScenario(const FuzzConfig &cfg, bool forceScalar);

/** runScenario, then summarizeSystem. */
RunSummary summarizeRun(const FuzzConfig &cfg, bool forceScalar);

/** Capture the observables of an already-executed System (the laned
 *  side of the differential, where LaneGroup drove the run). */
RunSummary summarizeSystem(sim::System &sys, const FuzzConfig &cfg);

/** Human-readable first difference between two summaries; empty when
 *  identical. */
std::string firstDifference(const RunSummary &a, const RunSummary &b);

/**
 * Observables of one fault-injection rig run (the undervolt scenario
 * family's primitive, shared by the fuzz property, the golden
 * experiment, and the serve batch kind): one DetailedCore driven by a
 * deterministic mixed load/branch stream whose footprint exceeds the
 * L2 and TLB reach, with the margin-dependent fault model attached to
 * l1d/l2/tlb.
 */
struct FaultRigCounts
{
    std::uint64_t l1dFaults = 0;
    std::uint64_t l2Faults = 0;
    std::uint64_t tlbFaults = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t instructions = 0;

    std::uint64_t totalFaults() const
    { return l1dFaults + l2Faults + tlbFaults; }

    bool operator==(const FaultRigCounts &) const = default;
};

/** Run the fault-injection rig for `cycles` at one margin.
 *  forceScalar drives the per-cycle tick path (the conservation
 *  differential's reference side). */
FaultRigCounts runFaultRig(std::uint64_t seed, double margin,
                           double ratePerAccess, Cycles cycles,
                           bool forceScalar = false);

} // namespace vsmooth::simtest

#endif // VSMOOTH_SIMTEST_PROPERTIES_HH
