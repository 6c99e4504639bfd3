/**
 * @file
 * Stage replay: the block pipeline of System::tickBlock (solo) and
 * LaneGroup's fused step (laned) driven from outside the simulator
 * through public block functions only, with a timer around each stage.
 *
 * Scenarios are built the way bench::prepareSingle / preparePair build
 * them, but with the OS tick off (osTickInterval = 0), so System::run
 * is nothing but full blocks and the replay performs exactly its
 * arithmetic. The identity check proves that: the replay's scope
 * histogram and detector-bank counts must equal System::run's (solo)
 * and LaneGroup::run's (laned) bit for bit.
 */

#ifndef PERFBENCH_STAGE_REPLAY_HH
#define PERFBENCH_STAGE_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace perfbench {

/** One sampled two-core scenario. */
struct Scenario
{
    std::string benchA;
    std::string benchB; ///< empty = the second core idles (single run)
    double decap = 1.0;
    std::uint64_t seed = 1;
    vsmooth::Cycles cycles = 100'000;
};

/** A fixed sample of `workload`'s scenarios (independent of the run's
 *  seed, so per-layer numbers compare across runs). */
std::vector<Scenario> sampleScenarios(const std::string &workload,
                                      std::size_t count,
                                      vsmooth::Cycles cycles);

/** The scenario's System, OS tick off, cores attached, not started. */
vsmooth::sim::System buildSystem(const Scenario &s);

/** Pipeline stages the replay can time. */
enum class Stage
{
    None,
    Core,     ///< CoreModel::tickBlock (all cores)
    Steady,   ///< CurrentModel::steadyBlock (all cores)
    Sum,      ///< dsp::processSumColumns (solo)
    Pdn,      ///< SecondOrderPdn::stepBlock (solo)
    Lane,     ///< simd laneStep kernel (laned)
    Scope,    ///< Scope::recordBlock
    Bank,     ///< DroopDetectorBank::feedBlock
    Timeline, ///< NoiseTimeline::feedBlock (an extra sink)
};

/** Accumulated stage time in nanoseconds (only the timed stage is
 *  non-zero). */
struct StageTimes
{
    double core = 0.0;     ///< CoreModel::tickBlock (all cores)
    double steady = 0.0;   ///< CurrentModel::steadyBlock (all cores)
    double sum = 0.0;      ///< dsp::processSumColumns (solo)
    double pdn = 0.0;      ///< SecondOrderPdn::stepBlock (solo)
    double lane = 0.0;     ///< simd laneStep kernel (laned)
    double scope = 0.0;    ///< Scope::recordBlock
    double bank = 0.0;     ///< DroopDetectorBank::feedBlock
    double timeline = 0.0; ///< NoiseTimeline::feedBlock (extra sink)
};

/** Outcome of one replay: stage times plus the sink state the
 *  identity check compares. */
struct ReplayResult
{
    StageTimes times;
    /** Per scenario: histogram bins + tallies + detector counts. */
    std::vector<std::vector<std::uint64_t>> fingerprints;
};

/** Replay each scenario alone (System::tickBlock's two-core shape),
 *  timing stage `which`. */
ReplayResult replaySolo(const std::vector<Scenario> &scenarios,
                        Stage which);

/** Replay the scenarios as one lane group of scenarios.size() lanes
 *  through simd::kernels().laneStep (LaneGroup::stepFused's shape),
 *  timing stage `which`. */
ReplayResult replayLaned(const std::vector<Scenario> &scenarios,
                         Stage which);

/** The same fingerprints from the simulator's own paths. */
std::vector<std::vector<std::uint64_t>>
systemFingerprints(const std::vector<Scenario> &scenarios, bool laned,
                   double *seconds);

} // namespace perfbench

#endif // PERFBENCH_STAGE_REPLAY_HH
