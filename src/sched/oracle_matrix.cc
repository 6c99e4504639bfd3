#include "oracle_matrix.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "cpu/fast_core.hh"
#include "sim/lane_group.hh"
#include "workload/microbench.hh"

namespace vsmooth::sched {

OracleMatrix::OracleMatrix(
    const std::vector<workload::SpecBenchmark> &suite,
    const OracleConfig &cfg)
    : suite_(suite), cfg_(cfg), n_(suite.size()),
      pairs_(n_ * (n_ + 1) / 2), singles_(n_)
{
    if (n_ == 0)
        fatal("OracleMatrix: empty suite");

    // Every measurement is an independent simulation whose seed
    // derives from (i, j) alone, so the matrix can be built in
    // parallel: each task writes its precomputed triangular slot and
    // the result is bit-identical for any job count.
    struct Task
    {
        std::size_t i, j;
        bool idleSecond;
        PairProfile *out;
    };
    std::vector<Task> tasks;
    tasks.reserve(singles_.size() + pairs_.size());
    for (std::size_t i = 0; i < n_; ++i)
        tasks.push_back({i, i, true, &singles_[i]});
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = i; j < n_; ++j) {
            tasks.push_back(
                {i, j, false, &pairs_[i * n_ - i * (i + 1) / 2 + j]});
        }
    }

    // Two levels of parallelism: worker threads over groups of K
    // measurements, and within each worker a LaneGroup stepping its K
    // independent simulations through one SIMD kernel in lockstep.
    // Group boundaries derive from the task index alone, and every
    // laned run is bit-identical to a solo run, so the matrix is
    // unchanged for any job count and any lane width.
    const std::size_t lanes = simd::defaultLaneWidth();
    const std::size_t nGroups = (tasks.size() + lanes - 1) / lanes;
    parallelFor(0, nGroups, [&](std::size_t g) {
        const std::size_t begin = g * lanes;
        const std::size_t end =
            std::min(tasks.size(), begin + lanes);
        std::vector<sim::System> systems;
        systems.reserve(end - begin);
        std::vector<sim::LanePlan> plans;
        plans.reserve(end - begin);
        for (std::size_t t = begin; t < end; ++t) {
            const Task &task = tasks[t];
            systems.push_back(
                buildMeasure(task.i, task.j, task.idleSecond));
            sim::LanePlan plan;
            plan.system = &systems.back();
            plan.cycles = cfg_.cyclesPerPair;
            plans.push_back(plan);
        }
        sim::LaneGroup group(lanes);
        group.run(plans);
        for (std::size_t t = begin; t < end; ++t) {
            const Task &task = tasks[t];
            *task.out = profileFrom(systems[t - begin], task.i,
                                    task.j, task.idleSecond);
        }
    });
}

const PairProfile &
OracleMatrix::pair(std::size_t i, std::size_t j) const
{
    if (i >= n_ || j >= n_)
        panic("OracleMatrix::pair: index out of range");
    if (i > j)
        std::swap(i, j);
    return pairs_[i * n_ - i * (i + 1) / 2 + j];
}

sim::System
OracleMatrix::buildMeasure(std::size_t i, std::size_t j,
                           bool idleSecond) const
{
    sim::SystemConfig sys_cfg = cfg_.system;
    sys_cfg.osTickInterval = sim::kCompressedOsTick;
    sim::System sys(sys_cfg);
    // Deterministic but distinct seeds per pair and core.
    const std::uint64_t base =
        cfg_.seed + 1000003ULL * (i * n_ + j) + (idleSecond ? 7 : 0);

    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(suite_[i], cfg_.cyclesPerPair, true),
        base + 1));
    if (idleSecond) {
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::idleSchedule(1000), base + 2));
    } else {
        // An aligned self-pair reuses the first core's seed: identical
        // schedule + identical seed = lockstep streams whose current
        // transients stack in the same cycle.
        const bool aligned = cfg_.alignedSelfPairs && i == j;
        sys.addCore(std::make_unique<cpu::FastCore>(
            workload::scheduleFor(suite_[j], cfg_.cyclesPerPair, true),
            aligned ? base + 1 : base + 2));
    }
    return sys;
}

PairProfile
OracleMatrix::profileFrom(sim::System &sys, std::size_t i,
                          std::size_t j, bool idleSecond) const
{
    PairProfile profile;
    profile.droopsPer1k =
        1000.0 * sys.scope().fractionBelow(-cfg_.droopMargin);
    profile.ipc = sys.core(0).counters().ipc() +
        (idleSecond ? 0.0 : sys.core(1).counters().ipc());
    if (!idleSecond) {
        // Shared-L2 / memory-bandwidth contention, modeled at the
        // profile level: two memory-bound programs slow each other
        // down. This is the effect the paper's IPC (cache-aware)
        // scheduling policy exploits.
        const double contention = 0.25 * suite_[i].memoryBoundness *
            suite_[j].memoryBoundness;
        profile.ipc *= 1.0 - contention;
    }
    profile.emergencies =
        resilience::profileFromBank(sys.droopBank(), sys.cycles());
    return profile;
}

} // namespace vsmooth::sched
