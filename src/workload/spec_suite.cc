#include "spec_suite.hh"

#include <algorithm>

#include "common/logging.hh"
#include "cpu/stall_engine.hh"

namespace vsmooth::workload {

const std::vector<SpecBenchmark> &
specCpu2006()
{
    // name, stallRatio, memoryBoundness, ipcRunning — plus phase
    // structure for the benchmarks Fig 14/16 single out.
    static const std::vector<SpecBenchmark> suite = [] {
        std::vector<SpecBenchmark> s = {
            {"astar", 0.60, 0.55, 1.1, PhasePattern::Steps,
             {0.90, 1.10, 1.35, 1.10, 0.95}, 0, 0, 0, 1.0},
            {"bwaves", 0.70, 0.85, 1.0, PhasePattern::Flat, {}, 0, 0, 0,
             1.2},
            {"bzip2", 0.45, 0.45, 1.4, PhasePattern::Steps,
             {0.80, 1.20, 0.85, 1.15}, 0, 0, 0, 1.0},
            {"cactusadm", 0.68, 0.80, 0.9, PhasePattern::Flat, {}, 0, 0,
             0, 1.3},
            {"calculix", 0.30, 0.30, 1.9, PhasePattern::Flat, {}, 0, 0, 0,
             1.1},
            {"dealii", 0.50, 0.50, 1.5, PhasePattern::Flat, {}, 0, 0, 0,
             1.0},
            // 416.gamess: four clean phases, droops swinging 60..100
            // per 1K cycles (Fig 14b).
            {"gamess", 0.55, 0.25, 1.9, PhasePattern::Steps,
             {1.00, 0.62, 1.00, 0.68}, 0, 0, 0, 0.6},
            {"gcc", 0.55, 0.50, 1.2, PhasePattern::Steps,
             {0.90, 1.15, 0.85, 1.10}, 0, 0, 0, 0.9},
            {"gemsfdtd", 0.72, 0.85, 0.9, PhasePattern::Flat, {}, 0, 0, 0,
             1.2},
            {"gobmk", 0.40, 0.20, 1.3, PhasePattern::Flat, {}, 0, 0, 0,
             1.0},
            {"gromacs", 0.35, 0.30, 1.8, PhasePattern::Flat, {}, 0, 0, 0,
             1.0},
            {"h264ref", 0.30, 0.25, 2.0, PhasePattern::Flat, {}, 0, 0, 0,
             1.0},
            {"hmmer", 0.25, 0.15, 2.2, PhasePattern::Flat, {}, 0, 0, 0,
             1.0},
            {"lbm", 0.78, 0.95, 0.8, PhasePattern::Flat, {}, 0, 0, 0,
             1.1},
            {"leslie3d", 0.65, 0.80, 1.0, PhasePattern::Flat, {}, 0, 0, 0,
             1.1},
            // Streaming with hardware-prefetch-friendly behaviour:
            // extremely steady (the Fig 17 outlier with no spread).
            {"libquantum", 0.80, 0.98, 0.9, PhasePattern::Flat, {}, 0, 0,
             0, 1.0},
            {"mcf", 0.82, 0.95, 0.45, PhasePattern::Steps, {1.05, 0.95},
             0, 0, 0, 1.2},
            {"milc", 0.70, 0.90, 0.8, PhasePattern::Flat, {}, 0, 0, 0,
             1.0},
            {"namd", 0.28, 0.20, 2.0, PhasePattern::Flat, {}, 0, 0, 0,
             1.2},
            {"omnetpp", 0.65, 0.75, 0.8, PhasePattern::Flat, {}, 0, 0, 0,
             1.0},
            {"perlbench", 0.45, 0.35, 1.6, PhasePattern::Steps,
             {0.95, 1.10, 0.90}, 0, 0, 0, 1.0},
            {"povray", 0.28, 0.10, 1.9, PhasePattern::Flat, {}, 0, 0, 0,
             0.9},
            {"sjeng", 0.42, 0.15, 1.4, PhasePattern::Flat, {}, 0, 0, 0,
             1.1},
            {"soplex", 0.68, 0.80, 0.9, PhasePattern::Steps, {0.9, 1.1},
             0, 0, 0, 1.0},
            // 482.sphinx: no phases, stable near the top of the droop
            // range (Fig 14a).
            {"sphinx", 0.75, 0.70, 1.0, PhasePattern::Flat, {}, 0, 0, 0,
             1.4},
            // 465.tonto: strong oscillation between 60 and 100 droops
            // per 1K cycles every several intervals (Fig 14c).
            {"tonto", 0.60, 0.40, 1.5, PhasePattern::Oscillating, {},
             0.72, 1.22, 14, 1.6},
            {"wrf", 0.55, 0.60, 1.2, PhasePattern::Flat, {}, 0, 0, 0,
             1.1},
            {"xalan", 0.60, 0.65, 1.1, PhasePattern::Flat, {}, 0, 0, 0,
             1.0},
            {"zeusmp", 0.58, 0.60, 1.2, PhasePattern::Flat, {}, 0, 0, 0,
             1.0},
        };
        return s;
    }();
    return suite;
}

const SpecBenchmark &
specByName(std::string_view name)
{
    for (const auto &b : specCpu2006()) {
        if (b.name == name)
            return b;
    }
    fatal("unknown SPEC benchmark '%.*s'",
          static_cast<int>(name.size()), name.data());
}

cpu::ActivityPhase
makeSpecPhase(double stallRatio, double memoryBoundness, double ipcRunning,
              Cycles duration)
{
    if (stallRatio < 0.0 || stallRatio >= 0.95)
        fatal("stall ratio %g outside [0, 0.95)", stallRatio);
    const double mu = std::clamp(memoryBoundness, 0.0, 1.0);

    // Event mix as a function of memory-boundness.
    std::array<double, cpu::kNumEventClasses> weights = {
        0.35 - 0.10 * mu, // L1
        0.15 + 0.45 * mu, // L2
        0.08 + 0.07 * mu, // TLB
        0.40 - 0.40 * mu, // BR
        0.02,             // EXCP
    };
    double sum = 0.0;
    for (double w : weights)
        sum += w;

    cpu::ActivityPhase phase;
    phase.duration = duration;
    phase.baseActivity = 0.62 + 0.25 * std::min(ipcRunning / 2.5, 1.0);
    phase.activityJitter = 0.03;
    phase.ipcWhenRunning = ipcRunning;

    // Event-class selection probabilities: stall *time* splits by the
    // mix weights, so the class probability is weight / blockedCycles
    // (normalized).
    // Memory-level parallelism is already folded into the short
    // default L2 timing; the per-phase scale stays at 1 (kept as an
    // ablation knob — see bench/ablation_mlp).
    phase.l2StallScale = 1.0;

    std::array<double, cpu::kNumEventClasses> probs{};
    std::array<double, cpu::kNumEventClasses> blocked{};
    std::array<double, cpu::kNumEventClasses> surge{};
    double qsum = 0.0;
    for (std::size_t c = 0; c < cpu::kNumEventClasses; ++c) {
        const auto cause = cpu::eventClassCause(c);
        const auto &t = cpu::defaultTiming(cause);
        double stall = static_cast<double>(t.stallCycles);
        double srg = static_cast<double>(t.surgeCycles);
        if (cause == cpu::StallCause::L2Miss) {
            stall = std::max(1.0, stall * phase.l2StallScale);
            srg = std::max(4.0, srg * phase.l2StallScale);
        }
        blocked[c] = static_cast<double>(t.rampDownCycles) + stall;
        surge[c] = srg;
        probs[c] = (weights[c] / sum) / blocked[c];
        qsum += probs[c];
    }
    double mean_blocked = 0.0;
    double mean_surge = 0.0;
    for (std::size_t c = 0; c < cpu::kNumEventClasses; ++c) {
        probs[c] /= qsum;
        mean_blocked += probs[c] * blocked[c];
        mean_surge += probs[c] * surge[c];
    }

    // The FastCore event process only advances while the core is
    // Running, so the steady-state cycle budget per event is
    //   gap + blocked + surge,   gap = 1 / rate.
    // Solve gap so that blocked / (gap + blocked + surge) = stallRatio.
    const double gap = std::max(
        1.5, mean_blocked * (1.0 - stallRatio) / stallRatio - mean_surge);
    const double total_rate_per1k = 1000.0 / gap;
    for (std::size_t c = 0; c < cpu::kNumEventClasses; ++c)
        phase.eventRatesPer1k[c] = total_rate_per1k * probs[c];
    return phase;
}

cpu::PhaseSchedule
scheduleFor(const SpecBenchmark &bench, Cycles baseLength, bool loop)
{
    // Sub-unit baseLength * relativeLength products truncate to 0;
    // clamp so every pattern yields valid (nonzero-length) phases —
    // FastCore rejects zero-length phases.
    const auto total = std::max<Cycles>(
        1, static_cast<Cycles>(bench.relativeLength *
                               static_cast<double>(baseLength)));
    cpu::PhaseSchedule schedule;
    schedule.loop = loop;

    auto addPhase = [&](double multiplier, Cycles duration) {
        const double s = std::clamp(bench.stallRatio * multiplier, 0.0,
                                    0.92);
        schedule.phases.push_back(makeSpecPhase(
            s, bench.memoryBoundness, bench.ipcRunning, duration));
    };

    switch (bench.pattern) {
      case PhasePattern::Flat:
        addPhase(1.0, total);
        break;
      case PhasePattern::Steps: {
        if (bench.stepMultipliers.empty())
            fatal("benchmark %s: Steps pattern without multipliers",
                  bench.name.c_str());
        const Cycles per =
            std::max<Cycles>(1, total / bench.stepMultipliers.size());
        for (double m : bench.stepMultipliers)
            addPhase(m, per);
        break;
      }
      case PhasePattern::Oscillating: {
        const int segs = std::max(2, bench.oscSegments);
        const Cycles per = std::max<Cycles>(1, total / segs);
        for (int i = 0; i < segs; ++i)
            addPhase(i % 2 == 0 ? bench.oscHi : bench.oscLo, per);
        break;
      }
    }
    return schedule;
}

} // namespace vsmooth::workload
