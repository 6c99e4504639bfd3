/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: PDN
 * integration step, core models, full system tick, and the MNA
 * solver. These guard the throughput that makes the 29x29 suite
 * sweeps tractable.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "circuit/transient.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "cpu/detailed_core.hh"
#include "cpu/fast_core.hh"
#include "circuit/ac.hh"
#include "dsp/primitives.hh"
#include "pdn/ladder.hh"
#include "pdn/second_order.hh"
#include "sched/oracle_matrix.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;

namespace {

void
BM_SecondOrderPdnStep(benchmark::State &state)
{
    pdn::SecondOrderPdn pdn(pdn::PackageConfig::core2duo(),
                            sim::clockPeriod());
    double load = 8.0;
    for (auto _ : state) {
        load = load == 8.0 ? 11.0 : 8.0;
        benchmark::DoNotOptimize(pdn.step(load));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SecondOrderPdnStep);

// -------------------------------------------------------------------
// dsp primitive layer (BENCH_pr8): per-sample throughput of the block
// kernels every hot path now delegates to. Items are samples, so
// items_per_second reads directly as samples/s per primitive.

constexpr std::size_t kDspBlock = 256;

/** Deterministic activity-like input block in [lo, hi). */
std::vector<double>
dspInput(double lo, double hi)
{
    std::vector<double> in(kDspBlock);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (double &v : in) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v = lo + (hi - lo) * (static_cast<double>(x >> 11) * 0x1.0p-53);
    }
    return in;
}

void
BM_DspSmoothSlewBlock(benchmark::State &state)
{
    const auto in = dspInput(3.0, 9.0);
    std::vector<double> out(kDspBlock);
    dsp::SmoothSlew chain{2.0, 1.0 / 3.0, 0.4, 5.0};
    for (auto _ : state) {
        chain.processBlock(in.data(), out.data(), kDspBlock);
        benchmark::DoNotOptimize(chain.prev);
    }
    state.SetItemsProcessed(state.iterations() * kDspBlock);
}
BENCHMARK(BM_DspSmoothSlewBlock);

void
BM_DspSumColumns2(benchmark::State &state)
{
    const auto in0 = dspInput(3.0, 9.0);
    const auto in1 = dspInput(4.0, 8.0);
    std::vector<double> out(kDspBlock);
    dsp::SmoothSlew chains[2] = {{2.0, 1.0 / 3.0, 0.4, 5.0},
                                 {2.0, 1.0 / 3.0, 0.4, 6.0}};
    const double *const cols[2] = {in0.data(), in1.data()};
    for (auto _ : state) {
        dsp::processSumColumns(chains, cols, out.data(), kDspBlock);
        benchmark::DoNotOptimize(chains[0].prev);
    }
    state.SetItemsProcessed(state.iterations() * kDspBlock);
}
BENCHMARK(BM_DspSumColumns2);

void
BM_DspActivityMapBlock(benchmark::State &state)
{
    const auto in = dspInput(-0.2, 2.8);
    std::vector<double> out(kDspBlock);
    const dsp::ActivityMap map{3.0, 1.5, 4.2};
    for (auto _ : state) {
        map.processBlock(in.data(), out.data(), kDspBlock);
        benchmark::DoNotOptimize(out[kDspBlock - 1]);
    }
    state.SetItemsProcessed(state.iterations() * kDspBlock);
}
BENCHMARK(BM_DspActivityMapBlock);

void
BM_DspBiquadBlock(benchmark::State &state)
{
    const auto load = dspInput(10.0, 40.0);
    std::vector<double> out(kDspBlock);
    pdn::PackageConfig cfg;
    cfg.rippleFraction = 0.0;
    pdn::SecondOrderPdn pdn(cfg, sim::clockPeriod());
    const auto bs = pdn.cursor();
    dsp::BiquadRecurrence biquad{bs.m00, bs.m01, bs.m10,    bs.m11,
                                 bs.n00, bs.n01, bs.n10,    bs.n11,
                                 bs.vdd, bs.rc,  bs.invVdd,
                                 bs.iL,  bs.vC,  bs.vDie};
    for (auto _ : state) {
        biquad.processBlock(load.data(), out.data(), kDspBlock);
        benchmark::DoNotOptimize(biquad.vDie);
    }
    state.SetItemsProcessed(state.iterations() * kDspBlock);
}
BENCHMARK(BM_DspBiquadBlock);

void
BM_DspRippleBlock(benchmark::State &state)
{
    std::vector<double> out(kDspBlock);
    const dsp::RippleOscillator osc{0.009 * 1.15, 1e-6};
    const double dt = sim::clockPeriod().value();
    double t = 0.0;
    for (auto _ : state) {
        osc.processBlock(t, dt, out.data(), kDspBlock);
        t += dt * static_cast<double>(kDspBlock);
        benchmark::DoNotOptimize(out[kDspBlock - 1]);
    }
    state.SetItemsProcessed(state.iterations() * kDspBlock);
}
BENCHMARK(BM_DspRippleBlock);

/** The full PDN block step on the default (rippled) configuration —
 *  the path the cached-ripple optimization targets. */
void
BM_DspPdnStepBlockRipple(benchmark::State &state)
{
    const auto load = dspInput(10.0, 40.0);
    std::vector<double> out(kDspBlock);
    pdn::SecondOrderPdn pdn(pdn::PackageConfig::core2duo(),
                            sim::clockPeriod());
    for (auto _ : state) {
        pdn.stepBlock(load.data(), out.data(), kDspBlock);
        benchmark::DoNotOptimize(out[kDspBlock - 1]);
    }
    state.SetItemsProcessed(state.iterations() * kDspBlock);
}
BENCHMARK(BM_DspPdnStepBlockRipple);

/** The fused cross-lane kernel at the active dispatch level: Arg
 *  lanes x 2 cores x 256 cycles per call (pin VSMOOTH_SIMD to
 *  compare kernel levels at a fixed width). Items are lane-cycles. */
void
BM_DspLaneStep(benchmark::State &state)
{
    const auto kLanes = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kCores = 2;
    std::vector<double> steady(kCores * kLanes * kDspBlock);
    std::vector<double> total(kLanes * kDspBlock);
    std::vector<double> deviation(kLanes * kDspBlock);
    {
        const auto in = dspInput(4.0, 10.0);
        for (std::size_t i = 0; i < steady.size(); ++i)
            steady[i] = in[i % kDspBlock];
    }
    simd::LaneStepArgs args;
    args.n = kDspBlock;
    args.lanes = kLanes;
    args.stride = kLanes;
    args.cores = kCores;
    for (std::size_t l = 0; l < kLanes; ++l) {
        for (std::size_t c = 0; c < kCores; ++c)
            args.steady[c][l] =
                steady.data() + (c * kLanes + l) * kDspBlock;
        args.total[l] = total.data() + l * kDspBlock;
        args.deviation[l] = deviation.data() + l * kDspBlock;
        args.tau[l] = 2.0;
        args.alpha[l] = 1.0 / 3.0;
        args.slew[l] = 0.4;
        for (std::size_t c = 0; c < kCores; ++c)
            args.prev[c][l] = 5.0;
        args.m00[l] = 0.995;
        args.m01[l] = -0.012;
        args.m10[l] = 0.018;
        args.m11[l] = 0.993;
        args.n00[l] = 0.006;
        args.n01[l] = 0.0004;
        args.n10[l] = 0.0002;
        args.n11[l] = -0.008;
        args.vdd[l] = 1.15;
        args.invVdd[l] = 1.0 / 1.15;
        args.rcDamp[l] = 0.0012;
        args.dtStep[l] = sim::clockPeriod().value();
        args.rippleAmp[l] = 0.009 * 1.15;
        args.ripplePeriod[l] = 1e-6;
        args.iL[l] = 20.0;
        args.vC[l] = 1.14;
        args.vDie[l] = 1.14;
        args.tTime[l] = 0.0;
    }
    const simd::LaneStepFn step = simd::kernels().laneStep;
    if (!step) {
        state.SkipWithError("no laneStep kernel at the active level");
        return;
    }
    for (auto _ : state) {
        step(args);
        benchmark::DoNotOptimize(args.vDie[0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kLanes) *
                            kDspBlock);
}
BENCHMARK(BM_DspLaneStep)->Arg(8);

void
BM_FastCoreTick(benchmark::State &state)
{
    cpu::FastCore core(
        workload::scheduleFor(workload::specByName("sphinx"), 1'000'000,
                              true),
        42);
    for (auto _ : state)
        benchmark::DoNotOptimize(core.tick());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastCoreTick);

void
BM_DetailedCoreTick(benchmark::State &state)
{
    auto stream = workload::makeMicrobenchmark(
        workload::MicrobenchKind::L1Miss, 7);
    cpu::DetailedCore core(cpu::DetailedCoreParams{}, *stream);
    for (auto _ : state)
        benchmark::DoNotOptimize(core.tick());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetailedCoreTick);

void
BM_SystemTickDualCore(benchmark::State &state)
{
    sim::SystemConfig cfg;
    sim::System sys(cfg);
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName("sphinx"), 1'000'000,
                              true),
        1));
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName("mcf"), 1'000'000,
                              true),
        2));
    for (auto _ : state)
        sys.tick();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemTickDualCore);

/**
 * The batched block pipeline on the same 2-core no-mitigation system
 * as BM_SystemTickDualCore. Items are simulated cycles, so
 * items_per_second is directly comparable with the per-tick baseline
 * above; the acceptance bar for the batched path is >= 2x.
 */
void
BM_SystemTickBlocked(benchmark::State &state)
{
    sim::SystemConfig cfg;
    sim::System sys(cfg);
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName("sphinx"), 1'000'000,
                              true),
        1));
    sys.addCore(std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName("mcf"), 1'000'000,
                              true),
        2));
    constexpr Cycles kChunk = 16 * sim::System::kBlockCycles;
    for (auto _ : state)
        sys.run(kChunk);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_SystemTickBlocked);

void
BM_LadderTransientStep(benchmark::State &state)
{
    auto net = pdn::buildLadder(pdn::PackageConfig::core2duo(), 2);
    circuit::TransientSolver solver(net.net, Seconds(0.1e-9));
    for (auto _ : state)
        solver.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LadderTransientStep);

/**
 * parallelFor scaling over a fixed population of System::run tasks.
 * Arg = job count (0 = hardware default); wall-clock speedup vs
 * Arg(1) is the number the perf trajectory tracks.
 */
void
BM_ParallelForSystemRun(benchmark::State &state)
{
    setJobs(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        parallelFor(0, 8, [](std::size_t i) {
            sim::SystemConfig cfg;
            cfg.osTickInterval = sim::kCompressedOsTick;
            sim::System sys(cfg);
            sys.addCore(std::make_unique<cpu::FastCore>(
                workload::scheduleFor(workload::specByName("sphinx"),
                                      40'000, true),
                i + 1));
            sys.addCore(std::make_unique<cpu::FastCore>(
                workload::scheduleFor(workload::specByName("mcf"),
                                      40'000, true),
                i + 100));
            sys.run(40'000);
            benchmark::DoNotOptimize(sys.scope().maxDroop());
        });
    }
    state.SetItemsProcessed(state.iterations() * 8);
    setJobs(0);
}
BENCHMARK(BM_ParallelForSystemRun)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * OracleMatrix pre-run phase on a reduced 8-benchmark suite (36 pairs
 * + 8 singles). Arg = job count; the full 29-benchmark sweep scales
 * the same way.
 */
void
BM_OracleMatrixBuild8(benchmark::State &state)
{
    setJobs(static_cast<std::size_t>(state.range(0)));
    const auto &full = workload::specCpu2006();
    const std::vector<workload::SpecBenchmark> suite(full.begin(),
                                                     full.begin() + 8);
    sched::OracleConfig cfg;
    cfg.cyclesPerPair = 60'000;
    for (auto _ : state) {
        const sched::OracleMatrix m(suite, cfg);
        benchmark::DoNotOptimize(m.pair(0, 1).ipc);
    }
    state.SetItemsProcessed(state.iterations() * (8 * 9 / 2 + 8));
    setJobs(0);
}
BENCHMARK(BM_OracleMatrixBuild8)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Population-style sweep of single-benchmark runs drained through the
 * scenario-lane engine. Arg = lane width (1 = degenerate single-lane
 * groups, i.e. the pre-lane execution path); items are simulated
 * cycles, and the Arg(1) vs widest-lane ratio is the SIMD speedup
 * tools/bench.sh reports.
 */
void
BM_PopulationLaned(benchmark::State &state)
{
    const std::string lanes = std::to_string(state.range(0));
    setenv("VSMOOTH_LANES", lanes.c_str(), 1);
    setJobs(1);
    const auto &suite = workload::specCpu2006();
    constexpr std::size_t kRuns = 16;
    constexpr Cycles kCycles = 40'000;
    for (auto _ : state) {
        bench::runLanedSweep(
            kRuns,
            [&](std::size_t t) {
                return bench::prepareSingle(suite[t % suite.size()],
                                            kCycles, 1.0,
                                            1 + 17ULL * (t + 1));
            },
            [&](std::size_t, sim::System &sys) {
                benchmark::DoNotOptimize(sys.scope().maxDroop());
            });
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kRuns * kCycles));
    unsetenv("VSMOOTH_LANES");
    setJobs(0);
}
BENCHMARK(BM_PopulationLaned)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * OracleMatrix pre-run phase (reduced 8-benchmark suite) with the
 * lane width pinned. Arg = lane width, one worker thread, so the
 * measured ratio isolates the SIMD lockstep gain from thread scaling.
 */
void
BM_OracleMatrixLaned(benchmark::State &state)
{
    const std::string lanes = std::to_string(state.range(0));
    setenv("VSMOOTH_LANES", lanes.c_str(), 1);
    setJobs(1);
    const auto &full = workload::specCpu2006();
    const std::vector<workload::SpecBenchmark> suite(full.begin(),
                                                     full.begin() + 8);
    sched::OracleConfig cfg;
    cfg.cyclesPerPair = 60'000;
    for (auto _ : state) {
        const sched::OracleMatrix m(suite, cfg);
        benchmark::DoNotOptimize(m.pair(0, 1).ipc);
    }
    state.SetItemsProcessed(state.iterations() * (8 * 9 / 2 + 8));
    unsetenv("VSMOOTH_LANES");
    setJobs(0);
}
BENCHMARK(BM_OracleMatrixLaned)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Long-horizon population sweep under phase-sampled execution.
 * Arg = sampling mode (0 = exact, 1 = auto); 4 single-benchmark
 * systems x 30M cycles = 120M simulated cycles per iteration, on one
 * worker thread so the ratio isolates the sampling gain. Items are
 * simulated cycles; the off vs auto items_per_second ratio is the
 * sampled-execution speedup BENCH_pr6.json records. The workloads
 * are the suite's long flat phases — the stationary stretches the
 * sampler exists to fast-forward (phase-rich workloads degrade
 * gracefully toward exact execution and are covered by the fuzz
 * property, not this throughput figure).
 */
void
BM_PopulationSampled(benchmark::State &state)
{
    setenv("VSMOOTH_SAMPLING", state.range(0) == 0 ? "off" : "auto", 1);
    setJobs(1);
    constexpr const char *kBenchmarks[] = {"sphinx", "lbm", "hmmer",
                                           "gemsfdtd"};
    constexpr std::size_t kRuns = 4;
    constexpr Cycles kCycles = 30'000'000;
    for (auto _ : state) {
        for (std::size_t t = 0; t < kRuns; ++t) {
            // Default (uncompressed) OS-tick cadence: at this horizon
            // the real 1.86M-cycle interval is the representative
            // configuration — the compressed bench-run tick would cap
            // every fast-forward at its next injection.
            sim::SystemConfig cfg;
            sim::System sys(cfg);
            const std::uint64_t seed = 1 + 17ULL * (t + 1);
            sys.addCore(std::make_unique<cpu::FastCore>(
                workload::scheduleFor(
                    workload::specByName(kBenchmarks[t]), kCycles,
                    true),
                seed + 1));
            sys.addCore(std::make_unique<cpu::FastCore>(
                workload::idleSchedule(1000), seed + 2));
            sys.run(kCycles);
            benchmark::DoNotOptimize(sys.scope().maxDroop());
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kRuns * kCycles));
    unsetenv("VSMOOTH_SAMPLING");
    setJobs(0);
}
BENCHMARK(BM_PopulationSampled)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_ImpedancePoint(benchmark::State &state)
{
    auto net = pdn::buildLadder(pdn::PackageConfig::core2duo(), 1);
    double f = 1e6;
    for (auto _ : state) {
        benchmark::DoNotOptimize(circuit::drivingPointImpedance(
            net.net, net.dieNode, Hertz(f)));
        f = f < 5e8 ? f * 1.01 : 1e6;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImpedancePoint);

} // namespace

BENCHMARK_MAIN();
