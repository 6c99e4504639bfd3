/**
 * @file
 * Runtime CPU-dispatched SIMD kernels for the scenario-lane engine.
 *
 * The sweep workloads (oracle matrix, population studies, figure
 * grids) run hundreds of *independent* simulations; the lane engine
 * (sim::LaneGroup) steps K of them in lockstep and hands the carried
 * per-cycle chains — current smoothing, PDN recurrence, VRM ripple —
 * to one of the kernels registered here, packed across the lane
 * dimension. Every kernel performs, per lane, exactly the scalar
 * pipeline's IEEE operations in the same order (vdivpd/vmulpd/vaddpd
 * are elementwise, no FMA contraction is ever enabled), so per-lane
 * results are bit-identical to a solo run at any lane width.
 *
 * Dispatch picks AVX2 when the host supports it, else the scalar
 * reference; VSMOOTH_SIMD=scalar|avx2 overrides it (unknown values
 * are fatal, listing the accepted set), and setActiveLevel() is the
 * equivalent test hook.
 *
 * This header is included from the translation unit compiled with
 * -mavx2: keep it free of inline function bodies and intrinsics so no
 * AVX-encoded comdat can leak into baseline objects.
 */

#ifndef VSMOOTH_COMMON_SIMD_HH
#define VSMOOTH_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace vsmooth::simd {

/** Instruction-set levels the kernels are built for, widest last. */
enum class IsaLevel : int
{
    Scalar = 0,
    Avx2 = 1,
};

/** Lowercase name, as accepted by VSMOOTH_SIMD. */
const char *levelName(IsaLevel level);

/** Avx2 when the host CPU supports it, else Scalar. */
IsaLevel detectHostLevel();

/**
 * The level in effect: the host's widest, unless VSMOOTH_SIMD or
 * setActiveLevel() narrowed it. First call parses the environment
 * (fatal on unknown values or levels the host lacks) and reports the
 * selection once via inform().
 */
IsaLevel activeLevel();

/** Test hook: force a level (must not exceed the host's). */
void setActiveLevel(IsaLevel level);

/** Doubles per vector register at a level (1 / 4). */
std::size_t vectorWidth(IsaLevel level);

/**
 * Default scenario-lane count for LaneGroup: two vectors in flight
 * (8) for AVX2, and 4 for scalar — the interleaved scalar chains
 * still overlap in the out-of-order window. VSMOOTH_LANES=1..8
 * overrides (fatal outside that range).
 */
std::size_t defaultLaneWidth();

/** Compact stamp for Result metadata, e.g. "avx2x8". */
std::string description();

/** Hard bounds the kernel argument blocks are sized for. */
inline constexpr std::size_t kMaxLanes = 8;
inline constexpr std::size_t kMaxLaneCores = 8;

/**
 * Argument block for one fused lane-step call: n cycles of the
 * smoothing + PDN pipeline across `lanes` scenarios. Per-cycle data
 * stays in per-lane contiguous buffers — the kernels assemble and
 * disassemble vectors across the lane dimension in registers
 * (gather/scatter of `lanes` parallel streams), so no transposed
 * copy of the block ever exists and every memory stream is
 * sequential. Pointer and parameter arrays are indexed by lane and
 * padded with benign values up to `stride` (the lane count rounded
 * up to the vector width; pad pointers must reference valid,
 * finite-valued storage — their outputs are never read back). State
 * members (prev, iL, vC, vDie, tTime) are read at entry and written
 * back at exit.
 */
struct LaneStepArgs
{
    std::size_t n = 0;
    std::size_t lanes = 0;
    std::size_t stride = 0;
    std::size_t cores = 0;

    /** Per-core, per-lane contiguous steady-current inputs
     *  (post-steadyBlock), n samples each. */
    const double *steady[kMaxLaneCores][kMaxLanes] = {};
    /** Out: per-lane contiguous per-cycle chip current. */
    double *total[kMaxLanes] = {};
    /** Out: per-lane contiguous per-cycle voltage deviation. */
    double *deviation[kMaxLanes] = {};

    // Current-model smoothing (params shared by a lane's cores).
    double tau[kMaxLanes] = {};
    double alpha[kMaxLanes] = {};
    double slew[kMaxLanes] = {};
    double prev[kMaxLaneCores][kMaxLanes] = {};

    // PDN trapezoidal update coefficients and state, per lane.
    double m00[kMaxLanes] = {}, m01[kMaxLanes] = {};
    double m10[kMaxLanes] = {}, m11[kMaxLanes] = {};
    double n00[kMaxLanes] = {}, n01[kMaxLanes] = {};
    double n10[kMaxLanes] = {}, n11[kMaxLanes] = {};
    double vdd[kMaxLanes] = {};
    double invVdd[kMaxLanes] = {};
    double rcDamp[kMaxLanes] = {};
    double dtStep[kMaxLanes] = {};
    double rippleAmp[kMaxLanes] = {};
    double ripplePeriod[kMaxLanes] = {};
    double iL[kMaxLanes] = {};
    double vC[kMaxLanes] = {};
    double vDie[kMaxLanes] = {};
    double tTime[kMaxLanes] = {};
};

using LaneStepFn = void (*)(LaneStepArgs &args);

/**
 * Elementwise steady-current conversion (CurrentModel::steadyBlock's
 * arithmetic) over a contiguous lane; in-place allowed.
 */
using SteadyFn = void (*)(double leak, double idleClk, double dynMax,
                          const double *activity, double *steady,
                          std::size_t n);

/** Sentinels binIndexFn writes for out-of-range samples. */
inline constexpr std::uint32_t kBinUnderflow = 0xFFFFFFFFu;
inline constexpr std::uint32_t kBinOverflow = 0xFFFFFFFEu;

/**
 * Histogram bin classification for a contiguous block: idx[j] is the
 * clamped bin index of xs[j], or a sentinel for out-of-range samples.
 * Index arithmetic is Histogram::add()'s exactly (truncating cast of
 * (x - lo) * invWidth, clamped to `last`).
 */
using BinIndexFn = void (*)(const double *xs, std::size_t n, double lo,
                            double hi, double invWidth,
                            std::uint32_t last, std::uint32_t *idx);

/**
 * Kernels for one level. Null members mean "no kernel at this level";
 * callers fall back to their built-in path (for steady/binIndex the
 * baseline code is already the scalar reference, so only AVX2
 * registers wider versions).
 */
struct KernelSet
{
    LaneStepFn laneStep = nullptr;
    SteadyFn steady = nullptr;
    BinIndexFn binIndex = nullptr;
};

/** Kernels registered for a specific level. */
const KernelSet &kernelsFor(IsaLevel level);

/** Kernels for activeLevel(). */
const KernelSet &kernels();

} // namespace vsmooth::simd

#endif // VSMOOTH_COMMON_SIMD_HH
