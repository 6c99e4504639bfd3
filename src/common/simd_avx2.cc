/**
 * @file
 * AVX2 (width-4) instantiation of the lane-step kernel, plus the two
 * wider helper kernels (steady-current conversion and histogram bin
 * classification) — at scalar the built-in code paths are already the
 * reference implementations.
 *
 * This is the only translation unit compiled with -mavx2; everything
 * here must stay intrinsics-only (no inline functions from shared
 * headers get *instantiated* here that could be comdat-merged into
 * baseline objects with AVX encodings). FMA is never enabled: -mavx2
 * does not imply -mfma, and the build adds -ffp-contract=off as
 * belt-and-braces, so every multiply and add rounds separately exactly
 * like the scalar pipeline.
 */

#include "simd_kernels.hh"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace vsmooth::simd {
namespace {

struct VecAvx2
{
    static constexpr std::size_t width = 4;

    __m256d v;

    static VecAvx2 set1(double x) { return {_mm256_set1_pd(x)}; }
    static VecAvx2 load(const double *p) { return {_mm256_loadu_pd(p)}; }
    static void store(double *p, VecAvx2 a) { _mm256_storeu_pd(p, a.v); }

    /** Sample j of each of the `width` lane streams in p[]. */
    static VecAvx2 gather(const double *const *p, std::size_t j)
    {
        return {_mm256_set_pd(p[3][j], p[2][j], p[1][j], p[0][j])};
    }
    static void scatter(double *const *p, std::size_t j, VecAvx2 a)
    {
        const __m128d lo = _mm256_castpd256_pd128(a.v);
        const __m128d hi = _mm256_extractf128_pd(a.v, 1);
        _mm_storel_pd(p[0] + j, lo);
        _mm_storeh_pd(p[1] + j, lo);
        _mm_storel_pd(p[2] + j, hi);
        _mm_storeh_pd(p[3] + j, hi);
    }

    /** Samples j..j+3 of the four lane streams as a 4x4 register
     *  transpose (4 loads + 8 shuffles, vs 16 scalar loads for four
     *  gather() calls): out[k] holds sample j+k across lanes. */
    static void gatherT(const double *const *p, std::size_t j,
                        VecAvx2 *out)
    {
        const __m256d r0 = _mm256_loadu_pd(p[0] + j);
        const __m256d r1 = _mm256_loadu_pd(p[1] + j);
        const __m256d r2 = _mm256_loadu_pd(p[2] + j);
        const __m256d r3 = _mm256_loadu_pd(p[3] + j);
        const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
        const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
        const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
        const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
        out[0].v = _mm256_permute2f128_pd(t0, t2, 0x20);
        out[1].v = _mm256_permute2f128_pd(t1, t3, 0x20);
        out[2].v = _mm256_permute2f128_pd(t0, t2, 0x31);
        out[3].v = _mm256_permute2f128_pd(t1, t3, 0x31);
    }
    static void scatterT(double *const *p, std::size_t j,
                         const VecAvx2 *in)
    {
        const __m256d t0 = _mm256_unpacklo_pd(in[0].v, in[1].v);
        const __m256d t1 = _mm256_unpackhi_pd(in[0].v, in[1].v);
        const __m256d t2 = _mm256_unpacklo_pd(in[2].v, in[3].v);
        const __m256d t3 = _mm256_unpackhi_pd(in[2].v, in[3].v);
        _mm256_storeu_pd(p[0] + j, _mm256_permute2f128_pd(t0, t2, 0x20));
        _mm256_storeu_pd(p[1] + j, _mm256_permute2f128_pd(t1, t3, 0x20));
        _mm256_storeu_pd(p[2] + j, _mm256_permute2f128_pd(t0, t2, 0x31));
        _mm256_storeu_pd(p[3] + j, _mm256_permute2f128_pd(t1, t3, 0x31));
    }

    friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_add_pd(a.v, b.v)};
    }
    friend VecAvx2 operator-(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_sub_pd(a.v, b.v)};
    }
    friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_mul_pd(a.v, b.v)};
    }
    friend VecAvx2 operator/(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_div_pd(a.v, b.v)};
    }

    static VecAvx2 min(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_min_pd(a.v, b.v)};
    }
    static VecAvx2 max(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_max_pd(a.v, b.v)};
    }

    static VecAvx2 gtMask(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
    }
    static VecAvx2 ltMask(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
    }
    /** Select b where the mask is set, else a. */
    static VecAvx2 blend(VecAvx2 a, VecAvx2 b, VecAvx2 mask)
    {
        return {_mm256_blendv_pd(a.v, b.v, mask.v)};
    }

    static VecAvx2 floorNonNeg(VecAvx2 a)
    {
        return {_mm256_floor_pd(a.v)};
    }
};

void
laneStepAvx2(LaneStepArgs &args)
{
    laneStepKernel<VecAvx2>(args);
}

/**
 * CurrentModel::steadyBlock at 4-wide: the identical IEEE operations
 * in the identical order as the built-in scalar loop, so the output
 * bits match for every element regardless of which path (or tail)
 * produced it.
 */
void
steadyAvx2(double leak, double idleClk, double dynMax,
           const double *activity, double *steady, std::size_t n)
{
    const __m256d vZero = _mm256_setzero_pd();
    const __m256d vCeil = _mm256_set1_pd(2.5);
    const __m256d vOne = _mm256_set1_pd(1.0);
    const __m256d vQuarter = _mm256_set1_pd(0.25);
    const __m256d vThreeQ = _mm256_set1_pd(0.75);
    const __m256d vLeak = _mm256_set1_pd(leak);
    const __m256d vIdle = _mm256_set1_pd(idleClk);
    const __m256d vDyn = _mm256_set1_pd(dynMax);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        __m256d a = _mm256_loadu_pd(activity + j);
        a = _mm256_min_pd(_mm256_max_pd(a, vZero), vCeil);
        const __m256d w = _mm256_min_pd(a, vOne);
        const __m256d clock = _mm256_mul_pd(
            vIdle, _mm256_add_pd(vQuarter, _mm256_mul_pd(vThreeQ, w)));
        const __m256d s = _mm256_add_pd(_mm256_add_pd(vLeak, clock),
                                        _mm256_mul_pd(vDyn, a));
        _mm256_storeu_pd(steady + j, s);
    }
    for (; j < n; ++j) {
        double a = activity[j];
        a = a < 0.0 ? 0.0 : a;
        a = 2.5 < a ? 2.5 : a;
        const double w = 1.0 < a ? 1.0 : a;
        const double clock_current = idleClk * (0.25 + 0.75 * w);
        steady[j] = leak + clock_current + dynMax * a;
    }
}

/**
 * Histogram bin classification at 4-wide. In-range indices use the
 * exact add() arithmetic — truncating conversion of (x - lo) *
 * invWidth, clamped to `last` — via cvttpd; out-of-range lanes (rare
 * for the voltage-deviation histograms) are patched to the sentinels
 * from the comparison movemasks.
 */
void
binIndexAvx2(const double *xs, std::size_t n, double lo, double hi,
             double invWidth, std::uint32_t last, std::uint32_t *idx)
{
    const __m256d vLo = _mm256_set1_pd(lo);
    const __m256d vHi = _mm256_set1_pd(hi);
    const __m256d vInv = _mm256_set1_pd(invWidth);
    const __m128i vLast = _mm_set1_epi32(static_cast<int>(last));
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256d x = _mm256_loadu_pd(xs + j);
        const int under =
            _mm256_movemask_pd(_mm256_cmp_pd(x, vLo, _CMP_LT_OQ));
        const int over =
            _mm256_movemask_pd(_mm256_cmp_pd(x, vHi, _CMP_GE_OQ));
        // Out-of-range lanes produce an indeterminate (not undefined)
        // cvttpd result; they are overwritten below.
        const __m128i raw =
            _mm256_cvttpd_epi32(_mm256_mul_pd(_mm256_sub_pd(x, vLo),
                                              vInv));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(idx + j),
                         _mm_min_epu32(raw, vLast));
        if (under | over) {
            for (int l = 0; l < 4; ++l) {
                if (under & (1 << l))
                    idx[j + l] = kBinUnderflow;
                else if (over & (1 << l))
                    idx[j + l] = kBinOverflow;
            }
        }
    }
    for (; j < n; ++j) {
        const double x = xs[j];
        if (x < lo) {
            idx[j] = kBinUnderflow;
        } else if (x >= hi) {
            idx[j] = kBinOverflow;
        } else {
            const auto raw =
                static_cast<std::uint32_t>((x - lo) * invWidth);
            idx[j] = raw < last ? raw : last;
        }
    }
}

} // namespace

const KernelSet kAvx2Kernels = {laneStepAvx2, steadyAvx2, binIndexAvx2};

} // namespace vsmooth::simd

#else // !x86-64

namespace vsmooth::simd {

// Non-x86 hosts never dispatch above Scalar; keep the symbol defined.
const KernelSet kAvx2Kernels = {nullptr, nullptr, nullptr};

} // namespace vsmooth::simd

#endif
