/**
 * @file
 * Cross-lane (K-wide column) forms of the dsp primitives, templated
 * over the vector type V the SIMD translation units supply (width-1
 * scalar, AVX2). Each kernel is the blended — branchless — counterpart
 * of the matching sample kernel in dsp/primitives.hh: conditional
 * stages compute both sides and select per lane, which yields the
 * same result bits for finite inputs (DESIGN.md §11 states the full
 * equivalence argument per primitive). Masks are V values
 * (all-ones / all-zeros lanes) produced by gtMask/ltMask and consumed
 * only by blend — they never enter arithmetic.
 *
 * This header is included from the translation unit compiled with
 * -mavx2 (common/simd_avx2.cc): keep it templates-only, with no
 * intrinsics and no non-template inline functions, so no AVX-encoded
 * comdat can leak into baseline objects. V supplies elementwise IEEE
 * double operations only — no FMA, no reductions — and
 * instantiations with the TU-local V types have internal linkage.
 */

#ifndef VSMOOTH_DSP_LANE_KERNELS_HH
#define VSMOOTH_DSP_LANE_KERNELS_HH

#include <cstddef>

namespace vsmooth::dsp {

/**
 * Lane form of the fused one-pole + slew chain (smoothSlewSample):
 * the tau > 0 / slew > 0 conditionals become per-lane blends (the
 * untaken side is computed and discarded — same result bits), and the
 * clamp composes as max-then-min exactly like the scalar kernel.
 * Masks and the negated slew bound are precomputed once per block.
 */
template <class V>
struct LaneSmoothSlew
{
    V tauPos;  ///< per-lane mask: tau > 0
    V alpha;
    V slewPos; ///< per-lane mask: slew > 0
    V slew;
    V negSlew; ///< 0 - slew, precomputed

    static LaneSmoothSlew
    make(V tau, V alphaV, V slewV, V zero)
    {
        return {V::gtMask(tau, zero), alphaV, V::gtMask(slewV, zero),
                slewV, zero - slewV};
    }

    /** One sample; `prev` is the caller-held carried value (per core
     *  per slot). */
    V sample(V target, V &prev) const
    {
        const V pr = prev;
        const V sm = pr + alpha * (target - pr);
        target = V::blend(target, sm, tauPos);
        const V lim = V::min(V::max(target - pr, negSlew), slew);
        target = V::blend(target, pr + lim, slewPos);
        prev = target;
        return target;
    }
};

/**
 * Lane form of the triangle ripple (triangleRippleSample): one
 * division per evaluation, phase selected by blend. amp == 0 lanes
 * simply compute amp * tri == ±0, which the trapezoidal average
 * absorbs bit-exactly (vdd + 0.5*(±0 + ±0) == vdd). t must be
 * non-negative (floorNonNeg's contract). The caller supplies the
 * shared numeric constants so they are materialized once per block,
 * not once per call.
 */
template <class V>
struct LaneRipple
{
    V amp;
    V period;

    V at(V t, V one, V three, V four, V half) const
    {
        const V q = t / period;
        const V ph = q - V::floorNonNeg(q);
        const V tri = V::blend(four * ph - three, one - four * ph,
                               V::ltMask(ph, half));
        return amp * tri;
    }
};

/**
 * Lane form of the PDN trapezoidal recurrence (biquadSample), with
 * the input terms formed from the effective supply per sample. The
 * (m·x) + (n·u) grouping is the scalar kernel's exactly.
 */
template <class V>
struct LaneBiquad
{
    V m00, m01, m10, m11;
    V n00, n01, n10, n11;
    V rc;
    V invVdd;

    /** One step; iL/vC/vDie are the caller-held carried state.
     *  Returns the deviation vDie * invVdd - 1. */
    V sample(V &iL, V &vC, V &vDie, V vddEff, V load, V one) const
    {
        const V i0 = iL;
        const V v0 = vC;
        const V niL = (m00 * i0 + m01 * v0) +
            (n00 * vddEff + n01 * load);
        const V nvC = (m10 * i0 + m11 * v0) +
            (n10 * vddEff + n11 * load);
        const V nvDie = nvC + rc * (niL - load);
        iL = niL;
        vC = nvC;
        vDie = nvDie;
        return nvDie * invVdd - one;
    }
};

} // namespace vsmooth::dsp

#endif // VSMOOTH_DSP_LANE_KERNELS_HH
