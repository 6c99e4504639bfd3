/**
 * @file
 * Scalar (width-1) instantiation of the lane-step kernel. This is the
 * portable reference every wider level must match bit-for-bit; the
 * interleaved per-slot chains still buy instruction-level parallelism
 * on the carried recurrences even without vector registers.
 */

#include <cmath>

#include "simd_kernels.hh"

namespace vsmooth::simd {
namespace {

struct VecScalar
{
    static constexpr std::size_t width = 1;

    double v;

    static VecScalar set1(double x) { return {x}; }
    static VecScalar load(const double *p) { return {*p}; }
    static void store(double *p, VecScalar a) { *p = a.v; }

    /** Sample j of each of the `width` lane streams in p[]. */
    static VecScalar gather(const double *const *p, std::size_t j)
    {
        return {p[0][j]};
    }
    static void scatter(double *const *p, std::size_t j, VecScalar a)
    {
        p[0][j] = a.v;
    }

    /** Samples j..j+width-1 of the lane streams, transposed so
     *  out[k] holds sample j+k across lanes. */
    static void gatherT(const double *const *p, std::size_t j,
                        VecScalar *out)
    {
        out[0].v = p[0][j];
    }
    static void scatterT(double *const *p, std::size_t j,
                         const VecScalar *in)
    {
        p[0][j] = in[0].v;
    }

    friend VecScalar operator+(VecScalar a, VecScalar b)
    {
        return {a.v + b.v};
    }
    friend VecScalar operator-(VecScalar a, VecScalar b)
    {
        return {a.v - b.v};
    }
    friend VecScalar operator*(VecScalar a, VecScalar b)
    {
        return {a.v * b.v};
    }
    friend VecScalar operator/(VecScalar a, VecScalar b)
    {
        return {a.v / b.v};
    }

    static VecScalar min(VecScalar a, VecScalar b)
    {
        // minpd/maxpd semantics: the second operand is returned on
        // equality. Equal finite doubles are the same bits, and the
        // kernel's clamp guards slew > 0, so ±0 never reaches the
        // equal case — every level returns identical bits.
        return {a.v < b.v ? a.v : b.v};
    }
    static VecScalar max(VecScalar a, VecScalar b)
    {
        return {a.v > b.v ? a.v : b.v};
    }

    static VecScalar gtMask(VecScalar a, VecScalar b)
    {
        return {a.v > b.v ? 1.0 : 0.0};
    }
    static VecScalar ltMask(VecScalar a, VecScalar b)
    {
        return {a.v < b.v ? 1.0 : 0.0};
    }
    /** Select b where the mask is set, else a. */
    static VecScalar blend(VecScalar a, VecScalar b, VecScalar mask)
    {
        return {mask.v != 0.0 ? b.v : a.v};
    }

    static VecScalar floorNonNeg(VecScalar a)
    {
        return {std::floor(a.v)};
    }
};

void
laneStepScalar(LaneStepArgs &args)
{
    laneStepKernel<VecScalar>(args);
}

} // namespace

const KernelSet kScalarKernels = {laneStepScalar, nullptr, nullptr};

} // namespace vsmooth::simd
