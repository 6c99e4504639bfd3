/**
 * @file
 * Global operator new/delete interposer (see alloc_audit.hh) and the
 * AllocAudit tests that use it to prove the steady-state simulation
 * paths never touch the heap.
 */

#include "alloc_audit.hh"

#include <cstdlib>
#include <new>

namespace {

// Thread-local so the audited spans only see the test thread's own
// traffic. Plain counters, no synchronization needed.
thread_local std::uint64_t tlAllocations = 0;
thread_local std::uint64_t tlDeallocations = 0;

void *
countedAlloc(std::size_t size)
{
    ++tlAllocations;
    // malloc(0) may return null; operator new must not.
    void *p = std::malloc(size == 0 ? 1 : size);
    return p;
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    ++tlAllocations;
    // aligned_alloc requires size to be a multiple of the alignment.
    const std::size_t rounded = (size + align - 1) / align * align;
    return std::aligned_alloc(align, rounded == 0 ? align : rounded);
}

void
countedFree(void *p)
{
    if (p == nullptr)
        return;
    ++tlDeallocations;
    std::free(p);
}

} // namespace

namespace vsmooth::testing {

AllocCounts
allocCounts()
{
    return {tlAllocations, tlDeallocations};
}

} // namespace vsmooth::testing

// ---------------------------------------------------------------------
// Replaceable global allocation functions ([new.delete]): counting
// forwarders onto malloc/free. free() releases aligned_alloc memory
// too, so every delete funnels through one counter.

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(size,
                                      static_cast<std::size_t>(align)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

// ---------------------------------------------------------------------
// The audit tests.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cpu/fast_core.hh"
#include "sim/lane_group.hh"
#include "sim/system.hh"
#include "workload/microbench.hh"
#include "workload/spec_suite.hh"

using namespace vsmooth;
using namespace vsmooth::sim;
using vsmooth::testing::AllocSpan;

namespace {

std::unique_ptr<cpu::FastCore>
loopingCore(const char *name, std::uint64_t seed)
{
    return std::make_unique<cpu::FastCore>(
        workload::scheduleFor(workload::specByName(name), 9'000, true),
        seed);
}

} // namespace

TEST(AllocAudit, InterposerCountsHeapTraffic)
{
    AllocSpan span;
    {
        std::vector<double> v(512);
        // Escape the buffer so the allocation cannot be elided.
        *static_cast<volatile double *>(v.data()) = 1.0;
    }
    EXPECT_GE(span.allocations(), 1u);
    EXPECT_GE(span.deallocations(), 1u);
}

// After warm-up (buffer sizing, histogram construction, first
// OS-tick-free stretch), System::run's blocked pipeline — core
// tickBlock, steadyBlock, PDN stepBlock, scope/detector feeds — must
// be completely allocation-free.
TEST(AllocAudit, SystemSteadyBlocksDoNotAllocate)
{
    System sys(SystemConfig{});
    sys.addCore(loopingCore("sphinx", 11));
    sys.addCore(loopingCore("mcf", 12));
    sys.run(16'384); // warm-up: start() sizing + first blocks

    AllocSpan span;
    sys.run(64 * 1024); // 256 more blocks
    EXPECT_EQ(span.allocations(), 0u);
    EXPECT_EQ(span.deallocations(), 0u);
}

// Same property for the fused cross-lane drain: after one warm run
// has sized the lane scratch, further drains of the same shape never
// allocate (the plan list itself is the caller's).
TEST(AllocAudit, LaneGroupSteadyDrainDoesNotAllocate)
{
    static const char *const kNames[] = {"sphinx", "mcf", "hmmer",
                                         "bzip2"};
    std::vector<std::unique_ptr<System>> systems;
    for (std::size_t i = 0; i < 4; ++i) {
        auto sys = std::make_unique<System>(SystemConfig{});
        sys->addCore(loopingCore(kNames[i], 20 + i));
        sys->addCore(loopingCore(kNames[(i + 1) % 4], 30 + i));
        systems.push_back(std::move(sys));
    }

    LaneGroup group(4);
    auto makePlans = [&systems](Cycles cycles) {
        std::vector<LanePlan> plans;
        plans.reserve(systems.size());
        for (auto &sys : systems) {
            LanePlan plan;
            plan.system = sys.get();
            plan.cycles = cycles;
            plans.push_back(plan);
        }
        return plans;
    };

    auto warm = makePlans(8'192);
    group.run(warm); // sizes lanes_ and the stepFused scratch

    auto plans = makePlans(32'768);
    AllocSpan span;
    group.run(plans);
    EXPECT_EQ(span.allocations(), 0u);
    EXPECT_EQ(span.deallocations(), 0u);
}
