/** @file Tests for the cache, TLB, and branch predictor structures. */

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/cache.hh"
#include "cpu/fault_injector.hh"
#include "cpu/tlb.hh"
#include "common/rng.hh"

using namespace vsmooth;
using namespace vsmooth::cpu;

TEST(Cache, ColdMissThenHit)
{
    Cache cache({1024, 2, 64});
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1004)); // same line
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, GeometryDerivation)
{
    Cache cache({32 * 1024, 8, 64});
    EXPECT_EQ(cache.numSets(), 64u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2-way, 8 sets of 64 B lines: addresses 0, 1024, 2048 map to
    // set 0. Access 0, 1024, then 2048 evicts 0 (LRU).
    Cache cache({1024, 2, 64});
    cache.access(0);
    cache.access(1024);
    cache.access(2048);
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.contains(1024));
    EXPECT_TRUE(cache.contains(2048));
}

TEST(Cache, LruUpdatedOnHit)
{
    Cache cache({1024, 2, 64});
    cache.access(0);
    cache.access(1024);
    cache.access(0);    // refresh 0
    cache.access(2048); // evicts 1024 now
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1024));
}

TEST(Cache, ContainsDoesNotAllocate)
{
    Cache cache({1024, 2, 64});
    EXPECT_FALSE(cache.contains(0x40));
    EXPECT_FALSE(cache.access(0x40)); // still a miss
}

TEST(Cache, FlushInvalidatesAll)
{
    Cache cache({1024, 2, 64});
    cache.access(0);
    cache.flush();
    EXPECT_FALSE(cache.contains(0));
}

TEST(Cache, CapacityMissPattern)
{
    // Stride through twice the capacity: second pass still misses.
    Cache cache(core2L1dGeometry());
    const std::uint64_t footprint = 64 * 1024;
    for (Addr a = 0; a < footprint; a += 64)
        cache.access(a);
    const auto misses_before = cache.misses();
    for (Addr a = 0; a < footprint; a += 64)
        cache.access(a);
    EXPECT_EQ(cache.misses(), misses_before + footprint / 64);
}

TEST(Cache, FitsWorkingSetAfterWarmup)
{
    Cache cache(core2L1dGeometry());
    const std::uint64_t footprint = 16 * 1024; // half of L1
    for (int pass = 0; pass < 4; ++pass)
        for (Addr a = 0; a < footprint; a += 64)
            cache.access(a);
    EXPECT_NEAR(cache.missRate(), 0.25, 0.01); // only cold misses
}

TEST(CacheDeath, InvalidGeometry)
{
    EXPECT_EXIT(Cache({1000, 2, 60}), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(Cache({1024, 0, 64}), ::testing::ExitedWithCode(1),
                "associativity");
}

TEST(Tlb, HitAfterFill)
{
    Tlb tlb(4, 4096);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1fff)); // same page
    EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb(2, 4096);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.access(0x0000);  // refresh page 0
    tlb.access(0x2000);  // evicts page 1
    EXPECT_TRUE(tlb.access(0x0000));
    EXPECT_FALSE(tlb.access(0x1000));
}

TEST(Tlb, ThrashWhenWorkingSetExceedsEntries)
{
    Tlb tlb(256, 4096);
    // 384 pages cyclically with LRU: every access misses.
    for (int pass = 0; pass < 3; ++pass)
        for (Addr p = 0; p < 384; ++p)
            tlb.access(p * 4096);
    EXPECT_EQ(tlb.hits(), 0u);
}

TEST(Tlb, FlushClears)
{
    Tlb tlb(4, 4096);
    tlb.access(0x1000);
    tlb.flush();
    EXPECT_FALSE(tlb.access(0x1000));
}

namespace {

/** The reference `Tlb` must match, a linear-scan LRU TLB: every
 *  access scans all entries, and a miss fills the last invalid entry,
 *  else the least recently used one. */
class ScanTlb
{
  public:
    ScanTlb(std::uint32_t entries, FaultInjector &injector)
        : entries_(entries), injector_(injector),
          structureId_(injector.registerStructure("tlb"))
    {
    }

    bool
    access(Addr addr)
    {
        const Addr vpn = addr >> 12;
        if (injector_.shouldFault(structureId_, hits_ + misses_)) {
            for (auto &e : entries_) {
                if (e.valid && e.vpn == vpn) {
                    e.valid = false;
                    break;
                }
            }
        }
        ++useClock_;
        Entry *victim = &entries_.front();
        for (auto &e : entries_) {
            if (e.valid && e.vpn == vpn) {
                e.lastUse = useClock_;
                ++hits_;
                return true;
            }
            if (!e.valid)
                victim = &e;
            else if (victim->valid && e.lastUse < victim->lastUse)
                victim = &e;
        }
        *victim = {vpn, true, useClock_};
        ++misses_;
        return false;
    }

    void
    flush()
    {
        for (auto &e : entries_)
            e.valid = false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t faults() const
    { return injector_.faultCount(structureId_); }

  private:
    struct Entry
    {
        Addr vpn = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::vector<Entry> entries_;
    FaultInjector &injector_;
    std::size_t structureId_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace

TEST(Tlb, MatchesTheLinearScanAtConstantCost)
{
    // One fault in about 20 accesses: faults drop resident entries.
    FaultModelParams params;
    params.rateAtZeroMargin = 0.05;
    const std::function<Addr(std::uint64_t, Rng &)> streams[] = {
        // random pages over twice the largest table
        [](std::uint64_t, Rng &rng) {
            return rng.uniformInt(0, 511) << 12;
        },
        // a stride of 7 pages through 200: fits only the largest table
        [](std::uint64_t i, Rng &) { return (i * 7 % 200) << 12; },
        // one page more than the table, cyclically: LRU thrashes
        [](std::uint64_t i, Rng &) { return (i % 257) << 12; },
        // a hot set of 8 pages with a cold page every fourth access
        [](std::uint64_t i, Rng &rng) {
            return (i % 4 ? rng.uniformInt(0, 7) : rng.uniformInt(8, 1007))
                   << 12;
        },
    };
    for (const std::uint32_t entries : {1u, 5u, 64u, 256u}) {
        for (std::size_t k = 0; k < std::size(streams); ++k) {
            FaultInjector fastFaults(params, 7), scanFaults(params, 7);
            fastFaults.setMargin(0.0);
            scanFaults.setMargin(0.0);
            Tlb tlb(entries, 4096);
            tlb.attachFaultInjector(&fastFaults,
                                    fastFaults.registerStructure("tlb"));
            ScanTlb scan(entries, scanFaults);
            Rng rng(100 + k);
            for (std::uint64_t i = 0; i < 20'000; ++i) {
                if (i == 10'000) {
                    tlb.flush();
                    scan.flush();
                }
                const Addr addr = streams[k](i, rng) | (i & 0xfff);
                ASSERT_EQ(tlb.access(addr), scan.access(addr))
                    << entries << " entries, stream " << k << ", access "
                    << i;
                ASSERT_EQ(tlb.hits(), scan.hits());
                ASSERT_EQ(tlb.misses(), scan.misses());
                ASSERT_EQ(tlb.faults(), scan.faults());
            }
            EXPECT_GT(tlb.faults(), 0u);
        }
    }

    // At 2^18 entries a scan would visit every entry on every access;
    // the table's lookups take a few steps whatever its size. Looping
    // over the capacity hits on every pass after the first, and over
    // one page more misses every time.
    constexpr std::uint64_t kEntries = 1 << 18;
    const auto start = std::chrono::steady_clock::now();
    for (const std::uint64_t pages : {kEntries, kEntries + 1}) {
        Tlb tlb(kEntries, 4096);
        for (std::uint64_t i = 0; i < 3 * pages; ++i) {
            tlb.access((i % pages) << 12);
            if (i % 4096 == 0) {
                ASSERT_LT(std::chrono::steady_clock::now() - start,
                          std::chrono::seconds(10))
                    << "access cost grows with the table";
            }
        }
        EXPECT_EQ(tlb.misses(), pages == kEntries ? pages : 3 * pages);
    }
}

TEST(TlbDeath, InvalidConfig)
{
    EXPECT_EXIT(Tlb(0, 4096), ::testing::ExitedWithCode(1),
                "at least one");
    EXPECT_EXIT(Tlb(4, 1000), ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(BranchPredictor, LearnsAlwaysTaken)
{
    BranchPredictor bp(10);
    for (int i = 0; i < 100; ++i)
        bp.predictAndTrain(0x400, true);
    // After warmup, the counter saturates: final predictions correct.
    BranchPredictor warm(10);
    int wrong = 0;
    for (int i = 0; i < 1000; ++i)
        wrong += !warm.predictAndTrain(0x400, true);
    EXPECT_LT(wrong, 25);
}

TEST(BranchPredictor, RandomBranchesNearFiftyPercent)
{
    BranchPredictor bp(14);
    Rng rng(3);
    std::uint64_t wrong = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        wrong += !bp.predictAndTrain(0x400, rng.bernoulli(0.5));
    EXPECT_NEAR(static_cast<double>(wrong) / n, 0.5, 0.05);
    EXPECT_NEAR(bp.mispredictRate(), static_cast<double>(wrong) / n,
                1e-12);
}

TEST(BranchPredictor, PatternLearnedThroughHistory)
{
    // Strict alternation is learnable via the global history register.
    BranchPredictor bp(12);
    bool taken = false;
    for (int i = 0; i < 2000; ++i) {
        bp.predictAndTrain(0x800, taken);
        taken = !taken;
    }
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        wrong += !bp.predictAndTrain(0x800, taken);
        taken = !taken;
    }
    EXPECT_LT(wrong, 50);
}

TEST(BranchPredictorDeath, BadTableBits)
{
    EXPECT_EXIT(BranchPredictor(0), ::testing::ExitedWithCode(1),
                "table bits");
    EXPECT_EXIT(BranchPredictor(30), ::testing::ExitedWithCode(1),
                "table bits");
}
