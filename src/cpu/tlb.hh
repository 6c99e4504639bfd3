/**
 * @file
 * Fully-associative translation lookaside buffer with LRU replacement.
 * A TLB miss triggers a hardware page walk, which is one of the stall
 * events the paper's microbenchmarks isolate (Fig 11: TLB misses
 * produce recurring voltage overshoots).
 *
 * A lookup costs O(1) whatever the size: an open-addressed page-number
 * index finds a translation's slot, and a doubly linked recency list
 * over the slots names the least recently used one. Which slot holds a
 * page is invisible: hits, misses and faults depend only on the set of
 * resident pages, which any exact LRU evolves the same way.
 */

#ifndef VSMOOTH_CPU_TLB_HH
#define VSMOOTH_CPU_TLB_HH

#include <cstdint>
#include <vector>

#include "cpu/cache.hh"

namespace vsmooth::cpu {

/** Fully-associative LRU TLB. */
class Tlb
{
  public:
    /**
     * @param entries number of TLB entries (Core 2 DTLB: 256)
     * @param pageBytes page size (4 KiB)
     */
    explicit Tlb(std::uint32_t entries = 256,
                 std::uint32_t pageBytes = 4096);

    /**
     * Translate an address; fills the entry on miss.
     * @return true on hit
     */
    bool access(Addr addr);

    void flush();

    /** Route translations through an undervolt fault model (see
     *  Cache::attachFaultInjector); a fault drops the addressed entry
     *  before the lookup, forcing a page walk. */
    void attachFaultInjector(FaultInjector *injector,
                             std::size_t structureId);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** Bit-flip faults this TLB has taken (0 without an injector). */
    std::uint64_t faults() const;
    std::uint32_t numEntries() const
    { return static_cast<std::uint32_t>(slots_.size()); }
    std::uint32_t pageBytes() const { return pageBytes_; }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** One translation. A valid slot sits in the recency list (`prev`
     *  towards the most recent), a free one in the free list. */
    struct Slot
    {
        Addr vpn = 0;
        std::uint32_t prev = kNone;
        std::uint32_t next = kNone;
    };

    /** Index position holding `vpn`'s slot, or the empty position
     *  where it would go. */
    std::size_t find(Addr vpn) const;
    std::size_t home(Addr vpn) const;
    /** Drop the translation at index position `pos`; its slot joins
     *  the free list. */
    void release(std::size_t pos);
    void unlink(std::uint32_t s);
    void pushMostRecent(std::uint32_t s);

    std::vector<Slot> slots_;
    /** Open-addressed (linear probing) page number -> slot, kNone when
     *  empty; at least twice as many positions as slots. */
    std::vector<std::uint32_t> index_;
    std::uint32_t indexShift_;
    std::uint32_t mostRecent_ = kNone;
    std::uint32_t leastRecent_ = kNone;
    std::uint32_t free_ = kNone;
    std::uint32_t pageBytes_;
    std::uint32_t pageShift_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    FaultInjector *injector_ = nullptr;
    std::size_t structureId_ = 0;
};

} // namespace vsmooth::cpu

#endif // VSMOOTH_CPU_TLB_HH
