#include "tlb.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "cpu/fault_injector.hh"

namespace vsmooth::cpu {

Tlb::Tlb(std::uint32_t entries, std::uint32_t pageBytes)
    : slots_(entries), pageBytes_(pageBytes)
{
    if (entries == 0)
        fatal("TLB needs at least one entry");
    if (pageBytes == 0 || !std::has_single_bit(pageBytes))
        fatal("page size must be a power of two (got %u)", pageBytes);
    pageShift_ = static_cast<std::uint32_t>(std::countr_zero(pageBytes));
    const std::uint64_t positions =
        std::bit_ceil(2 * std::uint64_t{entries});
    index_.resize(positions);
    indexShift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(positions));
    flush();
}

std::size_t
Tlb::home(Addr vpn) const
{
    // Fibonacci hashing spreads consecutive and strided page numbers.
    return static_cast<std::size_t>((vpn * 0x9E3779B97F4A7C15ull) >>
                                    indexShift_);
}

std::size_t
Tlb::find(Addr vpn) const
{
    const std::size_t mask = index_.size() - 1;
    std::size_t pos = home(vpn);
    while (index_[pos] != kNone && slots_[index_[pos]].vpn != vpn)
        pos = (pos + 1) & mask;
    return pos;
}

void
Tlb::unlink(std::uint32_t s)
{
    const Slot &e = slots_[s];
    (e.prev == kNone ? mostRecent_ : slots_[e.prev].next) = e.next;
    (e.next == kNone ? leastRecent_ : slots_[e.next].prev) = e.prev;
}

void
Tlb::pushMostRecent(std::uint32_t s)
{
    slots_[s].prev = kNone;
    slots_[s].next = mostRecent_;
    (mostRecent_ == kNone ? leastRecent_ : slots_[mostRecent_].prev) = s;
    mostRecent_ = s;
}

void
Tlb::release(std::size_t pos)
{
    const std::uint32_t s = index_[pos];
    unlink(s);
    slots_[s].next = free_;
    free_ = s;
    // Backward-shift deletion: pull each later entry of the probe run
    // into the hole unless that would put it before its home.
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = pos;
    for (std::size_t j = (pos + 1) & mask; index_[j] != kNone;
         j = (j + 1) & mask) {
        if (((j - home(slots_[index_[j]].vpn)) & mask) >=
            ((j - hole) & mask)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole] = kNone;
}

bool
Tlb::access(Addr addr)
{
    const Addr vpn = addr >> pageShift_;
    std::size_t pos = find(vpn);
    // Same index-derived fault draw as Cache::access: a flipped entry
    // is dropped before the lookup, forcing a page walk.
    if (injector_ && injector_->shouldFault(structureId_, hits_ + misses_) &&
        index_[pos] != kNone) {
        release(pos);
        pos = find(vpn);
    }
    if (index_[pos] != kNone) {
        unlink(index_[pos]);
        pushMostRecent(index_[pos]);
        ++hits_;
        return true;
    }
    // Miss: fill a free slot, evicting the least recently used
    // translation when none is free.
    if (free_ == kNone) {
        release(find(slots_[leastRecent_].vpn));
        pos = find(vpn);
    }
    const std::uint32_t s = free_;
    free_ = slots_[s].next;
    slots_[s].vpn = vpn;
    index_[pos] = s;
    pushMostRecent(s);
    ++misses_;
    return false;
}

void
Tlb::attachFaultInjector(FaultInjector *injector, std::size_t structureId)
{
    injector_ = injector;
    structureId_ = structureId;
}

std::uint64_t
Tlb::faults() const
{
    return injector_ ? injector_->faultCount(structureId_) : 0;
}

void
Tlb::flush()
{
    std::fill(index_.begin(), index_.end(), kNone);
    mostRecent_ = leastRecent_ = free_ = kNone;
    for (auto s = static_cast<std::uint32_t>(slots_.size()); s-- > 0;) {
        slots_[s].next = free_;
        free_ = s;
    }
}

} // namespace vsmooth::cpu
