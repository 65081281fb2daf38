/**
 * @file
 * Host physical memory: a frame allocator with per-frame reverse
 * mapping metadata used by the reclaim path.
 */

#ifndef NPF_MEM_PHYSICAL_MEMORY_HH
#define NPF_MEM_PHYSICAL_MEMORY_HH

#include <cassert>
#include <cstddef>
#include <optional>
#include <vector>

#include "mem/types.hh"

namespace npf::mem {

class AddressSpace;

/** Reverse-map metadata for one physical frame. */
struct Frame
{
    AddressSpace *owner = nullptr; ///< nullptr when free
    Vpn vpn = 0;                   ///< owning virtual page when allocated
};

/**
 * A fixed pool of physical frames. Allocation is O(1); the reclaim
 * logic in MemoryManager walks frames via the reverse map.
 *
 * Capacity is reserved, not touched: frames are handed out from a
 * bump counter, so the frame table holds only pfns [0, frames_.size())
 * and grows as memory is first used. A released pfn is reused before
 * any fresh one (LIFO), which is the order an eager free list that
 * starts with every pfn, lowest on top, would give.
 */
class PhysicalMemory
{
  public:
    /** @param total_bytes capacity; rounded down to whole frames. */
    explicit PhysicalMemory(std::size_t total_bytes);

    std::size_t totalFrames() const { return total_; }
    std::size_t freeFrames() const { return total_ - usedFrames(); }
    std::size_t usedFrames() const
    {
        return frames_.size() - recycled_.size();
    }

    /**
     * Allocate one frame for (@p owner, @p vpn).
     * @return the frame number, or std::nullopt when exhausted.
     */
    std::optional<Pfn> allocate(AddressSpace *owner, Vpn vpn);

    /** Return frame @p pfn to the free pool. */
    void release(Pfn pfn);

    /** Reverse-map entry for @p pfn (free if never handed out). */
    const Frame &
    frame(Pfn pfn) const
    {
        static constexpr Frame kNeverUsed{};
        assert(pfn < total_);
        return pfn < frames_.size() ? frames_[pfn] : kNeverUsed;
    }

  private:
    std::size_t total_;
    std::vector<Frame> frames_; ///< pfns handed out at least once
    std::vector<Pfn> recycled_; ///< released pfns, reused LIFO
};

} // namespace npf::mem

#endif // NPF_MEM_PHYSICAL_MEMORY_HH
