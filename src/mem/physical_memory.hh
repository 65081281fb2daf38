/**
 * @file
 * Host physical memory: a frame allocator with per-frame reverse
 * mapping metadata used by the reclaim path.
 */

#ifndef NPF_MEM_PHYSICAL_MEMORY_HH
#define NPF_MEM_PHYSICAL_MEMORY_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/types.hh"
#include "sim/page_allocator.hh"

namespace npf::mem {

/**
 * Reverse-map metadata for one physical frame, packed into 8 bytes:
 * the owner is an index into MemoryManager's address-space list, which
 * only grows, and the vpn is kept in 32 bits (16 TiB of VA per space;
 * AddressSpace::allocRegion() refuses a region past it).
 */
struct Frame
{
    /// owner of a free frame: no manager holds 2^32 - 1 spaces
    static constexpr std::uint32_t kFree = ~std::uint32_t(0);
    /// largest vpn a frame records
    static constexpr Vpn kMaxVpn = ~std::uint32_t(0);

    std::uint32_t owner = kFree; ///< AddressSpace::id(); kFree when free
    std::uint32_t vpn = 0;       ///< owning virtual page
};
static_assert(sizeof(Frame) == 8, "Frame must pack into 8 bytes");

/**
 * A fixed pool of physical frames. Allocation is O(1); the reclaim
 * logic in MemoryManager walks frames via the reverse map.
 *
 * Capacity is reserved, not touched: frames are handed out from a
 * bump counter, so the frame table holds only pfns [0, frames_.size())
 * and grows as memory is first used. A released pfn is reused before
 * any fresh one (LIFO), which is the order an eager free list that
 * starts with every pfn, lowest on top, would give.
 *
 * Both arrays are reserved to the frame count on kernel pages
 * (sim::PageAllocator), so the reservation stays address space even
 * when an earlier instance left freed, resident chunks in the heap.
 */
class PhysicalMemory
{
  public:
    /** @param total_bytes capacity; rounded down to whole frames.
     *  Aborts at kNoFrame frames (16 TiB) or more, before it reserves
     *  anything: every pfn must fit Pfn below kNoFrame. */
    explicit PhysicalMemory(std::size_t total_bytes);

    std::size_t totalFrames() const { return total_; }
    std::size_t freeFrames() const { return total_ - usedFrames(); }
    std::size_t usedFrames() const
    {
        return frames_.size() - recycled_.size();
    }

    /**
     * Allocate one frame for page @p vpn of address space @p owner
     * (AddressSpace::id()). Aborts when @p vpn exceeds Frame::kMaxVpn.
     * @return the frame number, or std::nullopt when exhausted.
     */
    std::optional<Pfn> allocate(std::uint32_t owner, Vpn vpn);

    /** Return frame @p pfn to the free pool. Aborts, in every build,
     *  unless @p pfn is allocated. */
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
    /// pfns handed out at least once
    std::vector<Frame, sim::PageAllocator<Frame>> frames_;
    /// released pfns, reused LIFO
    std::vector<Pfn, sim::PageAllocator<Pfn>> recycled_;
};

} // namespace npf::mem

#endif // NPF_MEM_PHYSICAL_MEMORY_HH
