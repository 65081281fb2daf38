#include "mem/physical_memory.hh"

namespace npf::mem {

PhysicalMemory::PhysicalMemory(std::size_t total_bytes)
    : total_(total_bytes / kPageSize)
{
    if (total_ >= kNoFrame)
        fatal("mem::PhysicalMemory: %zu frames do not fit a 32-bit pfn "
              "(at most %u)",
              total_, kNoFrame - 1);
    frames_.reserve(total_); // address space only: nothing is written
    recycled_.reserve(total_);
}

std::optional<Pfn>
PhysicalMemory::allocate(std::uint32_t owner, Vpn vpn)
{
    if (vpn > Frame::kMaxVpn)
        fatal("mem::PhysicalMemory: allocate for vpn %llu, past the "
              "largest a frame records",
              static_cast<unsigned long long>(vpn));
    if (recycled_.empty()) {
        if (frames_.size() == total_)
            return std::nullopt;
        recycled_.push_back(Pfn(frames_.size())); // next fresh pfn
        frames_.emplace_back();
    }
    Pfn pfn = recycled_.back();
    recycled_.pop_back();
    frames_[pfn] = Frame{owner, std::uint32_t(vpn)};
    return pfn;
}

void
PhysicalMemory::release(Pfn pfn)
{
    // A double release would hand one frame to two later faults; a pfn
    // past the table would write out of bounds.
    if (pfn >= frames_.size() || frames_[pfn].owner == Frame::kFree)
        fatal("mem::PhysicalMemory: release of pfn %u, which is %s", pfn,
              pfn >= frames_.size() ? "past the frame table"
                                    : "not allocated");
    frames_[pfn] = Frame{};
    recycled_.push_back(pfn);
}

} // namespace npf::mem
