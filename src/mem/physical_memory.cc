#include "mem/physical_memory.hh"

namespace npf::mem {

PhysicalMemory::PhysicalMemory(std::size_t total_bytes)
    : total_(total_bytes / kPageSize)
{
    frames_.reserve(total_); // address space only: nothing is written
    recycled_.reserve(total_);
}

std::optional<Pfn>
PhysicalMemory::allocate(AddressSpace *owner, Vpn vpn)
{
    if (recycled_.empty()) {
        if (frames_.size() == total_)
            return std::nullopt;
        recycled_.push_back(frames_.size()); // next fresh pfn
        frames_.emplace_back();
    }
    Pfn pfn = recycled_.back();
    recycled_.pop_back();
    frames_[pfn] = Frame{owner, vpn};
    return pfn;
}

void
PhysicalMemory::release(Pfn pfn)
{
    assert(pfn < frames_.size());
    assert(frames_[pfn].owner != nullptr && "double free of frame");
    frames_[pfn] = Frame{};
    recycled_.push_back(pfn);
}

} // namespace npf::mem
