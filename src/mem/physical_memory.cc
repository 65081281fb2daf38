#include "mem/physical_memory.hh"

#include <cstdio>
#include <cstdlib>

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
    // A double release would hand one frame to two later faults; a pfn
    // past the table would write out of bounds.
    if (pfn >= frames_.size() || frames_[pfn].vpn == Frame::kFree) {
        std::fprintf(stderr,
                     "mem::PhysicalMemory: release of pfn %llu, which is "
                     "%s\n",
                     static_cast<unsigned long long>(pfn),
                     pfn >= frames_.size() ? "past the frame table"
                                           : "not allocated");
        std::abort();
    }
    frames_[pfn] = Frame{};
    recycled_.push_back(pfn);
}

} // namespace npf::mem
