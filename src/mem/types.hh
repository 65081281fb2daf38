/**
 * @file
 * Fundamental memory types shared by the host virtual-memory model
 * (mem::), the device-side IOMMU model (iommu::), and the NPF engine.
 */

#ifndef NPF_MEM_TYPES_HH
#define NPF_MEM_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace npf::mem {

/** Virtual address within an IOuser address space (also the IOVA). */
using VirtAddr = std::uint64_t;

/** Virtual page number. */
using Vpn = std::uint64_t;

/**
 * Physical frame number. 32 bits reach 16 TiB of 4 KiB frames, far
 * past any simulated host; PhysicalMemory rejects a larger one.
 */
using Pfn = std::uint32_t;
static_assert(sizeof(Pfn) == 4);

constexpr std::size_t kPageShift = 12;
constexpr std::size_t kPageSize = std::size_t(1) << kPageShift; // 4 KB

/** Sentinel for "no physical frame". */
constexpr Pfn kNoFrame = ~Pfn(0);

/** Page number containing @p addr. */
constexpr Vpn
pageOf(VirtAddr addr)
{
    return addr >> kPageShift;
}

/** First address of page @p vpn. */
constexpr VirtAddr
addrOf(Vpn vpn)
{
    return vpn << kPageShift;
}

/**
 * Print the printf-style message and a newline to stderr, then abort.
 * Misuse of the memory model (an unknown cgroup, an unpinned unpin, a
 * limit of a packed field) stops the run in every build, not only
 * where assert() is compiled in.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Number of pages covering [addr, addr + len). */
constexpr std::size_t
pagesCovering(VirtAddr addr, std::size_t len)
{
    if (len == 0)
        return 0;
    Vpn first = pageOf(addr);
    Vpn last = pageOf(addr + len - 1);
    return static_cast<std::size_t>(last - first + 1);
}

/** Round @p bytes up to a whole number of pages. */
constexpr std::size_t
pagesFor(std::size_t bytes)
{
    return (bytes + kPageSize - 1) / kPageSize;
}

} // namespace npf::mem

#endif // NPF_MEM_TYPES_HH
