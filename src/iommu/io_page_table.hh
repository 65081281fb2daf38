/**
 * @file
 * Device-side I/O page table. In the paper's prototype this is the
 * on-NIC IOMMU's DRAM-resident table whose PTEs are allowed to be
 * invalid — the property that makes NPFs possible at all (§4).
 */

#ifndef NPF_IOMMU_IO_PAGE_TABLE_HH
#define NPF_IOMMU_IO_PAGE_TABLE_HH

#include <cstddef>
#include <optional>

#include "mem/page_map.hh"
#include "mem/types.hh"

namespace npf::iommu {

/**
 * IOVA -> PFN mapping for one IOchannel. A PTE is invalid when it was
 * never installed *or* holds mem::kNoFrame: unmap() writes the
 * tombstone instead of erasing, exactly like the real DRAM table
 * where the PTE slot persists and only its valid bit flips. The
 * entries live in a mem::PageMap, so a map/unmap/remap cycle (the
 * per-IO NP-RDMA discipline's steady state) rewrites one slot in a
 * leaf that already exists and never allocates.
 */
class IoPageTable
{
  public:
    /** Translation; std::nullopt when the PTE is invalid. */
    std::optional<mem::Pfn>
    lookup(mem::Vpn vpn) const
    {
        const mem::Pfn *pfn = table_.find(vpn);
        if (pfn == nullptr || *pfn == mem::kNoFrame)
            return std::nullopt;
        return *pfn;
    }

    /** Install a valid PTE (driver fills this after resolving). */
    void
    map(mem::Vpn vpn, mem::Pfn pfn)
    {
        auto [entry, inserted] = table_.insert(vpn);
        if (inserted || entry == mem::kNoFrame)
            ++live_;
        entry = pfn;
    }

    /**
     * Invalidate a PTE.
     * @return true if the page was mapped (drives the cheap/expensive
     *   split in the invalidation breakdown of Fig. 3(b)).
     */
    bool
    unmap(mem::Vpn vpn)
    {
        mem::Pfn *pfn = table_.find(vpn);
        if (pfn == nullptr || *pfn == mem::kNoFrame)
            return false;
        *pfn = mem::kNoFrame;
        --live_;
        return true;
    }

    bool isMapped(mem::Vpn vpn) const { return lookup(vpn).has_value(); }

    std::size_t mappedPages() const { return live_; }

  private:
    mem::PageMap<mem::Pfn> table_;
    std::size_t live_ = 0;
};

} // namespace npf::iommu

#endif // NPF_IOMMU_IO_PAGE_TABLE_HH
