/**
 * @file
 * Per-IOuser virtual address space: a radix page table with demand
 * paging, pinning, and MMU-notifier callbacks into device page
 * tables (the invalidation flow of the paper's Figure 2, a-d).
 */

#ifndef NPF_MEM_ADDRESS_SPACE_HH
#define NPF_MEM_ADDRESS_SPACE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/page_map.hh"
#include "mem/types.hh"
#include "sim/time.hh"

namespace npf::mem {

class MemoryManager;
struct Cgroup;

/**
 * Software page-table entry, packed into 8 bytes: the frame number, a
 * pin count of kPinBits bits and the five state bits. A page-table
 * leaf of 512 entries is then one 4 KiB page plus its in-use bitmap.
 */
struct Pte
{
    static constexpr unsigned kPinBits = 27;
    /// most pins one page holds; pinRange() aborts past it
    static constexpr std::uint32_t kMaxPins = (1u << kPinBits) - 1;

    Pfn pfn = kNoFrame;
    std::uint32_t pinCount : kPinBits = 0;
    bool present : 1 = false;
    bool referenced : 1 = false; ///< second-chance bit for the clock
    bool dirty : 1 = false;      ///< must go to swap when evicted
    bool fileBacked : 1 = false; ///< clean drop on eviction; re-read by owner
    bool inSwap : 1 = false;     ///< content lives in the backing store
};
static_assert(sizeof(Pte) == 8, "Pte must pack into 8 bytes");

/** Outcome of a CPU (or DMA-resolution) memory access. */
struct AccessResult
{
    sim::Time cost = 0;       ///< total latency charged to the accessor
    unsigned minorFaults = 0; ///< pages that needed only a frame
    unsigned majorFaults = 0; ///< pages that also required a swap read
    bool ok = true;           ///< false on out-of-memory
};

/**
 * An IOuser's virtual address space.
 *
 * Regions are reserved with allocRegion() (delayed allocation: no
 * frames until first touch). CPU accesses go through touch(); the
 * NPF engine resolves device faults through the same MemoryManager
 * fault path. Invalidation notifiers model Linux MMU notifiers: the
 * reclaim path calls them before stealing a page so the IOMMU page
 * table never maps a reused frame.
 */
class AddressSpace
{
  public:
    /** Called with the vpn being unmapped; returns the latency. */
    using InvalidateNotifier = std::function<sim::Time(Vpn)>;

    /** @param id this space's index in @p mm's list (Frame::owner). */
    AddressSpace(MemoryManager &mm, std::uint32_t id, std::string name,
                 Cgroup *cgroup);
    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    std::uint32_t id() const { return id_; }
    const std::string &name() const { return name_; }
    Cgroup *cgroup() const { return cgroup_; }
    MemoryManager &manager() { return mm_; }

    /**
     * Reserve @p bytes of virtual address space.
     * No physical memory is consumed until pages are touched. Aborts
     * when the region would reach past Frame::kMaxVpn.
     * @return the base address of the region.
     */
    VirtAddr allocRegion(std::size_t bytes, std::string label = {},
                         bool file_backed = false);

    /** Release a region and all frames backing it. Aborts unless
     *  @p base is the base of a live region. */
    void freeRegion(VirtAddr base);

    /**
     * CPU access to [addr, addr + len): faults in absent pages and
     * returns the accumulated latency. @p write marks pages dirty.
     */
    AccessResult touch(VirtAddr addr, std::size_t len, bool write);

    /** Fault in a single page (used by the NPF resolution path). */
    AccessResult touchPage(Vpn vpn, bool write);

    /**
     * Pin [addr, addr + len): fault pages in and exclude them from
     * reclaim. Fails (rolling back) if memory or the pinning limit
     * is exhausted; aborts on a page already pinned Pte::kMaxPins
     * times.
     */
    AccessResult pinRange(VirtAddr addr, std::size_t len);

    /** Undo one pinRange() of the same extent. Aborts on a page that
     *  is not pinned. */
    void unpinRange(VirtAddr addr, std::size_t len);

    /** True if the page is resident. */
    bool isPresent(Vpn vpn) const;

    /** PTE lookup; nullptr when the page was never touched. */
    const Pte *findPte(Vpn vpn) const;
    Pte *findPte(Vpn vpn);

    /** PTE lookup, creating an absent entry on demand. */
    Pte &pte(Vpn vpn);

    /** Register an MMU-notifier for device page-table invalidation. */
    void registerInvalidateNotifier(InvalidateNotifier fn);

    /** Invoke all notifiers for @p vpn; returns accumulated latency. */
    sim::Time notifyInvalidate(Vpn vpn);

    std::size_t residentPages() const { return residentPages_; }
    std::size_t pinnedPages() const { return pinnedPages_; }

    /** Resident bytes (the RSS the paper plots in Fig. 8(b)). */
    std::size_t residentBytes() const { return residentPages_ * kPageSize; }

  private:
    friend class MemoryManager;

    struct Region
    {
        VirtAddr base;
        std::size_t pages;
        std::string label;
        bool fileBacked;
    };

    MemoryManager &mm_;
    std::uint32_t id_;
    std::string name_;
    Cgroup *cgroup_;
    PageMap<Pte> pageTable_;
    std::vector<Region> regions_;
    std::vector<InvalidateNotifier> notifiers_;
    VirtAddr nextRegionBase_ = 0x10000000ull;
    std::size_t residentPages_ = 0;
    std::size_t pinnedPages_ = 0;
};

} // namespace npf::mem

#endif // NPF_MEM_ADDRESS_SPACE_HH
