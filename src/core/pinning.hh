/**
 * @file
 * The two registration disciplines that do work per transfer: the
 * paper's coarse-grained pin-down cache (§2.2) and NP-RDMA-style
 * on-demand IOVA mapping (dynamic DMA mapping with a driver-side
 * translation table). core::Registration (core/registration.hh) puts
 * them behind one interface together with copying and NPF, which
 * register nothing; see docs/REGISTRATION.md.
 */

#ifndef NPF_CORE_PINNING_HH
#define NPF_CORE_PINNING_HH

#include <cstdint>
#include <list>
#include <map>

#include "core/npf_controller.hh"
#include "mem/address_space.hh"
#include "obs/metrics.hh"
#include "sim/lru_index.hh"
#include "sim/time.hh"

namespace npf::core {

/** Costs of pin/unpin/register operations (§2.2 overheads). */
struct PinCosts
{
    /** mlock/get_user_pages fixed syscall cost. */
    sim::Time pinBase = sim::fromMicroseconds(1.5);
    /** Per-page pin cost (page walk + refcount). */
    sim::Time pinPerPage = 1200;
    /** Per-page IOMMU/MTT map cost on the pin path. */
    sim::Time iommuMapPerPage = 800;
    /** Unpin fixed cost. */
    sim::Time unpinBase = sim::fromMicroseconds(1.0);
    /** Per-page unpin + IOMMU unmap + IOTLB invalidate cost. */
    sim::Time unpinPerPage = 600;
    /** Memory-region registration (ibv_reg_mr-style) fixed cost.
     *  Mietke et al. measure registration in the hundreds of us on
     *  Mellanox stacks. */
    sim::Time regMrBase = sim::fromMicroseconds(120);
    /** Pin-down cache hit lookup cost. */
    sim::Time cacheLookup = 200;
};

/** The pin path's prices. */
inline constexpr PinCosts kPinCosts{};

/**
 * Costs of NP-RDMA-style on-demand IOVA mapping (dynamic DMA
 * mapping through the kernel DMA API, amortized by a driver-side
 * translation table). Per-IO map/unmap replaces pin/unpin: there is
 * no get_user_pages refcounting and no ibv_reg_mr, just IOVA
 * allocation plus IOMMU PTE installs, so the per-page costs sit well
 * below PinCosts' pin path.
 */
struct MapCosts
{
    /** dma_map_sg-style driver entry (IOVA allocation included). */
    sim::Time mapBase = sim::fromMicroseconds(0.6);
    /** Per-page IOMMU PTE install on the map path. */
    sim::Time mapPerPage = 400;
    /** dma_unmap fixed cost. */
    sim::Time unmapBase = sim::fromMicroseconds(0.5);
    /** Per-page PTE clear (the IOTLB invalidate is charged through
     *  the NpfController's Fig. 3(b) invalidation model). */
    sim::Time unmapPerPage = 300;
    /** Driver translation-table probe (both map and unmap side). */
    sim::Time tableLookup = 150;
};

/** The NP-RDMA map path's prices. */
inline constexpr MapCosts kMapCosts{};

/**
 * Coarse-grained pin-down cache (§2.2): registered regions stay
 * pinned until LRU eviction makes room under a byte budget. The
 * state-of-the-art HPC middleware discipline the paper benchmarks
 * against in Fig. 9 / Table 6.
 */
class PinDownCache
{
  public:
    /**
     * @param capacity_bytes pinned-byte budget; 0 = unlimited (the
     *   HPC common case where the cache degenerates to pin-everything).
     */
    PinDownCache(NpfController &npfc, ChannelId ch,
                 std::size_t capacity_bytes);

    /** Register [addr, addr+len) unless a cached region covers it:
     *  a hit costs a lookup, a miss pins, maps and registers (after
     *  evicting to fit the budget). @return the latency charged.
     *  Regions stay registered, so there is no afterDma. */
    sim::Time beforeDma(mem::VirtAddr addr, std::size_t len);

    /** False once a registration could not be pinned even with the
     *  cache evicted (out of memory / pin limit). */
    bool ok() const { return ok_; }
    /** Bytes currently pinned, each page once. */
    std::size_t pinnedBytes() const { return pinnedBytes_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** Capacity / memory-pressure evictions only. */
    std::uint64_t evictions() const { return evictions_; }
    /** Same-base re-registrations (old region retired in place). */
    std::uint64_t reregistrations() const { return reregistrations_; }

  private:
    struct Region
    {
        mem::VirtAddr base;
        std::size_t len; ///< exact registered length, not page-rounded
        std::list<mem::VirtAddr>::iterator lruIt;
    };

    sim::Time evictOne();
    sim::Time evictRegion(std::map<mem::VirtAddr, Region>::iterator it);

    NpfController &npfc_;
    ChannelId ch_;
    std::size_t capacity_;
    bool ok_ = true;
    std::size_t pinnedBytes_ = 0;
    std::map<mem::VirtAddr, Region> regions_; ///< by base address
    std::list<mem::VirtAddr> lru_;            ///< front = most recent
    /// Regions covering each pinned page; pinnedBytes_ counts a page
    /// once no matter how many cached regions overlap it.
    std::map<mem::Vpn, unsigned> pageRefs_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t reregistrations_ = 0;
};

/**
 * NP-RDMA-style on-demand IOVA mapping: RDMA without pinning on a
 * commodity (non-NPF) NIC. Every transfer dynamically maps its buffer
 * through the DMA API (beforeDma) and unmaps it at completion
 * (afterDma); the driver keeps a bounded translation table of
 * in-flight extents so concurrent IOs over the same buffer share one
 * mapping. Pages are faulted in CPU-side and their translations are
 * pushed into the device IOTLB with the map doorbell, so the NIC
 * never takes an NPF and there is no RNR-NACK path — but nothing is
 * pinned either, and every unmap invalidates its pages in the IOTLB,
 * so miss-heavy workloads thrash the device cache (visible in
 * IoTlb::Stats: invalidations and refreshes track the re-map
 * traffic).
 *
 * The table is a sim::LruIndex (docs/MEMORY.md "Flat caches") sized
 * once at construction — the per-IO path performs no heap allocation
 * in steady state (scripts/check.sh tier 9 gates this).
 */
class NpRdmaMapping
{
  public:
    struct Stats
    {
        std::uint64_t maps = 0;      ///< dynamic map operations
        std::uint64_t unmaps = 0;    ///< dynamic unmap operations
        std::uint64_t reuses = 0;    ///< table hits (shared mapping)
        std::uint64_t overflows = 0; ///< table full of live extents
        std::uint64_t pagesMapped = 0;
        std::uint64_t pagesUnmapped = 0;
    };

    /** One in-flight mapped extent, keyed by its base address. */
    struct Extent
    {
        std::size_t len = 0;
        std::uint32_t refs = 0; ///< concurrent IOs sharing the mapping
    };
    /// The driver table, MRU first (most recently mapped/reused).
    using Table = sim::LruIndex<mem::VirtAddr, Extent>;

    /**
     * @param table_entries bound on concurrently tracked extents;
     *   the driver-side translation table is sized once, here.
     */
    NpRdmaMapping(NpfController &npfc, ChannelId ch,
                  std::size_t table_entries = 256);

    /** Map [addr, addr+len) for one IO. @return the latency charged. */
    sim::Time beforeDma(mem::VirtAddr addr, std::size_t len);
    /** Release the IO's mapping; the last reference unmaps.
     *  @return the latency charged. */
    sim::Time afterDma(mem::VirtAddr addr, std::size_t len);

    const Stats &stats() const { return stats_; }
    std::size_t tableSize() const { return table_.size(); }
    std::size_t tableCapacity() const { return table_.capacity(); }
    /** The driver table, for inspection (slots, LRU order). */
    const Table &table() const { return table_; }

  private:
    /** True if a live (in-flight) extent covers @p vpn. */
    bool coveredElsewhere(mem::Vpn vpn) const;

    /** Unmap [base, base+len): clear PTEs + IOTLB entries for pages
     *  no other live extent still covers. @return latency charged. */
    sim::Time unmapExtent(mem::VirtAddr base, std::size_t len);

    /** Push the just-installed translations into the device IOTLB
     *  (the map doorbell carries them, NP-RDMA style). */
    void warmTlb(mem::VirtAddr addr, std::size_t len);

    NpfController &npfc_;
    ChannelId ch_;
    Table table_;
    Stats stats_;
    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::core

#endif // NPF_CORE_PINNING_HH
