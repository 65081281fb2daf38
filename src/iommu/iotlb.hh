/**
 * @file
 * IOTLB: the device's translation cache. Because translations are
 * cached, the IOprovider must explicitly invalidate entries when
 * mappings change — the (a)-(d) flow of Figure 2.
 *
 * Storage is a sim::LruIndex sized once at construction. A miss-heavy
 * workload inserts and evicts on every DMA, so node-based containers
 * here would heap-churn per packet — the stack-wide allocation gate
 * (bench/stack_bench.cc) counts on the steady state being
 * allocation-free.
 */

#ifndef NPF_IOMMU_IOTLB_HH
#define NPF_IOMMU_IOTLB_HH

#include <cstdint>
#include <optional>

#include "mem/types.hh"
#include "sim/lru_index.hh"

namespace npf::iommu {

/** Fully associative LRU translation cache. */
class IoTlb
{
  public:
    using Index = sim::LruIndex<mem::Vpn, mem::Pfn>;

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t evictions = 0;
        /// insert() on an already-cached vpn: re-map traffic that
        /// replaces the payload in place instead of adding an entry.
        std::uint64_t refreshes = 0;
    };

    explicit IoTlb(std::size_t capacity = 256) : index_(capacity)
    {
        index_.reserve(capacity);
    }

    /** Look up a translation, refreshing its LRU position on a hit. */
    std::optional<mem::Pfn>
    lookup(mem::Vpn vpn)
    {
        std::uint32_t s = index_.find(vpn);
        if (s == Index::kNil) {
            ++stats_.misses;
            return std::nullopt;
        }
        ++stats_.hits;
        index_.touch(s);
        return index_.value(s);
    }

    /** Insert (or refresh) a translation, evicting LRU if full. */
    void
    insert(mem::Vpn vpn, mem::Pfn pfn)
    {
        std::uint32_t s = index_.find(vpn);
        if (s != Index::kNil) {
            index_.value(s) = pfn;
            index_.touch(s);
            ++stats_.refreshes;
            return;
        }
        if (index_.full()) {
            index_.erase(index_.lru());
            ++stats_.evictions;
        }
        index_.insert(vpn, pfn);
    }

    /** Drop one translation (invalidation flow). */
    void
    invalidate(mem::Vpn vpn)
    {
        std::uint32_t s = index_.find(vpn);
        if (s == Index::kNil)
            return;
        index_.erase(s);
        ++stats_.invalidations;
    }

    /** Drop everything. */
    void
    flush()
    {
        stats_.invalidations += index_.size();
        index_.clear();
    }

    /**
     * Evict up to @p n least-recently-used entries (an injected
     * eviction storm; 0 = everything). @return entries evicted.
     */
    std::size_t
    evictLru(std::size_t n)
    {
        if (n == 0 || n >= index_.size()) {
            std::size_t dropped = index_.size();
            stats_.evictions += dropped;
            index_.clear();
            return dropped;
        }
        for (std::size_t i = 0; i < n; ++i)
            index_.erase(index_.lru());
        stats_.evictions += n;
        return n;
    }

    std::size_t size() const { return index_.size(); }
    std::size_t capacity() const { return index_.capacity(); }
    const Stats &stats() const { return stats_; }
    /** The underlying table, for inspection (index geometry). */
    const Index &index() const { return index_; }

  private:
    Index index_;
    Stats stats_;
};

} // namespace npf::iommu

#endif // NPF_IOMMU_IOTLB_HH
