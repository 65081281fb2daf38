/**
 * @file
 * memcached-like LRU key-value cache whose item memory lives in a
 * (demand-paged, unpinned) IOuser address space. Hits touch item
 * pages, so working sets larger than the resident budget cause real
 * swap traffic; capacity overflow causes real LRU misses — both
 * effects the paper's §6.1 experiments measure.
 */

#ifndef NPF_APP_KV_STORE_HH
#define NPF_APP_KV_STORE_HH

#include <algorithm>
#include <cstdint>
#include <variant>

#include "mem/address_space.hh"
#include "sim/lru_index.hh"
#include "sim/time.hh"

namespace npf::app {

/** Result of one KV operation. */
struct KvResult
{
    bool hit = false;
    sim::Time memCost = 0;           ///< page-fault latency incurred
    mem::VirtAddr valueAddr = 0;     ///< item memory (DMA source)
    std::size_t valueLen = 0;
    unsigned majorFaults = 0;
};

/**
 * LRU key-value cache (keys are integers; values are fixed-size).
 *
 * Item i lives at slot i of one contiguous item region. Fresh items
 * take slots in ascending order; once the cache is full, a new item
 * evicts the LRU item and takes over its slot. Which slot an item gets
 * decides which pages the NIC later DMAs (and faults on), so this
 * placement rule is part of the simulated behaviour.
 *
 * The index is a sim::LruIndex (docs/MEMORY.md "Flat caches") that
 * grows with the contents instead of being sized to capacity up front:
 * hits and overwrites never allocate; inserts allocate only while it
 * grows.
 */
class KvStore
{
  public:
    /**
     * @param capacity_bytes cache memory limit (memcached -m).
     * @param value_bytes size of every value.
     */
    KvStore(mem::AddressSpace &as, std::size_t capacity_bytes,
            std::size_t value_bytes);

    /** GET: touches the item memory on a hit. */
    KvResult get(std::uint64_t key);

    /**
     * GET for zero-copy servers: looks up and LRU-bumps but does not
     * touch the item memory — the NIC DMA-reads the value straight
     * out of the (unpinned) item region, so paging cost is paid
     * through the NPF machinery instead of a CPU fault.
     */
    KvResult getRef(std::uint64_t key);

    /** SET: inserts (evicting LRU) and writes the item memory. */
    KvResult set(std::uint64_t key);

    /** Size the item index for @p n items now, instead of growing it
     *  as they arrive, so a preload of n keys allocates once. */
    void reserve(std::size_t n)
    {
        index_.reserve(std::min(n, index_.capacity()));
    }

    std::size_t items() const { return index_.size(); }
    std::size_t capacityItems() const { return index_.capacity(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t valueBytes() const { return valueBytes_; }

  private:
    using Index = sim::LruIndex<std::uint64_t, std::monostate>;

    mem::VirtAddr slotAddr(std::uint32_t slot) const
    {
        return region_ + slot * slotBytes_;
    }

    mem::AddressSpace &as_;
    std::size_t valueBytes_;
    std::size_t slotBytes_; ///< value + item header, byte-packed
    Index index_;           ///< key -> item slot, in LRU order
    mem::VirtAddr region_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace npf::app

#endif // NPF_APP_KV_STORE_HH
