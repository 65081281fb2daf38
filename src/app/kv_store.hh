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

#include <cstdint>
#include <vector>

#include "mem/address_space.hh"
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
 * Flat storage in the IoTlb shape (docs/MEMORY.md "Flat caches"): an
 * open-addressing index of u32 slot numbers over the item array, with
 * the LRU list as intrusive u32 links in the items. Hits and overwrites
 * never allocate; inserts allocate only while the item array and the
 * index grow toward capacity.
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

    std::size_t items() const { return items_.size(); }
    std::size_t capacityItems() const { return capacity_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t valueBytes() const { return valueBytes_; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** One cached item; its index in items_ is its slot. */
    struct Item
    {
        std::uint64_t key;
        std::uint32_t prev = kNil; ///< toward the MRU end
        std::uint32_t next = kNil; ///< toward the LRU end
    };

    mem::VirtAddr slotAddr(std::uint32_t slot) const
    {
        return region_ + slot * slotBytes_;
    }

    std::size_t homeBucket(std::uint64_t key) const;
    std::size_t findBucket(std::uint64_t key) const;
    void removeAt(std::size_t b);
    void growIndex();
    void pushFrontLru(std::uint32_t s);
    void unlinkLru(std::uint32_t s);
    void touchLru(std::uint32_t s);

    mem::AddressSpace &as_;
    std::size_t valueBytes_;
    std::size_t slotBytes_;   ///< value + item header, byte-packed
    std::size_t capacity_;    ///< items that fit in capacity_bytes
    mem::VirtAddr region_ = 0;
    std::vector<Item> items_;          ///< by slot; grows to capacity_
    std::vector<std::uint32_t> index_; ///< open addressing, <= half full
    std::size_t mask_ = 0;
    std::uint32_t head_ = kNil; ///< MRU
    std::uint32_t tail_ = kNil; ///< LRU
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace npf::app

#endif // NPF_APP_KV_STORE_HH
