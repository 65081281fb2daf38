/**
 * @file
 * The node-based app::KvStore that preceded the flat one, retained as
 * a differential-test oracle: std::unordered_map for the index,
 * std::list for LRU order, and a pre-filled free-slot stack.
 *
 * KvStore.RandomOpsMatchListOracle (tests/app_test.cc) drives it and
 * app::KvStore with the same operation streams and demands identical
 * hits, item addresses, item counts and hit/miss totals after every
 * operation, so the flat store provably keeps the slot placement and
 * LRU order that decide which pages the NIC DMAs. Do not "optimize"
 * this file: its value is being the slow, obviously-correct reference.
 */

#ifndef NPF_TESTS_KV_STORE_ORACLE_HH
#define NPF_TESTS_KV_STORE_ORACLE_HH

#include <cassert>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "app/kv_store.hh"
#include "mem/address_space.hh"

namespace npf::apptest {

class ListKvStore
{
  public:
    ListKvStore(mem::AddressSpace &as, std::size_t capacity_bytes,
                std::size_t value_bytes)
        : as_(as), valueBytes_(value_bytes)
    {
        // Item header + value, as memcached lays items out.
        slotBytes_ = valueBytes_ + 64;
        std::size_t capacity_items = capacity_bytes / slotBytes_;
        assert(capacity_items > 0);
        slots_.resize(capacity_items);
        region_ = as_.allocRegion(capacity_items * slotBytes_, "kv-items");
        freeSlots_.reserve(capacity_items);
        for (std::size_t i = capacity_items; i-- > 0;)
            freeSlots_.push_back(i);
    }

    app::KvResult
    get(std::uint64_t key)
    {
        app::KvResult res;
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++misses_;
            return res;
        }
        ++hits_;
        res.hit = true;
        Entry &e = it->second;
        lru_.splice(lru_.begin(), lru_, e.lruIt);
        res.valueAddr = slotAddr(e.slot);
        res.valueLen = valueBytes_;
        // Reading the value touches its pages (swap-in if evicted).
        mem::AccessResult ar = as_.touch(res.valueAddr, valueBytes_, false);
        res.memCost = ar.cost;
        res.majorFaults = ar.majorFaults;
        return res;
    }

    app::KvResult
    getRef(std::uint64_t key)
    {
        app::KvResult res;
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++misses_;
            return res;
        }
        ++hits_;
        res.hit = true;
        Entry &e = it->second;
        lru_.splice(lru_.begin(), lru_, e.lruIt);
        res.valueAddr = slotAddr(e.slot);
        res.valueLen = valueBytes_;
        return res;
    }

    app::KvResult
    set(std::uint64_t key)
    {
        app::KvResult res;
        auto it = map_.find(key);
        if (it != map_.end()) {
            // Overwrite in place.
            Entry &e = it->second;
            lru_.splice(lru_.begin(), lru_, e.lruIt);
            res.hit = true;
            res.valueAddr = slotAddr(e.slot);
        } else {
            if (freeSlots_.empty()) {
                // Evict the LRU item.
                std::uint64_t victim = lru_.back();
                lru_.pop_back();
                auto vit = map_.find(victim);
                assert(vit != map_.end());
                freeSlots_.push_back(vit->second.slot);
                map_.erase(vit);
            }
            std::size_t slot = freeSlots_.back();
            freeSlots_.pop_back();
            lru_.push_front(key);
            map_[key] = Entry{key, slot, lru_.begin()};
            res.valueAddr = slotAddr(slot);
        }
        res.valueLen = valueBytes_;
        mem::AccessResult ar = as_.touch(res.valueAddr, valueBytes_, true);
        res.memCost = ar.cost;
        res.majorFaults = ar.majorFaults;
        return res;
    }

    std::size_t items() const { return map_.size(); }
    std::size_t capacityItems() const { return slots_.size(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Entry
    {
        std::uint64_t key;
        std::size_t slot;
        std::list<std::uint64_t>::iterator lruIt;
    };

    mem::VirtAddr slotAddr(std::size_t slot) const
    {
        return region_ + slot * slotBytes_;
    }

    mem::AddressSpace &as_;
    std::size_t valueBytes_;
    std::size_t slotBytes_;
    mem::VirtAddr region_ = 0;
    std::vector<std::size_t> freeSlots_;
    std::vector<std::size_t> slots_; ///< just for capacity count
    std::unordered_map<std::uint64_t, Entry> map_;
    std::list<std::uint64_t> lru_; ///< front = most recent
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace npf::apptest

#endif // NPF_TESTS_KV_STORE_ORACLE_HH
