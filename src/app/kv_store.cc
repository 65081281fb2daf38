#include "app/kv_store.hh"

namespace npf::app {

KvStore::KvStore(mem::AddressSpace &as, std::size_t capacity_bytes,
                 std::size_t value_bytes)
    : as_(as), valueBytes_(value_bytes),
      // Item header + value, as memcached lays items out.
      slotBytes_(value_bytes + 64), index_(capacity_bytes / slotBytes_)
{
    region_ = as_.allocRegion(index_.capacity() * slotBytes_, "kv-items");
}

KvResult
KvStore::get(std::uint64_t key)
{
    KvResult res = getRef(key);
    if (res.hit) {
        // Reading the value touches its pages (swap-in if evicted).
        mem::AccessResult ar = as_.touch(res.valueAddr, valueBytes_, false);
        res.memCost = ar.cost;
        res.majorFaults = ar.majorFaults;
    }
    return res;
}

KvResult
KvStore::getRef(std::uint64_t key)
{
    KvResult res;
    std::uint32_t s = index_.find(key);
    if (s == Index::kNil) {
        ++misses_;
        return res;
    }
    ++hits_;
    index_.touch(s);
    res.hit = true;
    res.valueAddr = slotAddr(s);
    res.valueLen = valueBytes_;
    return res;
}

KvResult
KvStore::set(std::uint64_t key)
{
    KvResult res;
    std::uint32_t s = index_.find(key);
    if (s != Index::kNil) {
        // Overwrite in place.
        index_.touch(s);
        res.hit = true;
    } else {
        // On a full cache the new item takes over the LRU item's slot.
        if (index_.full())
            index_.erase(index_.lru());
        s = index_.insert(key);
    }
    res.valueAddr = slotAddr(s);
    res.valueLen = valueBytes_;
    mem::AccessResult ar = as_.touch(res.valueAddr, valueBytes_, true);
    res.memCost = ar.cost;
    res.majorFaults = ar.majorFaults;
    return res;
}

} // namespace npf::app
