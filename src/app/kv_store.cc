#include "app/kv_store.hh"

#include <cassert>

namespace npf::app {

KvStore::KvStore(mem::AddressSpace &as, std::size_t capacity_bytes,
                 std::size_t value_bytes)
    : as_(as), valueBytes_(value_bytes)
{
    // Item header + value, as memcached lays items out.
    slotBytes_ = valueBytes_ + 64;
    capacity_ = capacity_bytes / slotBytes_;
    assert(capacity_ > 0 && capacity_ < kNil);
    region_ = as_.allocRegion(capacity_ * slotBytes_, "kv-items");
    index_.assign(16, kNil);
    mask_ = index_.size() - 1;
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
    std::uint32_t s = index_[findBucket(key)];
    if (s == kNil) {
        ++misses_;
        return res;
    }
    ++hits_;
    touchLru(s);
    res.hit = true;
    res.valueAddr = slotAddr(s);
    res.valueLen = valueBytes_;
    return res;
}

KvResult
KvStore::set(std::uint64_t key)
{
    KvResult res;
    std::uint32_t s = index_[findBucket(key)];
    if (s != kNil) {
        // Overwrite in place.
        touchLru(s);
        res.hit = true;
    } else {
        if (items_.size() < capacity_) {
            // A fresh slot: they are handed out in ascending order.
            if ((items_.size() + 1) * 2 > index_.size())
                growIndex();
            s = std::uint32_t(items_.size());
            items_.push_back(Item{key});
        } else {
            // Evict the LRU item and take over its slot.
            s = tail_;
            removeAt(findBucket(items_[s].key));
            items_[s].key = key;
        }
        // Growth or the eviction's backward shift may have moved the
        // empty bucket found above.
        index_[findBucket(key)] = s;
        pushFrontLru(s);
    }
    res.valueAddr = slotAddr(s);
    res.valueLen = valueBytes_;
    mem::AccessResult ar = as_.touch(res.valueAddr, valueBytes_, true);
    res.memCost = ar.cost;
    res.majorFaults = ar.majorFaults;
    return res;
}

std::size_t
KvStore::homeBucket(std::uint64_t key) const
{
    return std::size_t((key * 0x9e3779b97f4a7c15ull) >> 32) & mask_;
}

std::size_t
KvStore::findBucket(std::uint64_t key) const
{
    std::size_t b = homeBucket(key);
    while (index_[b] != kNil && items_[index_[b]].key != key)
        b = (b + 1) & mask_;
    return b;
}

void
KvStore::removeAt(std::size_t b)
{
    unlinkLru(index_[b]);
    // Backward-shift deletion keeps every probe chain intact.
    std::size_t hole = b;
    std::size_t i = b;
    for (;;) {
        i = (i + 1) & mask_;
        std::uint32_t occ = index_[i];
        if (occ == kNil)
            break;
        std::size_t home = homeBucket(items_[occ].key);
        if (((i - home) & mask_) >= ((i - hole) & mask_)) {
            index_[hole] = occ;
            hole = i;
        }
    }
    index_[hole] = kNil;
}

void
KvStore::growIndex()
{
    index_.assign(index_.size() * 2, kNil);
    mask_ = index_.size() - 1;
    for (std::uint32_t s = 0; s < items_.size(); ++s)
        index_[findBucket(items_[s].key)] = s;
}

void
KvStore::pushFrontLru(std::uint32_t s)
{
    items_[s].prev = kNil;
    items_[s].next = head_;
    if (head_ != kNil)
        items_[head_].prev = s;
    head_ = s;
    if (tail_ == kNil)
        tail_ = s;
}

void
KvStore::unlinkLru(std::uint32_t s)
{
    if (items_[s].prev != kNil)
        items_[items_[s].prev].next = items_[s].next;
    else
        head_ = items_[s].next;
    if (items_[s].next != kNil)
        items_[items_[s].next].prev = items_[s].prev;
    else
        tail_ = items_[s].prev;
}

void
KvStore::touchLru(std::uint32_t s)
{
    if (head_ == s)
        return;
    unlinkLru(s);
    pushFrontLru(s);
}

} // namespace npf::app
