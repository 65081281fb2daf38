/**
 * @file
 * Bounded LRU table over flat storage, shared by the simulator's
 * fixed-capacity caches: the device IOTLB (iommu::IoTlb), memcached's
 * item store (app::KvStore) and NP-RDMA's driver translation table
 * (core::NpRdmaMapping). See docs/MEMORY.md "Flat caches".
 *
 * Three parts, all addressed by u32 slot numbers:
 *  - Slots hold the key, the owner's value and intrusive LRU links.
 *    Fresh slots go out in ascending order; released slots are reused
 *    newest first (the bump-plus-recycle rule of mem::PhysicalMemory).
 *  - The index is open addressing over slot numbers: golden-ratio
 *    hash, linear probing, backward-shift deletion (no tombstones),
 *    kept at most half full.
 *  - The LRU list runs MRU to LRU through the slots' prev/next links.
 *
 * Slots and index grow with the contents (the index doubles from 16
 * buckets); reserve(n) sizes both for n entries up front, after which
 * no operation allocates.
 *
 * The slot a key gets is part of the simulated behaviour (a KvStore
 * item's slot is its address, so it decides which pages the NIC DMAs),
 * and so is the victim: owners evict lru(), and the next insert reuses
 * that slot.
 */

#ifndef NPF_SIM_LRU_INDEX_HH
#define NPF_SIM_LRU_INDEX_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <vector>

namespace npf::sim {

template <typename Key, typename Value>
class LruIndex
{
    static_assert(std::is_integral_v<Key>, "keys are hashed as integers");

  public:
    /// "No slot": an absent key, an empty list, the end of iteration.
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Aborts, in every build, unless 0 < @p capacity < 2^32 - 1. */
    explicit LruIndex(std::size_t capacity) : capacity_(capacity)
    {
        if (capacity == 0 || capacity >= kNil) {
            std::fprintf(stderr,
                         "sim::LruIndex: capacity %zu out of range "
                         "[1, 2^32-2]\n",
                         capacity);
            std::abort();
        }
        table_.assign(16, kNil);
        mask_ = table_.size() - 1;
    }

    /** Size the slots and the index for @p n entries now, instead of
     *  growing them as entries arrive. */
    void
    reserve(std::size_t n)
    {
        slots_.reserve(n);
        std::size_t buckets = table_.size();
        while (buckets < n * 2)
            buckets <<= 1;
        if (buckets != table_.size())
            rehash(buckets);
    }

    /** Slot holding @p key, or kNil. Leaves the LRU order alone. */
    std::uint32_t
    find(Key key) const
    {
        std::size_t b = homeBucket(key);
        for (;;) {
            std::uint32_t s = table_[b];
            if (s == kNil || slots_[s].key == key)
                return s;
            b = (b + 1) & mask_;
        }
    }

    /** Make slot @p s the most recently used. */
    void
    touch(std::uint32_t s)
    {
        if (head_ == s)
            return;
        unlink(s);
        linkFront(s);
    }

    /**
     * Add absent @p key as the most recently used entry. The caller
     * makes room first (erase(lru()) on a full table). @return its slot.
     */
    std::uint32_t
    insert(Key key, Value value = Value())
    {
        assert(size_ < capacity_ && find(key) == kNil);
        if ((size_ + 1) * 2 > table_.size())
            rehash(table_.size() * 2);
        std::uint32_t s = free_;
        if (s != kNil) {
            free_ = slots_[s].next;
            slots_[s] = Slot{key, value};
        } else {
            s = std::uint32_t(slots_.size());
            slots_.push_back(Slot{key, value});
        }
        table_[emptyBucket(key)] = s;
        linkFront(s);
        ++size_;
        return s;
    }

    /** Remove the entry in slot @p s; the slot is reused next. */
    void
    erase(std::uint32_t s)
    {
        std::size_t b = homeBucket(slots_[s].key);
        while (table_[b] != s)
            b = (b + 1) & mask_;
        unlink(s);
        slots_[s].prev = kFree;
        slots_[s].next = free_;
        free_ = s;
        --size_;

        // Backward-shift deletion keeps every probe chain intact.
        std::size_t hole = b;
        std::size_t i = b;
        for (;;) {
            i = (i + 1) & mask_;
            std::uint32_t occ = table_[i];
            if (occ == kNil)
                break;
            std::size_t home = homeBucket(slots_[occ].key);
            if (((i - home) & mask_) >= ((i - hole) & mask_)) {
                table_[hole] = occ;
                hole = i;
            }
        }
        table_[hole] = kNil;
    }

    /** Drop every entry; slots go out from 0 again. */
    void
    clear()
    {
        std::fill(table_.begin(), table_.end(), kNil);
        slots_.clear();
        free_ = head_ = tail_ = kNil;
        size_ = 0;
    }

    /// Iteration, MRU to LRU: for (s = mru(); s != kNil; s = next(s)).
    std::uint32_t mru() const { return head_; }
    std::uint32_t lru() const { return tail_; }
    std::uint32_t next(std::uint32_t s) const { return slots_[s].next; }

    Key key(std::uint32_t s) const { return slots_[s].key; }
    Value &value(std::uint32_t s) { return slots_[s].value; }
    const Value &value(std::uint32_t s) const { return slots_[s].value; }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }
    bool full() const { return size_ == capacity_; }

    /// Index geometry, for tests that build colliding key sets.
    std::size_t buckets() const { return table_.size(); }
    std::size_t
    homeBucket(Key key) const
    {
        return std::size_t((std::uint64_t(key) * 0x9e3779b97f4a7c15ull) >>
                           32) &
               mask_;
    }

  private:
    /// prev link of a released slot (rehash skips it).
    static constexpr std::uint32_t kFree = kNil - 1;

    struct Slot
    {
        Key key;
        [[no_unique_address]] Value value;
        std::uint32_t prev = kNil; ///< toward the MRU end
        std::uint32_t next = kNil; ///< toward the LRU end; free list
    };

    std::size_t
    emptyBucket(Key key) const
    {
        std::size_t b = homeBucket(key);
        while (table_[b] != kNil)
            b = (b + 1) & mask_;
        return b;
    }

    void
    rehash(std::size_t buckets)
    {
        table_.assign(buckets, kNil);
        mask_ = buckets - 1;
        for (std::uint32_t s = 0; s < slots_.size(); ++s)
            if (slots_[s].prev != kFree)
                table_[emptyBucket(slots_[s].key)] = s;
    }

    void
    linkFront(std::uint32_t s)
    {
        slots_[s].prev = kNil;
        slots_[s].next = head_;
        if (head_ != kNil)
            slots_[head_].prev = s;
        head_ = s;
        if (tail_ == kNil)
            tail_ = s;
    }

    void
    unlink(std::uint32_t s)
    {
        Slot &e = slots_[s];
        if (e.prev != kNil)
            slots_[e.prev].next = e.next;
        else
            head_ = e.next;
        if (e.next != kNil)
            slots_[e.next].prev = e.prev;
        else
            tail_ = e.prev;
    }

    std::size_t capacity_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    std::vector<Slot> slots_;          ///< by slot number
    std::vector<std::uint32_t> table_; ///< open addressing, <= half full
    std::uint32_t free_ = kNil;        ///< released slots, newest first
    std::uint32_t head_ = kNil;        ///< MRU
    std::uint32_t tail_ = kNil;        ///< LRU
};

} // namespace npf::sim

#endif // NPF_SIM_LRU_INDEX_HH
