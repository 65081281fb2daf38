/**
 * @file
 * Tests for sim::LruIndex, the flat bounded LRU table under IoTlb,
 * KvStore and NpRdmaMapping: a differential test against a node-based
 * reference, and the capacity checks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/lru_index.hh"

using namespace npf;

namespace {

using Index = sim::LruIndex<std::uint64_t, std::uint64_t>;
constexpr std::uint32_t kNil = Index::kNil;

/**
 * The slow, obviously-correct reference: std::unordered_map for the
 * index, std::list for LRU order (front = MRU), a counter for fresh
 * slots and a stack of released ones.
 */
class ListLru
{
  public:
    explicit ListLru(std::size_t capacity) : capacity_(capacity) {}

    std::uint32_t
    find(std::uint64_t key) const
    {
        auto it = map_.find(key);
        return it == map_.end() ? kNil : it->second.slot;
    }

    void
    touch(std::uint64_t key)
    {
        Entry &e = map_.at(key);
        lru_.splice(lru_.begin(), lru_, e.lruIt);
    }

    std::uint32_t
    insert(std::uint64_t key, std::uint64_t value)
    {
        std::uint32_t slot;
        if (!released_.empty()) {
            slot = released_.back();
            released_.pop_back();
        } else {
            slot = fresh_++;
        }
        lru_.push_front(key);
        map_[key] = Entry{slot, value, lru_.begin()};
        return slot;
    }

    void
    erase(std::uint64_t key)
    {
        auto it = map_.find(key);
        released_.push_back(it->second.slot);
        lru_.erase(it->second.lruIt);
        map_.erase(it);
    }

    void
    clear()
    {
        map_.clear();
        lru_.clear();
        released_.clear();
        fresh_ = 0;
    }

    std::uint64_t lruKey() const { return lru_.back(); }
    std::uint64_t value(std::uint64_t key) const
    {
        return map_.at(key).value;
    }
    std::size_t size() const { return map_.size(); }
    bool full() const { return map_.size() == capacity_; }
    const std::list<std::uint64_t> &order() const { return lru_; }

  private:
    struct Entry
    {
        std::uint32_t slot;
        std::uint64_t value;
        std::list<std::uint64_t>::iterator lruIt;
    };

    std::size_t capacity_;
    std::unordered_map<std::uint64_t, Entry> map_;
    std::list<std::uint64_t> lru_;
    std::vector<std::uint32_t> released_;
    std::uint32_t fresh_ = 0;
};

/** Compare size, the full MRU→LRU order, slots and values. */
void
expectSame(const Index &idx, const ListLru &ref, std::size_t step)
{
    ASSERT_EQ(idx.size(), ref.size()) << "step " << step;
    ASSERT_EQ(idx.full(), ref.full()) << "step " << step;
    std::uint32_t s = idx.mru();
    for (std::uint64_t key : ref.order()) {
        ASSERT_NE(s, kNil) << "list too short at step " << step;
        ASSERT_EQ(idx.key(s), key) << "step " << step;
        ASSERT_EQ(s, ref.find(key)) << "slot, step " << step;
        ASSERT_EQ(idx.value(s), ref.value(key)) << "step " << step;
        s = idx.next(s);
    }
    ASSERT_EQ(s, kNil) << "list too long at step " << step;
    if (ref.size() > 0)
        ASSERT_EQ(idx.key(idx.lru()), ref.lruKey()) << "step " << step;
    else
        ASSERT_EQ(idx.lru(), kNil) << "step " << step;
}

} // namespace

TEST(LruIndex, RandomOpsMatchListOracle)
{
    for (std::size_t cap : {1u, 2u, 7u, 256u, 4096u}) {
        for (bool reserved : {false, true}) {
            for (std::uint64_t seed : {1u, 2u, 3u}) {
                SCOPED_TRACE(::testing::Message()
                             << "cap " << cap << " reserved " << reserved
                             << " seed " << seed);
                std::mt19937_64 rng(seed * 1000 + cap);
                // Dense small keys, page-aligned addresses, or
                // arbitrary 64-bit keys: different collision patterns.
                const std::uint64_t stride =
                    seed == 1 ? 1 : seed == 2 ? 4096 : rng() | 1;
                const std::uint64_t keySpace = 2 * cap + 3;
                auto draw = [&] { return (rng() % keySpace) * stride; };

                Index idx(cap);
                ListLru ref(cap);
                if (reserved)
                    idx.reserve(cap);
                const std::size_t buckets0 = idx.buckets();
                const std::size_t ops = 2 * cap + 2000;

                for (std::size_t step = 0; step < ops; ++step) {
                    unsigned op = rng() % 1000;
                    std::uint64_t key = draw();
                    if (op < 250) {
                        ASSERT_EQ(idx.find(key), ref.find(key))
                            << "find at step " << step;
                    } else if (op < 400) {
                        std::uint32_t s = idx.find(key);
                        ASSERT_EQ(s, ref.find(key));
                        if (s != kNil) {
                            idx.touch(s);
                            ref.touch(key);
                        }
                    } else if (op < 750) {
                        std::uint32_t s = idx.find(key);
                        ASSERT_EQ(s, ref.find(key));
                        if (s == kNil) {
                            // The owners' pattern: make room by
                            // evicting the LRU entry, then insert.
                            if (idx.full()) {
                                idx.erase(idx.lru());
                                ref.erase(ref.lruKey());
                            }
                            std::uint64_t v = rng();
                            std::uint32_t got = idx.insert(key, v);
                            ASSERT_EQ(got, ref.insert(key, v))
                                << "insert slot at step " << step;
                        }
                    } else if (op < 870) {
                        std::uint32_t s = idx.find(key);
                        ASSERT_EQ(s, ref.find(key));
                        if (s != kNil) {
                            idx.erase(s);
                            ref.erase(key);
                        }
                    } else if (op < 998) {
                        if (idx.size() > 0) {
                            ASSERT_EQ(idx.key(idx.lru()), ref.lruKey());
                            idx.erase(idx.lru());
                            ref.erase(ref.lruKey());
                        }
                    } else {
                        idx.clear();
                        ref.clear();
                    }
                    expectSame(idx, ref, step);
                    if (HasFatalFailure())
                        return;
                    if (reserved) {
                        ASSERT_EQ(idx.buckets(), buckets0)
                            << "a reserved index never rehashes";
                    }
                    ASSERT_GE(idx.buckets(), 2 * idx.size())
                        << "index stays at most half full";
                }
            }
        }
    }
}

TEST(LruIndex, ReserveSizesIndexForCapacity)
{
    Index lazy(256);
    EXPECT_EQ(lazy.buckets(), 16u) << "an unreserved index starts small";
    Index eager(256);
    eager.reserve(256);
    EXPECT_EQ(eager.buckets(), 512u);
    eager.reserve(8); // never shrinks
    EXPECT_EQ(eager.buckets(), 512u);
}

TEST(LruIndexDeathTest, AbortsOnOutOfRangeCapacity)
{
    // kNil is the "no slot" marker, so 2^32 - 1 slots cannot be named.
    EXPECT_DEATH({ Index idx(0); }, "capacity 0 out of range");
    EXPECT_DEATH({ Index idx(0xffffffffu); },
                 "capacity 4294967295 out of range");
}
