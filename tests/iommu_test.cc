/**
 * @file
 * Unit tests for the device-side translation structures: I/O page
 * table, IOTLB (LRU, invalidation), and the combined IoMmu unit,
 * including the PT/TLB coherence invariant.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "iommu/iommu.hh"
#include "sim/random.hh"

using namespace npf;
using namespace npf::iommu;

TEST(IoPageTable, MapLookupUnmap)
{
    IoPageTable pt;
    EXPECT_FALSE(pt.lookup(5).has_value());
    pt.map(5, 42);
    ASSERT_TRUE(pt.lookup(5).has_value());
    EXPECT_EQ(*pt.lookup(5), 42u);
    EXPECT_TRUE(pt.unmap(5));
    EXPECT_FALSE(pt.unmap(5)) << "second unmap reports not-mapped";
    EXPECT_FALSE(pt.lookup(5).has_value());
}

/**
 * Map / unmap / remap cycles (the NP-RDMA per-IO pattern) over a few
 * leaves and the far side table: lookup() and mappedPages() must track
 * a shadow map exactly, through tombstoned PTEs and remaps of a
 * still-valid PTE.
 */
TEST(IoPageTable, MapUnmapRemapCyclesKeepMappedPagesExact)
{
    IoPageTable pt;
    std::map<mem::Vpn, mem::Pfn> shadow;
    sim::Rng rng(17);
    for (int op = 0; op < 50000; ++op) {
        mem::Vpn vpn = rng.uniformInt(0, 2047);
        if (rng.bernoulli(0.25))
            vpn += mem::Vpn(1) << 42;
        if (rng.bernoulli(0.5)) {
            mem::Pfn pfn = rng.uniformInt(0, 1u << 20);
            pt.map(vpn, pfn);
            shadow[vpn] = pfn;
        } else {
            ASSERT_EQ(pt.unmap(vpn), shadow.erase(vpn) == 1) << vpn;
        }
        ASSERT_EQ(pt.mappedPages(), shadow.size()) << "op " << op;
        auto it = shadow.find(vpn);
        ASSERT_EQ(pt.isMapped(vpn), it != shadow.end());
        if (it != shadow.end())
            ASSERT_EQ(pt.lookup(vpn), std::optional<mem::Pfn>(it->second));
        else
            ASSERT_FALSE(pt.lookup(vpn).has_value());
    }
    for (const auto &[vpn, pfn] : shadow)
        ASSERT_EQ(pt.lookup(vpn), std::optional<mem::Pfn>(pfn));
}

TEST(IoTlbDeathTest, ZeroCapacityAborts)
{
    EXPECT_DEATH({ IoTlb tlb(0); }, "capacity 0 out of range");
}

TEST(IoTlb, HitAndMissCounting)
{
    IoTlb tlb(4);
    EXPECT_FALSE(tlb.lookup(1).has_value());
    tlb.insert(1, 10);
    ASSERT_TRUE(tlb.lookup(1).has_value());
    EXPECT_EQ(tlb.stats().hits, 1u);
    EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(IoTlb, LruEviction)
{
    IoTlb tlb(2);
    tlb.insert(1, 10);
    tlb.insert(2, 20);
    tlb.lookup(1);      // 1 is now MRU
    tlb.insert(3, 30);  // evicts 2
    EXPECT_TRUE(tlb.lookup(1).has_value());
    EXPECT_FALSE(tlb.lookup(2).has_value());
    EXPECT_TRUE(tlb.lookup(3).has_value());
    EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST(IoTlb, InvalidateRemovesEntry)
{
    IoTlb tlb(8);
    tlb.insert(7, 70);
    tlb.invalidate(7);
    EXPECT_FALSE(tlb.lookup(7).has_value());
    EXPECT_EQ(tlb.stats().invalidations, 1u);
    tlb.invalidate(9); // not present: harmless
}

TEST(IoTlb, FlushEmptiesEverything)
{
    IoTlb tlb(8);
    for (mem::Vpn v = 0; v < 8; ++v)
        tlb.insert(v, v);
    tlb.flush();
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(IoMmu, TranslateFaultsOnUnmapped)
{
    IoMmu mmu;
    Translation t = mmu.translate(3);
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(mmu.stats().faults, 1u);
}

TEST(IoMmu, MapThenTranslateHitsTlbSecondTime)
{
    IoMmu mmu;
    mmu.map(3, 33);
    Translation t1 = mmu.translate(3);
    EXPECT_TRUE(t1.ok);
    EXPECT_FALSE(t1.tlbHit) << "first translation walks the table";
    EXPECT_EQ(t1.pfn, 33u);
    Translation t2 = mmu.translate(3);
    EXPECT_TRUE(t2.tlbHit);
}

TEST(IoMmu, InvalidateIsCoherent)
{
    IoMmu mmu;
    mmu.map(3, 33);
    mmu.translate(3); // cache it
    EXPECT_TRUE(mmu.invalidate(3));
    Translation t = mmu.translate(3);
    EXPECT_FALSE(t.ok) << "stale IOTLB entry would be a protection bug";
    EXPECT_FALSE(mmu.invalidate(3)) << "already unmapped";
}

TEST(IoMmu, WouldFaultIgnoresTlb)
{
    IoMmu mmu;
    mmu.map(1, 11);
    EXPECT_FALSE(mmu.wouldFault(1));
    EXPECT_TRUE(mmu.wouldFault(2));
}

/**
 * Property: after any random sequence of map/translate/invalidate,
 * a translation succeeds iff the page table maps the page, and the
 * returned frame matches the last map() — the IOTLB never serves
 * stale entries.
 */
TEST(IoMmu, PropertyTlbNeverStale)
{
    sim::Rng rng(123);
    IoMmu mmu(16); // small TLB to force evictions
    std::unordered_map<mem::Vpn, mem::Pfn> model;
    for (int step = 0; step < 20000; ++step) {
        mem::Vpn vpn = rng.uniformInt(0, 63);
        switch (rng.uniformInt(0, 2)) {
          case 0: {
            mem::Pfn pfn = rng.uniformInt(1000, 2000);
            mmu.map(vpn, pfn);
            model[vpn] = pfn;
            break;
          }
          case 1:
            mmu.invalidate(vpn);
            model.erase(vpn);
            break;
          default: {
            Translation t = mmu.translate(vpn);
            auto it = model.find(vpn);
            ASSERT_EQ(t.ok, it != model.end()) << "step " << step;
            if (t.ok) {
                ASSERT_EQ(t.pfn, it->second) << "step " << step;
            }
            break;
          }
        }
    }
}

TEST(IoTlb, InsertOnCachedVpnCountsRefresh)
{
    // Regression: insert() on an already-cached vpn silently replaced
    // the payload — re-map traffic (NP-RDMA doorbells re-pushing
    // translations) was invisible in the stats.
    IoTlb tlb(4);
    tlb.insert(7, 70);
    EXPECT_EQ(tlb.stats().refreshes, 0u);
    tlb.insert(7, 71);
    EXPECT_EQ(tlb.stats().refreshes, 1u);
    EXPECT_EQ(tlb.size(), 1u);
    EXPECT_EQ(tlb.stats().evictions, 0u);
    EXPECT_EQ(*tlb.lookup(7), 71u) << "refresh replaces the payload";
    // A refresh also renews LRU position, exactly like a hit.
    tlb.insert(8, 80);
    tlb.insert(9, 90);
    tlb.insert(10, 100); // full: LRU order is 10, 9, 8, 7
    tlb.insert(8, 81);   // refresh, no eviction; 8 moves to MRU
    EXPECT_EQ(tlb.stats().refreshes, 2u);
    tlb.insert(11, 110); // evicts the true LRU (7), not 8
    EXPECT_EQ(tlb.stats().evictions, 1u);
    EXPECT_FALSE(tlb.lookup(7).has_value());
    EXPECT_TRUE(tlb.lookup(8).has_value());
    EXPECT_TRUE(tlb.lookup(9).has_value());
}

TEST(IoTlb, AdversarialCollisionChainAcrossTableWrap)
{
    // erase() uses backward-shift deletion; the relocation rule
    // `((i - home) & mask) >= ((i - hole) & mask)` is exactly the
    // part that breaks subtly when a probe chain wraps past the end
    // of the bucket array. Force that: pick vpns whose home is one of
    // the last two buckets of the live index, so one long chain spans
    // the wrap. Every operation is mirrored into a shadow
    // std::map + LRU-list oracle and the full state compared.
    constexpr std::size_t kCap = 8;
    IoTlb tlb(kCap);
    const IoTlb::Index &index = tlb.index();
    const std::size_t last = index.buckets() - 1;
    ASSERT_GE(index.buckets(), 2 * kCap) << "capacity reserved up front";
    std::vector<mem::Vpn> vpns;
    for (mem::Vpn v = 1; vpns.size() < 14; ++v)
        if (index.homeBucket(v) >= last - 1)
            vpns.push_back(v);

    std::map<mem::Vpn, mem::Pfn> shadow;
    std::list<mem::Vpn> lru; // front = MRU

    auto oracle_insert = [&](mem::Vpn v, mem::Pfn p) {
        tlb.insert(v, p);
        auto it = shadow.find(v);
        if (it != shadow.end()) {
            it->second = p;
            lru.remove(v);
        } else {
            if (shadow.size() == kCap) {
                shadow.erase(lru.back());
                lru.pop_back();
            }
            shadow[v] = p;
        }
        lru.push_front(v);
    };
    auto oracle_invalidate = [&](mem::Vpn v) {
        tlb.invalidate(v);
        if (shadow.erase(v))
            lru.remove(v);
    };
    auto oracle_evict = [&](std::size_t n) {
        tlb.evictLru(n);
        if (n == 0 || n >= shadow.size()) { // 0 = everything
            shadow.clear();
            lru.clear();
            return;
        }
        for (std::size_t i = 0; i < n; ++i) {
            shadow.erase(lru.back());
            lru.pop_back();
        }
    };
    // Probing every candidate vpn also touches LRU on hits — mirror
    // that, in the same fixed order, so the models stay in lockstep.
    auto verify = [&](int where) {
        ASSERT_EQ(tlb.size(), shadow.size()) << "at step " << where;
        for (mem::Vpn v : vpns) {
            auto got = tlb.lookup(v);
            auto it = shadow.find(v);
            ASSERT_EQ(got.has_value(), it != shadow.end())
                << "vpn " << v << " at step " << where;
            if (got.has_value()) {
                ASSERT_EQ(*got, it->second)
                    << "vpn " << v << " at step " << where;
                lru.remove(v);
                lru.push_front(v);
            }
        }
    };

    // Fill the whole cache with one wrapping probe chain.
    for (std::size_t i = 0; i < kCap; ++i)
        oracle_insert(vpns[i], mem::Pfn(1000 + i));
    verify(1);

    // Punch holes in the middle of the chain: the entries behind
    // them (including those that wrapped to bucket 0/1/2) must be
    // shifted back or they become unreachable.
    oracle_invalidate(vpns[2]);
    oracle_invalidate(vpns[5]);
    verify(2);

    // Refill through the holes, then force capacity evictions.
    oracle_insert(vpns[8], 2008);
    oracle_insert(vpns[9], 2009);
    oracle_insert(vpns[10], 2010); // full again: LRU falls out
    oracle_insert(vpns[11], 2011);
    verify(3);

    // Eviction storm plus an interleaved middle-of-chain delete.
    oracle_evict(3);
    oracle_invalidate(vpns[9]);
    verify(4);

    // Reinsert previously deleted vpns (fresh entries, same homes).
    oracle_insert(vpns[2], 3002);
    oracle_insert(vpns[5], 3005);
    oracle_insert(vpns[12], 3012);
    oracle_insert(vpns[13], 3013);
    verify(5);

    // Drain to empty via interleaved invalidate/evict.
    oracle_invalidate(vpns[12]);
    oracle_evict(2);
    verify(6);
    oracle_evict(0); // 0 = everything
    verify(7);
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_EQ(index.buckets(), last + 1) << "a reserved index never grows";
}
