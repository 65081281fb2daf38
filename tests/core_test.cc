/**
 * @file
 * Tests for the NPF engine: the Figure 2 flows, the Figure 3 latency
 * model (checked against the paper's own numbers), the §4 firmware
 * optimizations, and the four pinning disciplines of Table 3.
 */

#include <gtest/gtest.h>

#include "core/npf_controller.hh"
#include "core/pinning.hh"
#include "mem/memory_manager.hh"
#include "sim/histogram.hh"

using namespace npf;
using namespace npf::core;

namespace {

constexpr std::size_t MiB = 1ull << 20;

struct Rig
{
    sim::EventQueue eq;
    mem::MemoryManager mm;
    mem::AddressSpace &as;
    NpfController npfc;
    ChannelId ch;

    explicit Rig(std::size_t mem_bytes = 256 * MiB, OdpConfig cfg = {})
        : mm(mem_bytes), as(mm.createAddressSpace("iouser")),
          npfc(eq, cfg), ch(npfc.attach(as))
    {
    }
};

} // namespace

TEST(NpfController, CheckDmaReportsMissingPages)
{
    Rig rig;
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    auto check = rig.npfc.checkDma(rig.ch, buf, 8 * mem::kPageSize);
    EXPECT_FALSE(check.ok);
    EXPECT_EQ(check.missingPages, 8u);
    EXPECT_EQ(check.firstMissing, mem::pageOf(buf));
}

TEST(NpfController, DmaAccessFailsUntilResolved)
{
    Rig rig;
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    EXPECT_FALSE(rig.npfc.dmaAccess(rig.ch, buf, 100, true));
    bool resolved = false;
    rig.npfc.raiseNpf(rig.ch, buf, 100, true,
                      [&](const NpfBreakdown &bd) {
                          resolved = true;
                          EXPECT_TRUE(bd.ok);
                          EXPECT_EQ(bd.pagesMapped, 1u);
                      });
    rig.eq.run();
    EXPECT_TRUE(resolved);
    EXPECT_TRUE(rig.npfc.dmaAccess(rig.ch, buf, 100, true));
}

TEST(NpfController, ResolutionTakesModeledTime)
{
    Rig rig;
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    sim::Time done_at = 0;
    rig.npfc.raiseNpf(rig.ch, buf, mem::kPageSize, true,
                      [&](const NpfBreakdown &) { done_at = rig.eq.now(); });
    rig.eq.run();
    // A 4 KB minor NPF costs ~215 us (Fig. 3(a) / Table 4).
    EXPECT_GT(done_at, sim::fromMicroseconds(150));
    EXPECT_LT(done_at, sim::fromMicroseconds(500));
}

TEST(NpfController, BreakdownMatchesPaperFig3)
{
    // 4 KB: ~215 us median; 4 MB: ~352 us median, growth in software.
    Rig rig;
    mem::VirtAddr small = rig.as.allocRegion(4096);
    NpfBreakdown bd4k = rig.npfc.computeResolve(rig.ch, small, 4096, true);
    EXPECT_NEAR(sim::toMicroseconds(bd4k.total()), 215.0, 45.0);
    EXPECT_EQ(bd4k.pagesMapped, 1u);

    mem::VirtAddr big = rig.as.allocRegion(4 * MiB);
    NpfBreakdown bd4m = rig.npfc.computeResolve(rig.ch, big, 4 * MiB, true);
    EXPECT_NEAR(sim::toMicroseconds(bd4m.total()), 352.0, 60.0);
    EXPECT_EQ(bd4m.pagesMapped, 1024u);
    // Hardware dominates the 4 KB case (~90%, §4 "Overhead").
    double hw = sim::toMicroseconds(bd4k.trigger + bd4k.resume);
    EXPECT_GT(hw / sim::toMicroseconds(bd4k.total()), 0.7);
    // The 4 MB growth is software (driver + PT update).
    EXPECT_GT(bd4m.driver, bd4k.driver);
}

TEST(NpfController, TailLatenciesMatchTable4)
{
    Rig rig(1ull << 30);
    mem::VirtAddr buf = rig.as.allocRegion(256 * MiB);
    sim::Histogram h;
    for (int i = 0; i < 4000; ++i) {
        mem::VirtAddr page = buf + (std::uint64_t(i) * mem::kPageSize);
        NpfBreakdown bd = rig.npfc.computeResolve(rig.ch, page, 4096, true);
        h.record(sim::toMicroseconds(bd.total()));
    }
    EXPECT_NEAR(h.percentile(50), 215.0, 40.0);
    EXPECT_NEAR(h.percentile(95), 250.0, 50.0);
    EXPECT_GT(h.max(), h.percentile(99)) << "tail spikes exist";
    EXPECT_LT(h.max(), 1000.0);
}

TEST(NpfController, BatchedPrefaultMapsWholeRequest)
{
    Rig rig;
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    bool done = false;
    rig.npfc.raiseNpf(rig.ch, buf, 64 * mem::kPageSize, true,
                      [&](const NpfBreakdown &bd) {
                          done = true;
                          EXPECT_EQ(bd.pagesMapped, 64u);
                      });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, buf, 64 * mem::kPageSize).ok);
}

TEST(NpfController, OnePagePerRequestAblation)
{
    OdpConfig cfg;
    cfg.batchedPrefault = false;
    Rig rig(256 * MiB, cfg);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    bool done = false;
    rig.npfc.raiseNpf(rig.ch, buf, 64 * mem::kPageSize, true,
                      [&](const NpfBreakdown &bd) {
                          done = true;
                          EXPECT_EQ(bd.pagesMapped, 1u)
                              << "strict ATS/PRI: one page per event";
                      });
    rig.eq.run();
    EXPECT_TRUE(done);
    auto check = rig.npfc.checkDma(rig.ch, buf, 64 * mem::kPageSize);
    EXPECT_EQ(check.missingPages, 63u);
}

TEST(NpfController, FirmwareBypassMergesDuplicates)
{
    Rig rig;
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    int resolutions = 0;
    int merged = 0;
    for (int i = 0; i < 5; ++i) {
        rig.npfc.raiseNpf(rig.ch, buf, mem::kPageSize, true,
                          [&](const NpfBreakdown &bd) {
                              ++resolutions;
                              if (bd.merged)
                                  ++merged;
                          });
    }
    rig.eq.run();
    EXPECT_EQ(resolutions, 5);
    EXPECT_EQ(merged, 4) << "four duplicates ride the first resolution";
    EXPECT_EQ(rig.npfc.stats().npfs, 1u);
    EXPECT_EQ(rig.npfc.stats().mergedNpfs, 4u);
}

TEST(NpfController, ConcurrencyLimitQueuesExcessFaults)
{
    OdpConfig cfg;
    cfg.maxConcurrentNpfs = 2;
    Rig rig(256 * MiB, cfg);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    int resolved = 0;
    for (int i = 0; i < 6; ++i) {
        rig.npfc.raiseNpf(rig.ch, buf + std::uint64_t(i) * mem::kPageSize,
                          mem::kPageSize, true,
                          [&](const NpfBreakdown &) { ++resolved; });
    }
    rig.eq.run();
    EXPECT_EQ(resolved, 6);
    EXPECT_GT(rig.npfc.stats().queuedNpfs, 0u);
}

TEST(NpfController, InvalidationFlowCosts)
{
    Rig rig;
    mem::VirtAddr buf = rig.as.allocRegion(4 * MiB);
    // Unmapped page: only the checks cost (Fig. 3(b) fast path).
    InvalidationBreakdown cold = rig.npfc.invalidateRange(
        rig.ch, buf, mem::kPageSize);
    EXPECT_FALSE(cold.wasMapped);
    EXPECT_EQ(cold.ptUpdate, 0u);

    rig.npfc.prefault(rig.ch, buf, 4 * MiB, true);
    InvalidationBreakdown small = rig.npfc.invalidateRange(
        rig.ch, buf, mem::kPageSize);
    EXPECT_TRUE(small.wasMapped);
    EXPECT_NEAR(sim::toMicroseconds(small.total()), 23.0, 8.0);

    rig.npfc.prefault(rig.ch, buf, 4 * MiB, true);
    InvalidationBreakdown big = rig.npfc.invalidateRange(
        rig.ch, buf, 4 * MiB);
    EXPECT_GT(big.total(), small.total())
        << "ranged invalidation scales with pages (Fig. 3(b))";
}

TEST(NpfController, EvictionInvalidatesIommuMapping)
{
    Rig rig(8 * MiB);
    mem::VirtAddr buf = rig.as.allocRegion(2 * MiB);
    rig.npfc.prefault(rig.ch, buf, 2 * MiB, true);
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, buf, 2 * MiB).ok);
    // Force reclaim of everything unpinned.
    rig.mm.reclaimPages(8 * MiB / mem::kPageSize);
    auto check = rig.npfc.checkDma(rig.ch, buf, 2 * MiB);
    EXPECT_FALSE(check.ok)
        << "MMU notifier must strip the device mapping before reuse";
    EXPECT_GT(rig.npfc.stats().invalidations, 0u);
}

TEST(NpfController, MajorFaultsAddSwapLatency)
{
    Rig rig(8 * MiB);
    mem::VirtAddr buf = rig.as.allocRegion(2 * MiB);
    rig.as.touch(buf, 2 * MiB, true); // dirty
    rig.mm.reclaimPages(4 * MiB / mem::kPageSize); // swap out
    NpfBreakdown bd = rig.npfc.computeResolve(rig.ch, buf,
                                              mem::kPageSize, true);
    EXPECT_TRUE(bd.ok);
    EXPECT_EQ(bd.majorFaults, 1u);
    EXPECT_GT(bd.total(), rig.mm.swap().readLatency(1));
}

TEST(NpfController, SampleResolveLatencyIsReasonable)
{
    Rig rig;
    sim::Time minor = rig.npfc.sampleResolveLatency(rig.ch, 1, false);
    EXPECT_NEAR(sim::toMicroseconds(minor), 215.0, 60.0);
    sim::Time major = rig.npfc.sampleResolveLatency(rig.ch, 1, true);
    EXPECT_GT(major, minor + rig.mm.swap().readLatency(1) / 2);
}

// --- pinning strategies -------------------------------------------------

TEST(Pinning, StaticPinsEverythingUpFront)
{
    Rig rig;
    StaticPinning pin(rig.npfc, rig.ch);
    mem::VirtAddr buf = rig.as.allocRegion(8 * MiB);
    sim::Time setup = pin.setup(buf, 8 * MiB);
    EXPECT_TRUE(pin.ok());
    EXPECT_GT(setup, 0u);
    EXPECT_EQ(pin.beforeDma(buf, MiB), 0u);
    EXPECT_EQ(rig.as.pinnedPages(), 8 * MiB / mem::kPageSize);
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, buf, 8 * MiB).ok);
}

TEST(Pinning, StaticFailsWhenMemoryTooSmall)
{
    Rig rig(8 * MiB);
    StaticPinning pin(rig.npfc, rig.ch);
    mem::VirtAddr buf = rig.as.allocRegion(16 * MiB);
    pin.setup(buf, 16 * MiB);
    EXPECT_FALSE(pin.ok()) << "Table 5's N/A case";
}

TEST(Pinning, FineGrainedPinsAndUnpinsAroundDma)
{
    Rig rig;
    FineGrainedPinning pin(rig.npfc, rig.ch);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    sim::Time before = pin.beforeDma(buf, 64 * 1024);
    EXPECT_GT(before, 0u);
    EXPECT_GT(rig.as.pinnedPages(), 0u);
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, buf, 64 * 1024).ok);
    sim::Time after = pin.afterDma(buf, 64 * 1024);
    EXPECT_GT(after, 0u);
    EXPECT_EQ(rig.as.pinnedPages(), 0u);
    EXPECT_FALSE(rig.npfc.checkDma(rig.ch, buf, 64 * 1024).ok)
        << "fine-grained unmaps after the DMA";
}

TEST(Pinning, PinDownCacheHitsAreCheap)
{
    Rig rig;
    PinDownCache cache(rig.npfc, rig.ch, /*capacity=*/0);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    sim::Time miss = cache.beforeDma(buf, 256 * 1024);
    sim::Time hit = cache.beforeDma(buf, 256 * 1024);
    EXPECT_GT(miss, 10 * hit);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    // A sub-range of a registered region also hits.
    sim::Time sub = cache.beforeDma(buf + 4096, 1024);
    EXPECT_EQ(sub, hit);
}

TEST(Pinning, PinDownCacheEvictsLruUnderBudget)
{
    Rig rig;
    PinDownCache cache(rig.npfc, rig.ch, 2 * MiB);
    mem::VirtAddr a = rig.as.allocRegion(MiB);
    mem::VirtAddr b = rig.as.allocRegion(MiB);
    mem::VirtAddr c = rig.as.allocRegion(MiB);
    cache.beforeDma(a, MiB);
    cache.beforeDma(b, MiB);
    cache.beforeDma(a, MiB); // refresh a
    cache.beforeDma(c, MiB); // must evict b
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.reregistrations(), 0u)
        << "capacity evictions are not re-registrations";
    EXPECT_LE(cache.pinnedBytes(), 2 * MiB);
    // b needs re-registration; a still hits.
    std::uint64_t misses = cache.misses();
    cache.beforeDma(a, MiB);
    EXPECT_EQ(cache.misses(), misses);
    cache.beforeDma(b, MiB);
    EXPECT_EQ(cache.misses(), misses + 1);
}

TEST(Pinning, PinDownCacheOverlapDoesNotDoubleCount)
{
    // Regression: overlapping registrations were each charged their
    // full page span, so pinnedBytes_ exceeded what is actually
    // pinned and the budget filled up with phantom bytes.
    Rig rig;
    constexpr std::size_t kPage = mem::kPageSize;
    PinDownCache cache(rig.npfc, rig.ch, /*capacity=*/0);
    mem::VirtAddr buf = rig.as.allocRegion(16 * kPage);
    cache.beforeDma(buf, 8 * kPage);             // pages [0, 8)
    cache.beforeDma(buf + 4 * kPage, 8 * kPage); // pages [4, 12)
    EXPECT_EQ(cache.pinnedBytes(), 12 * kPage)
        << "the 4 shared pages must be counted once";
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(Pinning, PinDownCacheEvictionSparesSiblingCoveredPages)
{
    // Regression: evicting a region invalidated its whole extent,
    // unmapping pages a still-cached overlapping sibling relies on —
    // the sibling then "hits" in the cache but faults on DMA.
    Rig rig;
    constexpr std::size_t kPage = mem::kPageSize;
    PinDownCache cache(rig.npfc, rig.ch, /*capacity=*/12 * kPage);
    mem::VirtAddr buf = rig.as.allocRegion(16 * kPage);
    mem::VirtAddr other = rig.as.allocRegion(4 * kPage);
    cache.beforeDma(buf, 8 * kPage);             // A: pages [0, 8)
    cache.beforeDma(buf + 4 * kPage, 8 * kPage); // B: pages [4, 12)
    ASSERT_EQ(cache.pinnedBytes(), 12 * kPage);

    // 4 fresh pages exceed the budget: LRU evicts A.
    cache.beforeDma(other, 4 * kPage);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.pinnedBytes(), 12 * kPage)
        << "only A's private pages [0, 4) were released";

    // B must still hit AND its whole extent must still be mapped.
    std::uint64_t misses = cache.misses();
    cache.beforeDma(buf + 4 * kPage, 8 * kPage);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, buf + 4 * kPage,
                                  8 * kPage).ok)
        << "eviction of A must not unmap pages B still covers";
    // A's private pages really are gone from the device view.
    EXPECT_FALSE(rig.npfc.checkDma(rig.ch, buf, 4 * kPage).ok);
}

TEST(Pinning, PinDownCacheSameBaseReRegistrationReplaces)
{
    // Re-registering the same base with a longer extent replaces the
    // old region; the old entry must not linger in the LRU list or
    // keep its bytes charged.
    Rig rig;
    constexpr std::size_t kPage = mem::kPageSize;
    PinDownCache cache(rig.npfc, rig.ch, /*capacity=*/0);
    mem::VirtAddr buf = rig.as.allocRegion(16 * kPage);
    cache.beforeDma(buf, 4 * kPage);
    cache.beforeDma(buf, 8 * kPage); // longer: a miss, replaces
    // A replacement is not a capacity eviction: tab06's eviction
    // column must keep meaning "the budget pushed something out".
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.reregistrations(), 1u);
    EXPECT_EQ(cache.pinnedBytes(), 8 * kPage);
    std::uint64_t misses = cache.misses();
    cache.beforeDma(buf, 8 * kPage);
    EXPECT_EQ(cache.misses(), misses) << "replacement region hits";
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, buf, 8 * kPage).ok);
}

TEST(Pinning, NpfModeIsFree)
{
    NpfPinning npf;
    EXPECT_EQ(npf.setup(0, MiB), 0u);
    EXPECT_EQ(npf.beforeDma(0, MiB), 0u);
    EXPECT_EQ(npf.afterDma(0, MiB), 0u);
    EXPECT_TRUE(npf.ok());
}

TEST(Pinning, PinDownCacheChargesFailedPinAttemptsUnderPressure)
{
    // Regression: the memory-pressure retry loop discarded the cost
    // of each *failed* pinRange attempt — CPU that really faulted
    // pages in before hitting the wall — so only the final successful
    // attempt was charged. Reconstruct the exact expected charge on a
    // twin rig (identical deterministic state) and demand equality.
    constexpr std::size_t kPage = mem::kPageSize;
    const std::size_t kA = 8 * MiB;
    const std::size_t kB = 12 * MiB;
    PinCosts pc;

    Rig rig(16 * MiB);
    PinDownCache cache(rig.npfc, rig.ch, /*capacity=*/0);
    mem::VirtAddr a = rig.as.allocRegion(kA);
    mem::VirtAddr b = rig.as.allocRegion(kB);
    cache.beforeDma(a, kA);
    sim::Time total = cache.beforeDma(b, kB);
    ASSERT_TRUE(cache.ok());

    // Twin rig: replay the same operations by hand.
    Rig twin(16 * MiB);
    PinDownCache warm(twin.npfc, twin.ch, /*capacity=*/0);
    mem::VirtAddr ta = twin.as.allocRegion(kA);
    mem::VirtAddr tb = twin.as.allocRegion(kB);
    ASSERT_EQ(ta, a);
    ASSERT_EQ(tb, b);
    warm.beforeDma(ta, kA);

    // The miss path: first pin attempt fails (A holds half the
    // machine pinned), having already faulted in every free page.
    sim::Time expected = 0;
    mem::AccessResult f1 = twin.as.pinRange(tb, kB);
    ASSERT_FALSE(f1.ok);
    ASSERT_GT(f1.cost, 0u) << "the failed attempt did real work";
    expected += f1.cost; // <-- the charge the bug dropped

    // evictOne(): unpin A, invalidate its (sibling-free) extent.
    twin.as.unpinRange(ta, kA);
    expected += pc.unpinBase + (kA / kPage) * pc.unpinPerPage;
    expected += twin.npfc.invalidateRange(twin.ch, ta, kA).total();

    // The retry succeeds, then the normal register path runs.
    mem::AccessResult r2 = twin.as.pinRange(tb, kB);
    ASSERT_TRUE(r2.ok);
    expected += r2.cost;
    mem::AccessResult pf = twin.npfc.prefault(twin.ch, tb, kB, true);
    expected += pf.cost;
    expected += pc.pinBase +
                (kB / kPage) * (pc.pinPerPage + pc.iommuMapPerPage);
    expected += pc.regMrBase;

    EXPECT_EQ(total, expected);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Pinning, NpRdmaMapsBeforeAndUnmapsAfterEachIo)
{
    Rig rig;
    NpRdmaMapping map(rig.npfc, rig.ch);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);

    EXPECT_EQ(map.setup(buf, MiB), 0u) << "no registration step";
    sim::Time before = map.beforeDma(buf, 64 * 1024);
    EXPECT_GT(before, 0u);
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, buf, 64 * 1024).ok)
        << "mapped for DMA without any NIC fault";
    EXPECT_EQ(map.pinnedBytes(), 0u) << "nothing is ever pinned";
    EXPECT_EQ(rig.as.pinnedPages(), 0u);

    sim::Time after = map.afterDma(buf, 64 * 1024);
    EXPECT_GT(after, 0u);
    EXPECT_FALSE(rig.npfc.checkDma(rig.ch, buf, 64 * 1024).ok)
        << "per-IO unmap tears the mapping down at completion";
    EXPECT_EQ(map.stats().maps, 1u);
    EXPECT_EQ(map.stats().unmaps, 1u);
    EXPECT_EQ(map.stats().pagesMapped, 16u);
    EXPECT_EQ(map.stats().pagesUnmapped, 16u);
    EXPECT_EQ(map.tableSize(), 0u);
}

TEST(Pinning, NpRdmaConcurrentIosShareOneMapping)
{
    Rig rig;
    constexpr std::size_t kPage = mem::kPageSize;
    NpRdmaMapping map(rig.npfc, rig.ch);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);

    const auto &tlb = rig.npfc.iommu(rig.ch).tlb().stats();

    sim::Time first = map.beforeDma(buf, 16 * kPage);
    std::uint64_t refreshes = tlb.refreshes;
    sim::Time second = map.beforeDma(buf, 8 * kPage);
    EXPECT_GT(first, second) << "second IO reuses the live mapping";
    EXPECT_EQ(second, MapCosts{}.tableLookup)
        << "a reuse takes a ref: only the table probe is charged";
    EXPECT_EQ(map.stats().maps, 1u);
    EXPECT_EQ(map.stats().pagesMapped, 16u) << "no remap";
    EXPECT_EQ(tlb.refreshes, refreshes) << "no map doorbell";
    EXPECT_EQ(map.stats().reuses, 1u);
    EXPECT_EQ(map.tableSize(), 1u);

    // First completion only drops a reference; the sibling's DMA
    // must keep working.
    map.afterDma(buf, 8 * kPage);
    EXPECT_EQ(map.stats().unmaps, 0u);
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, buf, 16 * kPage).ok);

    map.afterDma(buf, 16 * kPage);
    EXPECT_EQ(map.stats().unmaps, 1u);
    EXPECT_FALSE(rig.npfc.checkDma(rig.ch, buf, kPage).ok);
}

TEST(Pinning, NpRdmaUnmapSparesPagesAnotherInFlightIoCovers)
{
    Rig rig;
    constexpr std::size_t kPage = mem::kPageSize;
    NpRdmaMapping map(rig.npfc, rig.ch);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);

    map.beforeDma(buf, 16 * kPage);             // A: pages [0, 16)
    map.beforeDma(buf, 16 * kPage);             // A's second ref
    map.beforeDma(buf + 8 * kPage, 16 * kPage); // B: pages [8, 24)
    EXPECT_EQ(map.tableSize(), 2u);

    map.afterDma(buf, 16 * kPage); // A keeps one ref
    EXPECT_EQ(map.stats().unmaps, 0u);
    map.afterDma(buf, 16 * kPage); // A's last ref unmaps
    EXPECT_EQ(map.stats().pagesUnmapped, 8u) << "only A's private pages";
    EXPECT_TRUE(
        rig.npfc.checkDma(rig.ch, buf + 8 * kPage, 16 * kPage).ok)
        << "B's DMA must not fault: its pages stay mapped";
    EXPECT_FALSE(rig.npfc.checkDma(rig.ch, buf, 8 * kPage).ok)
        << "A's private pages [0, 8) are unmapped";
    map.afterDma(buf + 8 * kPage, 16 * kPage);
    EXPECT_FALSE(
        rig.npfc.checkDma(rig.ch, buf + 8 * kPage, 16 * kPage).ok);
}

TEST(Pinning, NpRdmaTableOverflowStillMapsUntracked)
{
    Rig rig;
    constexpr std::size_t kPage = mem::kPageSize;
    NpRdmaMapping map(rig.npfc, rig.ch, /*table_entries=*/2);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    mem::VirtAddr a = buf;
    mem::VirtAddr b = buf + 64 * kPage;
    mem::VirtAddr c = buf + 128 * kPage;

    map.beforeDma(a, 4 * kPage);
    map.beforeDma(b, 4 * kPage);
    map.beforeDma(c, 4 * kPage); // table full: untracked
    EXPECT_EQ(map.stats().overflows, 1u);
    EXPECT_EQ(map.tableSize(), 2u);
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, c, 4 * kPage).ok)
        << "overflow degrades tracking, not correctness";

    map.afterDma(c, 4 * kPage); // unmapped by address, not by table
    EXPECT_FALSE(rig.npfc.checkDma(rig.ch, c, 4 * kPage).ok);
    map.afterDma(b, 4 * kPage);
    map.afterDma(a, 4 * kPage);
    EXPECT_EQ(map.stats().unmaps, 3u);
    EXPECT_EQ(map.tableSize(), 0u);
}

TEST(Pinning, NpRdmaThrashesIoTlbAndWarmsRefreshes)
{
    Rig rig;
    constexpr std::size_t kPage = mem::kPageSize;
    NpRdmaMapping map(rig.npfc, rig.ch);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    const auto &tlb = rig.npfc.iommu(rig.ch).tlb().stats();

    // Per-IO unmap invalidates every page in the device cache: a
    // miss-heavy loop thrashes the IOTLB where a pin-down cache
    // would leave it warm.
    std::uint64_t inv0 = tlb.invalidations;
    for (int i = 0; i < 10; ++i) {
        map.beforeDma(buf, 16 * kPage);
        map.afterDma(buf, 16 * kPage);
    }
    EXPECT_EQ(tlb.invalidations - inv0, 10u * 16u);

    // Overlapping in-flight extents: the second map's doorbell
    // re-pushes translations the first already cached — the re-map
    // traffic IoTlb::Stats::refreshes was added to expose.
    std::uint64_t ref0 = tlb.refreshes;
    map.beforeDma(buf, 16 * kPage);             // pages [0, 16) warm
    map.beforeDma(buf + 8 * kPage, 16 * kPage); // re-pushes [8, 16)
    EXPECT_EQ(tlb.refreshes - ref0, 8u);
    map.afterDma(buf, 16 * kPage);
    map.afterDma(buf + 8 * kPage, 16 * kPage);
}

TEST(Pinning, NpRdmaLongerExtentMapsOnlyTheTail)
{
    constexpr std::size_t kPage = mem::kPageSize;
    const MapCosts mc;
    Rig rig;
    NpRdmaMapping map(rig.npfc, rig.ch);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    map.beforeDma(buf, 8 * kPage);
    sim::Time grow = map.beforeDma(buf, 12 * kPage);

    // Twin rig: the expected charge is a prefault of the 4-page tail.
    Rig twin;
    NpRdmaMapping warm(twin.npfc, twin.ch);
    mem::VirtAddr tbuf = twin.as.allocRegion(MiB);
    ASSERT_EQ(tbuf, buf);
    warm.beforeDma(tbuf, 8 * kPage);
    mem::AccessResult tail =
        twin.npfc.prefault(twin.ch, tbuf + 8 * kPage, 4 * kPage, true);
    EXPECT_EQ(grow, mc.tableLookup + tail.cost + mc.mapBase +
                        4 * mc.mapPerPage);

    EXPECT_EQ(map.stats().maps, 2u);
    EXPECT_EQ(map.stats().pagesMapped, 12u) << "8 + the 4-page tail";
    EXPECT_EQ(map.stats().reuses, 0u);
    EXPECT_EQ(map.tableSize(), 1u) << "the entry grew in place";
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, buf, 12 * kPage).ok);

    // The grown entry holds both IOs; the last completion unmaps all
    // 12 pages, not the 8 of the IO that completes last.
    map.afterDma(buf, 12 * kPage);
    EXPECT_EQ(map.stats().unmaps, 0u);
    map.afterDma(buf, 8 * kPage);
    EXPECT_EQ(map.stats().unmaps, 1u);
    EXPECT_EQ(map.stats().pagesUnmapped, 12u);
    EXPECT_FALSE(rig.npfc.checkDma(rig.ch, buf + 8 * kPage, kPage).ok);
}

TEST(Pinning, NpRdmaOverflowUnmapsByAddressAroundTrackedSibling)
{
    Rig rig;
    constexpr std::size_t kPage = mem::kPageSize;
    NpRdmaMapping map(rig.npfc, rig.ch, /*table_entries=*/1);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);

    map.beforeDma(buf, 8 * kPage);             // tracked: pages [0, 8)
    map.beforeDma(buf + 4 * kPage, 8 * kPage); // untracked: [4, 12)
    EXPECT_EQ(map.stats().overflows, 1u);
    EXPECT_EQ(map.tableSize(), 1u);
    EXPECT_EQ(map.table().find(buf + 4 * kPage),
              NpRdmaMapping::Table::kNil);

    // The untracked IO is unmapped by its own address range; the
    // pages the tracked extent covers stay mapped.
    map.afterDma(buf + 4 * kPage, 8 * kPage);
    EXPECT_EQ(map.stats().unmaps, 1u);
    EXPECT_EQ(map.stats().pagesUnmapped, 4u);
    EXPECT_TRUE(rig.npfc.checkDma(rig.ch, buf, 8 * kPage).ok);
    EXPECT_FALSE(rig.npfc.checkDma(rig.ch, buf + 8 * kPage, kPage).ok);
    EXPECT_EQ(map.tableSize(), 1u);

    map.afterDma(buf, 8 * kPage);
    EXPECT_EQ(map.stats().pagesUnmapped, 12u);
    EXPECT_EQ(map.tableSize(), 0u);
}

TEST(Pinning, NpRdmaFreedTableSlotsAreReusedLifo)
{
    Rig rig;
    constexpr std::size_t kPage = mem::kPageSize;
    NpRdmaMapping map(rig.npfc, rig.ch, /*table_entries=*/4);
    mem::VirtAddr buf = rig.as.allocRegion(MiB);
    auto extent = [&](int i) { return buf + i * 16 * kPage; };
    const NpRdmaMapping::Table &table = map.table();

    for (int i = 0; i < 4; ++i)
        map.beforeDma(extent(i), 4 * kPage);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(table.find(extent(i)), std::uint32_t(i))
            << "fresh slots go out in ascending order";

    map.afterDma(extent(1), 4 * kPage);
    map.afterDma(extent(3), 4 * kPage);
    map.beforeDma(extent(4), 4 * kPage);
    map.beforeDma(extent(5), 4 * kPage);
    EXPECT_EQ(table.find(extent(4)), 3u) << "last freed, first reused";
    EXPECT_EQ(table.find(extent(5)), 1u);
    EXPECT_EQ(table.key(table.mru()), extent(5));
    EXPECT_EQ(table.key(table.lru()), extent(0));

    map.beforeDma(extent(6), 4 * kPage);
    EXPECT_EQ(map.stats().overflows, 1u) << "the 4 slots are all live";
    EXPECT_EQ(map.tableSize(), 4u);
}

TEST(Pinning, NpRdmaZeroTableEntriesMeansOne)
{
    Rig rig;
    NpRdmaMapping map(rig.npfc, rig.ch, /*table_entries=*/0);
    EXPECT_EQ(map.tableCapacity(), 1u);
}
