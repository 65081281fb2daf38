/**
 * @file
 * Unit tests for the virtual-memory substrate: frame allocation,
 * demand paging, reclaim (clock / second chance / pinning), cgroup
 * limits, swap round trips, MMU notifiers, the page cache, and the
 * radix page map behind every page table.
 */

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/memory_manager.hh"
#include "mem/page_cache.hh"
#include "mem/page_map.hh"
#include "mem/physical_memory.hh"
#include "sim/random.hh"

using namespace npf;
using namespace npf::mem;

namespace {

constexpr std::size_t MiB = 1ull << 20;

/**
 * Reference frame allocator: the eager free list PhysicalMemory used
 * to build, with every pfn pushed up front (lowest on top) and a
 * released pfn pushed back on top. PhysicalMemory must hand out
 * exactly the same pfns without ever touching frames it has not used.
 */
class EagerFreeList
{
  public:
    explicit EagerFreeList(std::size_t total_bytes)
        : frames_(total_bytes / kPageSize)
    {
        for (std::size_t i = frames_.size(); i-- > 0;)
            free_.push_back(i);
    }

    std::size_t freeFrames() const { return free_.size(); }
    std::size_t usedFrames() const { return frames_.size() - free_.size(); }
    const Frame &frame(Pfn pfn) const { return frames_[pfn]; }

    std::optional<Pfn>
    allocate(std::uint32_t owner, Vpn vpn)
    {
        if (free_.empty())
            return std::nullopt;
        Pfn pfn = free_.back();
        free_.pop_back();
        frames_[pfn] = Frame{owner, std::uint32_t(vpn)};
        return pfn;
    }

    void
    release(Pfn pfn)
    {
        frames_[pfn] = Frame{};
        free_.push_back(pfn);
    }

  private:
    std::vector<Frame> frames_;
    std::vector<Pfn> free_;
};

} // namespace

TEST(PhysicalMemory, AllocateAndRelease)
{
    PhysicalMemory pm(16 * kPageSize);
    EXPECT_EQ(pm.totalFrames(), 16u);
    auto f = pm.allocate(0, 1);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(pm.freeFrames(), 15u);
    pm.release(*f);
    EXPECT_EQ(pm.freeFrames(), 16u);
}

TEST(PhysicalMemory, ExhaustionReturnsNullopt)
{
    PhysicalMemory pm(2 * kPageSize);
    EXPECT_TRUE(pm.allocate(0, 0).has_value());
    EXPECT_TRUE(pm.allocate(0, 1).has_value());
    EXPECT_FALSE(pm.allocate(0, 2).has_value());
}

/**
 * Seeded differential test of PhysicalMemory against the eager free
 * list: random allocate / release runs over several sizes (a partial
 * trailing page included), in phases that drive the pool to
 * exhaustion and back. The pfn handed out, the free/used counts and
 * the reverse map must match the reference after every operation.
 */
TEST(PhysicalMemory, RandomOpsMatchEagerFreeListOracle)
{
    MemoryManager mm(MiB);
    std::uint32_t owners[] = {mm.createAddressSpace("a").id(),
                              mm.createAddressSpace("b").id()};
    auto sameFrame = [](const Frame &x, const Frame &y) {
        return x.owner == y.owner && x.vpn == y.vpn;
    };
    for (std::size_t bytes :
         {std::size_t(0), kPageSize, 2 * kPageSize + 100, 7 * kPageSize,
          64 * kPageSize, 1000 * kPageSize}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << "bytes " << bytes << " seed " << seed);
            sim::Rng rng(seed);
            PhysicalMemory pm(bytes);
            EagerFreeList ref(bytes);
            const std::size_t total = bytes / kPageSize;
            ASSERT_EQ(pm.totalFrames(), total);
            std::vector<Pfn> live;
            double pAlloc = 0.5;
            for (int op = 0; op < 4000; ++op) {
                if (op % 100 == 0) // fill up, drain, or hover
                    pAlloc =
                        std::array{0.2, 0.5, 0.9}[rng.uniformInt(0, 2)];
                if (live.empty() || rng.bernoulli(pAlloc)) {
                    std::uint32_t owner = owners[rng.uniformInt(0, 1)];
                    Vpn vpn = rng.uniformInt(0, 1u << 20);
                    auto got = pm.allocate(owner, vpn);
                    auto want = ref.allocate(owner, vpn);
                    ASSERT_EQ(got, want) << "op " << op;
                    if (got) {
                        live.push_back(*got);
                        ASSERT_TRUE(
                        sameFrame(pm.frame(*got), ref.frame(*got)));
                    }
                } else {
                    std::size_t i = rng.uniformInt(0, live.size() - 1);
                    Pfn pfn = live[i];
                    live[i] = live.back();
                    live.pop_back();
                    pm.release(pfn);
                    ref.release(pfn);
                    ASSERT_TRUE(sameFrame(pm.frame(pfn), ref.frame(pfn)));
                }
                ASSERT_EQ(pm.freeFrames(), ref.freeFrames()) << "op " << op;
                ASSERT_EQ(pm.usedFrames(), ref.usedFrames()) << "op " << op;
                if (total != 0) {
                    Pfn probe = rng.uniformInt(0, total - 1);
                    ASSERT_TRUE(sameFrame(pm.frame(probe), ref.frame(probe)))
                        << "pfn " << probe;
                }
            }
            for (Pfn pfn = 0; pfn < total; ++pfn)
                ASSERT_TRUE(sameFrame(pm.frame(pfn), ref.frame(pfn)))
                    << "pfn " << pfn;
        }
    }
}

TEST(PhysicalMemoryDeathTest, BadReleaseAborts)
{
    // Checked in every build: a double release would hand one frame to
    // two later faults, and a pfn past the table would write out of it.
    PhysicalMemory pm(16 * kPageSize);
    Pfn pfn = *pm.allocate(0, 7);
    pm.release(pfn);
    EXPECT_DEATH(pm.release(pfn), "release of pfn 0, which is not allocated");
    EXPECT_DEATH(pm.release(1), "release of pfn 1, which is past the frame");
    EXPECT_DEATH(pm.release(99), "release of pfn 99, which is past the frame");
}

TEST(PhysicalMemoryDeathTest, FrameCountPastThePfnAborts)
{
    // The check comes before the frame table is reserved: neither host
    // here reserves anything.
    EXPECT_DEATH(PhysicalMemory(std::size_t(1) << 44),
                 "4294967296 frames do not fit a 32-bit pfn");
    EXPECT_DEATH(PhysicalMemory(std::size_t(kNoFrame) * kPageSize),
                 "4294967295 frames do not fit a 32-bit pfn");
}

TEST(PhysicalMemoryDeathTest, VpnPastTheFrameFieldAborts)
{
    PhysicalMemory pm(16 * kPageSize);
    EXPECT_EQ(pm.allocate(0, Frame::kMaxVpn), Pfn(0));
    EXPECT_EQ(pm.frame(0).vpn, Frame::kMaxVpn);
    EXPECT_DEATH(pm.allocate(0, Frame::kMaxVpn + 1),
                 "allocate for vpn 4294967296, past the largest");
}

/**
 * The frame table and the recycle stack are reserved on kernel pages:
 * building a PhysicalMemory leaves the malloc heap alone, so the
 * reservation cannot land on resident chunks an earlier instance freed.
 */
TEST(PhysicalMemory, ReservationIsNotMallocMemory)
{
#if !defined(__GLIBC__)
    GTEST_SKIP() << "mallinfo2 is glibc's";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer's allocator owns malloc";
#else
    constexpr std::size_t kSlack = 64 * 1024;
    auto moved = [](std::size_t a, std::size_t b) {
        return std::max(a, b) - std::min(a, b);
    };
    for (std::size_t bytes : {std::size_t(1) << 30, std::size_t(64) << 30}) {
        SCOPED_TRACE(::testing::Message() << "bytes " << bytes);
        struct mallinfo2 before = mallinfo2();
        PhysicalMemory pm(bytes);
        ASSERT_TRUE(pm.allocate(0, 0).has_value());
        struct mallinfo2 built = mallinfo2();
        EXPECT_LE(moved(before.uordblks, built.uordblks), kSlack);
        EXPECT_LE(moved(before.hblkhd, built.hblkhd), kSlack);
    }
#endif
}

TEST(PageMath, Helpers)
{
    EXPECT_EQ(pageOf(0), 0u);
    EXPECT_EQ(pageOf(4095), 0u);
    EXPECT_EQ(pageOf(4096), 1u);
    EXPECT_EQ(addrOf(2), 8192u);
    EXPECT_EQ(pagesCovering(0, 1), 1u);
    EXPECT_EQ(pagesCovering(4095, 2), 2u);
    EXPECT_EQ(pagesCovering(0, 4096), 1u);
    EXPECT_EQ(pagesCovering(100, 0), 0u);
    EXPECT_EQ(pagesFor(1), 1u);
    EXPECT_EQ(pagesFor(4097), 2u);
}

/**
 * Seeded differential test of mem::PageMap against std::unordered_map:
 * random find / insert / erase over vpns near 0, straddling 512-entry
 * leaf boundaries, on both sides of the dense-directory limit, and at
 * or above 2^40 (the side table), up to the largest vpn.
 */
TEST(PageMap, RandomOpsMatchUnorderedMapOracle)
{
    constexpr Vpn kDenseEnd = PageMap<int>::kDenseLeaves
                              << PageMap<int>::kLeafBits;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        sim::Rng rng(seed);
        auto randomVpn = [&]() -> Vpn {
            std::uint64_t r = rng.uniformInt(0, 63);
            switch (rng.uniformInt(0, 5)) {
              case 0: // near 0
                return r;
              case 1: // either side of a leaf boundary
                return rng.uniformInt(1, 8) * 512 + r - 32;
              case 2: // either side of the dense-directory limit
                return kDenseEnd + r - 32;
              case 3: // the side table, across its leaf boundaries
                return (Vpn(1) << 40) + rng.uniformInt(0, 4) * 512 + r;
              case 4: // scattered far leaves (grow the side table)
                return (Vpn(1) << 40) + rng.uniformInt(0, 40) * 1000003;
              default: // top of the vpn space
                return ~Vpn(0) - r;
            }
        };
        PageMap<std::uint64_t> map;
        std::unordered_map<Vpn, std::uint64_t> oracle;
        for (int op = 0; op < 20000; ++op) {
            Vpn vpn = randomVpn();
            switch (rng.uniformInt(0, 2)) {
              case 0: { // find
                const std::uint64_t *v = std::as_const(map).find(vpn);
                auto it = oracle.find(vpn);
                ASSERT_EQ(v != nullptr, it != oracle.end()) << vpn;
                if (v != nullptr) {
                    ASSERT_EQ(*v, it->second) << vpn;
                }
                break;
              }
              case 1: { // insert, then write
                auto [v, inserted] = map.insert(vpn);
                auto [it, fresh] = oracle.try_emplace(vpn, 0);
                ASSERT_EQ(inserted, fresh) << vpn;
                ASSERT_EQ(v, it->second) << vpn; // fresh entries are 0
                v = it->second = op;
                break;
              }
              default: // erase
                ASSERT_EQ(map.erase(vpn), oracle.erase(vpn) == 1) << vpn;
                break;
            }
        }
        for (const auto &[vpn, v] : oracle) {
            const std::uint64_t *got = map.find(vpn);
            ASSERT_NE(got, nullptr) << vpn;
            ASSERT_EQ(*got, v) << vpn;
        }
    }
}

TEST(PageMap, PteReferenceSurvivesLaterInserts)
{
    MemoryManager mm(64 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    Vpn vpn = pageOf(as.allocRegion(MiB)) + 3;
    Pte &p = as.pte(vpn);
    p.pinCount = 7;
    // 10k later inserts: dense-directory growth, new leaves below and
    // above, and side-table growth must all leave the entry in place.
    for (Vpn i = 0; i < 10000; ++i) {
        Vpn other = i % 3 == 0   ? vpn + 1 + i
                    : i % 3 == 1 ? i
                                 : (Vpn(1) << 44) + (i % 64) * 8192 + i;
        as.pte(other).dirty = true;
    }
    EXPECT_EQ(as.findPte(vpn), &p);
    EXPECT_EQ(p.pinCount, 7u);
    EXPECT_FALSE(p.dirty);
}

TEST(AddressSpace, DelayedAllocation)
{
    MemoryManager mm(64 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(10 * MiB);
    EXPECT_EQ(as.residentPages(), 0u) << "delayed allocation";
    AccessResult res = as.touch(r, 3 * kPageSize, true);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.minorFaults, 3u);
    EXPECT_EQ(as.residentPages(), 3u);
    // Second touch: no faults.
    res = as.touch(r, 3 * kPageSize, false);
    EXPECT_EQ(res.minorFaults, 0u);
    EXPECT_EQ(res.cost, 0u);
}

TEST(AddressSpace, RegionsDoNotOverlap)
{
    MemoryManager mm(64 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr a = as.allocRegion(MiB);
    VirtAddr b = as.allocRegion(MiB);
    EXPECT_GE(b, a + MiB);
}

TEST(AddressSpace, FreeRegionReleasesFrames)
{
    MemoryManager mm(64 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(MiB);
    as.touch(r, MiB, true);
    std::size_t used = mm.physical().usedFrames();
    EXPECT_EQ(used, MiB / kPageSize);
    as.freeRegion(r);
    EXPECT_EQ(mm.physical().usedFrames(), 0u);
    EXPECT_EQ(as.residentPages(), 0u);
}

TEST(AddressSpaceDeathTest, FreeRegionOfUnknownBaseAborts)
{
    MemoryManager mm(64 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(MiB);
    EXPECT_DEATH(as.freeRegion(r + kPageSize),
                 "AddressSpace a: freeRegion of 0x10001000, which is not");
    as.freeRegion(r);
    EXPECT_DEATH(as.freeRegion(r), "freeRegion of 0x10000000, which is not");
}

TEST(AddressSpaceDeathTest, UnpinOfUnpinnedPageAborts)
{
    MemoryManager mm(64 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(MiB);
    ASSERT_TRUE(as.pinRange(r, kPageSize).ok);
    // The second page was never pinned: its count must not wrap.
    EXPECT_DEATH(as.unpinRange(r, 2 * kPageSize),
                 "unpin of vpn 65537, which is not pinned");
    as.unpinRange(r, kPageSize);
    EXPECT_DEATH(as.unpinRange(r, kPageSize),
                 "unpin of vpn 65536, which is not pinned");
}

TEST(AddressSpaceDeathTest, PinPastThePinCountWidthAborts)
{
    MemoryManager mm(64 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(MiB);
    ASSERT_TRUE(as.pinRange(r, kPageSize).ok);
    as.pte(pageOf(r)).pinCount = Pte::kMaxPins - 1;
    ASSERT_TRUE(as.pinRange(r, kPageSize).ok);
    EXPECT_EQ(as.findPte(pageOf(r))->pinCount, Pte::kMaxPins);
    EXPECT_DEATH(as.pinRange(r, kPageSize),
                 "pin of vpn 65536 past 134217727 pins");
}

TEST(AddressSpaceDeathTest, RegionPastTheFrameVpnFieldAborts)
{
    MemoryManager mm(64 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    // An empty region at vpn 0x10000 puts the next one a guard page
    // on; that one may end at Frame::kMaxVpn. Reserving address space
    // costs no memory.
    std::size_t fits = Frame::kMaxVpn - pageOf(as.allocRegion(0));
    EXPECT_DEATH(as.allocRegion((fits + 1) * kPageSize),
                 "reaches past vpn 4294967295");
    VirtAddr last = as.allocRegion(fits * kPageSize);
    ASSERT_TRUE(as.touch(last + (fits - 1) * kPageSize, 1, true).ok);
    EXPECT_EQ(mm.physical().frame(as.findPte(Frame::kMaxVpn)->pfn).vpn,
              Frame::kMaxVpn);
    EXPECT_DEATH(as.allocRegion(kPageSize), "reaches past vpn");
}

TEST(MemoryManagerDeathTest, DuplicateCgroupAborts)
{
    MemoryManager mm(64 * MiB);
    mm.createCgroup("t", MiB);
    EXPECT_DEATH(mm.createCgroup("t", 2 * MiB), "cgroup 't' already exists");
    EXPECT_DEATH(mm.createCgroup("root", MiB),
                 "cgroup 'root' already exists");
}

TEST(MemoryManagerDeathTest, UnknownCgroupAborts)
{
    MemoryManager mm(64 * MiB);
    EXPECT_DEATH(mm.createAddressSpace("a", "nosuch"),
                 "address space 'a' in unknown cgroup 'nosuch'");
}

TEST(MemoryManager, ReclaimEvictsUnderPressure)
{
    MemoryManager mm(8 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(32 * MiB);
    AccessResult res = as.touch(r, 16 * MiB, true);
    EXPECT_TRUE(res.ok) << "overcommit must succeed via reclaim";
    EXPECT_GT(mm.stats().evictions, 0u);
    EXPECT_LE(as.residentPages(), 8 * MiB / kPageSize);
}

TEST(MemoryManager, SwapRoundTripIsMajorFault)
{
    MemoryManager mm(4 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(16 * MiB);
    // Dirty everything; most of it must go to swap.
    as.touch(r, 12 * MiB, true);
    EXPECT_GT(mm.stats().swapOuts, 0u);
    // Touch the beginning again: it was evicted, so it must come
    // back from swap as a major fault.
    AccessResult res = as.touch(r, kPageSize, false);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.majorFaults, 1u);
    EXPECT_GE(res.cost, mm.swap().readLatency(1));
}

TEST(MemoryManager, CleanPagesDropWithoutSwap)
{
    MemoryManager mm(4 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(16 * MiB, "file", /*file_backed=*/true);
    as.touch(r, 12 * MiB, false); // clean, file-backed
    EXPECT_EQ(mm.stats().swapOuts, 0u);
    EXPECT_GT(mm.stats().evictions, 0u);
}

TEST(MemoryManager, PinnedPagesAreNeverEvicted)
{
    MemoryManager mm(8 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr pinned = as.allocRegion(2 * MiB);
    ASSERT_TRUE(as.pinRange(pinned, 2 * MiB).ok);

    VirtAddr churn = as.allocRegion(64 * MiB);
    as.touch(churn, 32 * MiB, true); // heavy pressure

    // Every pinned page must still be resident.
    for (Vpn v = pageOf(pinned); v < pageOf(pinned) + 2 * MiB / kPageSize;
         ++v) {
        EXPECT_TRUE(as.isPresent(v));
    }
    EXPECT_EQ(as.pinnedPages(), 2 * MiB / kPageSize);
}

TEST(MemoryManager, PinFailsWhenEverythingIsPinned)
{
    MemoryManager mm(4 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(64 * MiB);
    AccessResult res = as.pinRange(r, 16 * MiB);
    EXPECT_FALSE(res.ok) << "cannot pin more than physical memory";
    // Roll-back: no pins left behind.
    EXPECT_EQ(as.pinnedPages(), 0u);
    EXPECT_EQ(mm.pinnedPages(), 0u);
}

TEST(MemoryManager, PinnableLimitEnforced)
{
    MemCostConfig costs;
    costs.maxPinnableBytes = 1 * MiB;
    MemoryManager mm(64 * MiB, costs);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(4 * MiB);
    EXPECT_FALSE(as.pinRange(r, 2 * MiB).ok);
    EXPECT_TRUE(as.pinRange(r, MiB).ok);
}

TEST(MemoryManager, UnpinMakesPagesEvictable)
{
    MemoryManager mm(8 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr r = as.allocRegion(4 * MiB);
    ASSERT_TRUE(as.pinRange(r, 4 * MiB).ok);
    as.unpinRange(r, 4 * MiB);
    EXPECT_EQ(as.pinnedPages(), 0u);
    VirtAddr churn = as.allocRegion(64 * MiB);
    EXPECT_TRUE(as.touch(churn, 16 * MiB, true).ok);
}

TEST(MemoryManager, CgroupLimitConstrainsResidency)
{
    MemoryManager mm(64 * MiB);
    mm.createCgroup("tenant", 4 * MiB);
    AddressSpace &as = mm.createAddressSpace("a", "tenant");
    VirtAddr r = as.allocRegion(32 * MiB);
    EXPECT_TRUE(as.touch(r, 16 * MiB, true).ok);
    EXPECT_LE(as.residentPages(), 4 * MiB / kPageSize);
    // Plenty of global memory is still free.
    EXPECT_GT(mm.physical().freeFrames(),
              32 * MiB / kPageSize);
}

TEST(MemoryManager, CgroupsIsolateTenants)
{
    MemoryManager mm(64 * MiB);
    mm.createCgroup("t1", 8 * MiB);
    mm.createCgroup("t2", 8 * MiB);
    AddressSpace &a = mm.createAddressSpace("a", "t1");
    AddressSpace &b = mm.createAddressSpace("b", "t2");
    VirtAddr ra = a.allocRegion(8 * MiB);
    a.touch(ra, 8 * MiB, true);
    std::size_t a_resident = a.residentPages();
    // Tenant 2 churns hard; tenant 1's residency must not change.
    VirtAddr rb = b.allocRegion(64 * MiB);
    b.touch(rb, 32 * MiB, true);
    EXPECT_EQ(a.residentPages(), a_resident);
}

TEST(MemoryManager, SecondChancePrefersColdPages)
{
    MemoryManager mm(8 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    VirtAddr hot = as.allocRegion(1 * MiB);
    VirtAddr cold = as.allocRegion(4 * MiB);
    as.touch(hot, MiB, true);
    as.touch(cold, 4 * MiB, true);
    // Keep the hot region referenced while provoking eviction.
    VirtAddr churn = as.allocRegion(32 * MiB);
    for (int round = 0; round < 8; ++round) {
        as.touch(hot, MiB, false);
        as.touch(churn + std::uint64_t(round) * 2 * MiB, 2 * MiB, true);
    }
    std::size_t hot_resident = 0;
    for (Vpn v = pageOf(hot); v < pageOf(hot) + MiB / kPageSize; ++v)
        hot_resident += as.isPresent(v) ? 1 : 0;
    std::size_t cold_resident = 0;
    for (Vpn v = pageOf(cold); v < pageOf(cold) + 4 * MiB / kPageSize; ++v)
        cold_resident += as.isPresent(v) ? 1 : 0;
    EXPECT_GT(hot_resident, (MiB / kPageSize) / 2)
        << "referenced pages should survive the clock";
}

TEST(MemoryManager, InvalidateNotifierFiresOnEviction)
{
    MemoryManager mm(4 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    int notified = 0;
    as.registerInvalidateNotifier([&](Vpn) -> sim::Time {
        ++notified;
        return 100;
    });
    VirtAddr r = as.allocRegion(16 * MiB);
    as.touch(r, 8 * MiB, true);
    EXPECT_GT(notified, 0);
    EXPECT_EQ(std::uint64_t(notified), mm.stats().evictions);
}

TEST(MemoryManager, OomWhenEverythingPinnedReportsFailure)
{
    MemoryManager mm(4 * MiB);
    AddressSpace &as = mm.createAddressSpace("a");
    // Pin memory in small chunks until the pin path itself fails, so
    // that (almost) every frame is pinned.
    VirtAddr r = as.allocRegion(8 * MiB);
    std::size_t chunk = 64 * 1024;
    VirtAddr next = r;
    while (as.pinRange(next, chunk).ok)
        next += chunk;
    // The failing pin is the true OOM: nothing was evictable while
    // it tried to fault its pages in.
    EXPECT_GT(mm.stats().oomFailures, 0u);
    // An unpinned touch, by contrast, still succeeds — it thrashes
    // by evicting its own earlier pages, exactly like a real kernel.
    VirtAddr r2 = as.allocRegion(4 * MiB);
    AccessResult res = as.touch(r2, 1 * MiB, true);
    EXPECT_TRUE(res.ok);
    EXPECT_GT(mm.stats().evictions, 0u);
}

TEST(BackingStore, LatencyScalesWithSize)
{
    BackingStore bs;
    EXPECT_GT(bs.readLatency(1), 0u);
    EXPECT_GT(bs.readLatency(100), bs.readLatency(1));
    EXPECT_EQ(bs.pagesWritten(), 0u);
    bs.storePage();
    EXPECT_EQ(bs.pagesWritten(), 1u);
}

TEST(PageCache, HitsAfterMiss)
{
    MemoryManager mm(64 * MiB);
    AddressSpace &as = mm.createAddressSpace("tgt");
    int disk_reads = 0;
    PageCache cache(as, 16 * MiB, [&](std::uint64_t, std::size_t) {
        ++disk_reads;
        return sim::Time(5 * sim::kMillisecond);
    });
    sim::Time t1 = cache.access(0, 512 * 1024);
    EXPECT_GE(t1, 5 * sim::kMillisecond);
    EXPECT_EQ(disk_reads, 1);
    sim::Time t2 = cache.access(0, 512 * 1024);
    EXPECT_EQ(t2, 0u);
    EXPECT_EQ(disk_reads, 1);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(PageCache, EvictedBlocksMissAgain)
{
    MemoryManager mm(4 * MiB);
    AddressSpace &as = mm.createAddressSpace("tgt");
    int disk_reads = 0;
    PageCache cache(as, 32 * MiB, [&](std::uint64_t, std::size_t) {
        ++disk_reads;
        return sim::Time(sim::kMillisecond);
    });
    // Stream through the whole file: later blocks evict earlier ones.
    for (std::uint64_t off = 0; off < 32 * MiB; off += 512 * 1024)
        cache.access(off, 512 * 1024);
    int before = disk_reads;
    cache.access(0, 512 * 1024);
    EXPECT_EQ(disk_reads, before + 1) << "block 0 was evicted";
}
