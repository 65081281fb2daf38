/**
 * @file
 * Application-layer tests: the KV store's LRU semantics and paging
 * interaction, the memcached/memaslap loop end-to-end over the NIC
 * testbed, the disk model, and the tgt/fio storage pipeline over
 * simulated RDMA.
 */

#include <gtest/gtest.h>

#include "app/disk.hh"
#include "app/kv_store.hh"
#include "app/memcached.hh"
#include "app/storage.hh"
#include "kv_store_oracle.hh"
#include "net/fabric.hh"
#include "scenario/eth_world.hh"
#include "sim/random.hh"

using namespace npf;
using namespace npf::app;

namespace {

constexpr std::size_t MiB = 1ull << 20;

} // namespace

TEST(KvStore, GetMissThenSetThenHit)
{
    mem::MemoryManager mm(64 * MiB);
    auto &as = mm.createAddressSpace("kv");
    KvStore kv(as, 16 * MiB, 1024);
    EXPECT_FALSE(kv.get(7).hit);
    KvResult s = kv.set(7);
    EXPECT_GT(s.valueAddr, 0u);
    KvResult g = kv.get(7);
    EXPECT_TRUE(g.hit);
    EXPECT_EQ(g.valueLen, 1024u);
    EXPECT_EQ(kv.hits(), 1u);
    EXPECT_EQ(kv.misses(), 1u);
}

TEST(KvStore, LruEvictionAtCapacity)
{
    mem::MemoryManager mm(64 * MiB);
    auto &as = mm.createAddressSpace("kv");
    KvStore kv(as, 10 * (1024 + 64), 1024); // exactly 10 items
    ASSERT_EQ(kv.capacityItems(), 10u);
    for (std::uint64_t k = 0; k < 10; ++k)
        kv.set(k);
    kv.get(0); // refresh key 0
    kv.set(100); // evicts LRU = key 1
    EXPECT_TRUE(kv.get(0).hit);
    EXPECT_FALSE(kv.get(1).hit);
    EXPECT_TRUE(kv.get(100).hit);
    EXPECT_EQ(kv.items(), 10u);
}

TEST(KvStore, SwappedItemsCostMajorFaultsOnGet)
{
    mem::MemoryManager mm(8 * MiB);
    auto &as = mm.createAddressSpace("kv");
    KvStore kv(as, 32 * MiB, 20 * 1024); // working set >> memory
    for (std::uint64_t k = 0; k < 1000; ++k)
        kv.set(k);
    // Early keys were swapped out by later sets.
    KvResult g = kv.get(0);
    ASSERT_TRUE(g.hit) << "LRU capacity not exceeded: logical hit";
    EXPECT_GT(g.majorFaults, 0u) << "but the pages went to swap";
    EXPECT_GT(g.memCost, 0u);
}

/**
 * Differential test against the node-based store it replaced
 * (tests/kv_store_oracle.hh): random get / getRef / set streams over a
 * key space larger than the capacity, so evictions and slot reuse run
 * constantly. Each store has its own identical memory manager, so the
 * paging cost of every touch must agree too. One capacity is large
 * enough to grow the flat index several times.
 */
TEST(KvStore, RandomOpsMatchListOracle)
{
    struct Case
    {
        std::size_t capacity, keys, valueBytes;
    };
    const Case cases[] = {
        {1, 4, 1024},   {2, 5, 1024},  {3, 10, 100},
        {7, 20, 5000},  {16, 40, 1024}, {50, 60, 1024},
        {300, 900, 64}, // working set 3x capacity; index grows 5x
    };
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (const Case &c : cases) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " capacity " << c.capacity
                         << " keys " << c.keys);
            // Six frames: the larger item regions swap, so the major
            // fault path is compared too.
            mem::MemoryManager mmA(6 * mem::kPageSize);
            mem::MemoryManager mmB(6 * mem::kPageSize);
            auto &asA = mmA.createAddressSpace("kv");
            auto &asB = mmB.createAddressSpace("kv");
            std::size_t bytes = c.capacity * (c.valueBytes + 64);
            KvStore kv(asA, bytes, c.valueBytes);
            apptest::ListKvStore oracle(asB, bytes, c.valueBytes);
            ASSERT_EQ(kv.capacityItems(), oracle.capacityItems());
            sim::Rng rng(seed * 1000 + c.capacity);
            for (int op = 0; op < 3000; ++op) {
                std::uint64_t key = rng.uniformInt(0, c.keys - 1);
                int kind = int(rng.uniformInt(0, 2));
                KvResult a = kind == 0   ? kv.get(key)
                             : kind == 1 ? kv.getRef(key)
                                         : kv.set(key);
                KvResult b = kind == 0   ? oracle.get(key)
                             : kind == 1 ? oracle.getRef(key)
                                         : oracle.set(key);
                ASSERT_EQ(a.hit, b.hit) << "op " << op;
                ASSERT_EQ(a.valueAddr, b.valueAddr) << "op " << op;
                ASSERT_EQ(a.valueLen, b.valueLen) << "op " << op;
                ASSERT_EQ(a.memCost, b.memCost) << "op " << op;
                ASSERT_EQ(a.majorFaults, b.majorFaults) << "op " << op;
                ASSERT_EQ(kv.items(), oracle.items()) << "op " << op;
                ASSERT_EQ(kv.hits(), oracle.hits()) << "op " << op;
                ASSERT_EQ(kv.misses(), oracle.misses()) << "op " << op;
            }
        }
    }
}

TEST(KvStoreDeathTest, CapacityBelowOneItemAborts)
{
    // 1024-byte values take 1088-byte slots: 1000 bytes hold no item.
    mem::MemoryManager mm(64 * MiB);
    auto &as = mm.createAddressSpace("kv");
    EXPECT_DEATH({ KvStore kv(as, 1000, 1024); }, "capacity 0 out of range");
}

TEST(Disk, ReadLatency)
{
    DiskConfig cfg;
    cfg.seek = sim::kMillisecond;
    cfg.bandwidthBytesPerSec = 1e9;
    Disk d(cfg);
    sim::Time t = d.read(512 * 1024);
    EXPECT_NEAR(sim::toMicroseconds(t), 1000.0 + 524.3, 5.0);
    EXPECT_EQ(d.reads(), 1u);
    EXPECT_EQ(d.bytesRead(), 512u * 1024);
}

TEST(Memcached, EndToEndOverBackupRing)
{
    scenario::EthBed tb(
        {.policy = eth::RxFaultPolicy::BackupRing, .ringSize = 256});
    HostModel host;
    // Pre-populate so gets hit (memaslap warms the store similarly).
    scenario::MemcachedInstance mc(tb, host,
                                   {.kvBytes = 32 * MiB,
                                    .connections = 1,
                                    .preloadKeys = 500,
                                    .preloadAfterConnect = true,
                                    .slap = MemaslapConfig{0.9, 500, 4, 64}});
    ASSERT_EQ(mc.failedConnect, 0u);
    Memaslap &slap = *mc.slap;
    slap.start();

    tb.eq.runUntilCondition([&] { return slap.transactions() >= 2000; },
                            tb.eq.now() + 120 * sim::kSecond);
    EXPECT_GE(slap.transactions(), 2000u);
    // 90% gets over a 500-key space quickly becomes mostly hits.
    EXPECT_GT(double(slap.hits()) / double(slap.transactions()), 0.85);
    EXPECT_GE(mc.server.opsServed(), slap.transactions());
}

TEST(Memcached, ThroughputCalibrationSingleInstance)
{
    scenario::EthBed tb({.policy = eth::RxFaultPolicy::Pin, .ringSize = 512});
    HostModel host;
    scenario::MemcachedInstance mc(
        tb, host, {.slap = MemaslapConfig{0.9, 2000, 4, 64}});
    ASSERT_EQ(mc.failedConnect, 0u);
    Memaslap &slap = *mc.slap;
    slap.start();
    // Warm up, then measure 1 simulated second.
    tb.eq.runUntil(tb.eq.now() + sim::kSecond);
    slap.resetCounters();
    sim::Time start = tb.eq.now();
    tb.eq.runUntil(start + sim::kSecond);
    double ktps = double(slap.transactions()) / 1000.0;
    // Table 5 calibration: a single instance serves ~186 KTPS.
    EXPECT_NEAR(ktps, 186.0, 25.0);
}

TEST(Storage, TargetServesReadsOverRdma)
{
    sim::EventQueue eq;
    net::Fabric fabric(eq, 2,
                       net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                         200});
    mem::MemoryManager tgtMm(4ull << 30), iniMm(1ull << 30);
    auto &tgtAs = tgtMm.createAddressSpace("tgt");
    auto &iniAs = iniMm.createAddressSpace("fio");
    core::NpfController tgtNpfc(eq), iniNpfc(eq);
    auto tgtCh = tgtNpfc.attach(tgtAs);
    auto iniCh = iniNpfc.attach(iniAs);

    ib::QueuePair qpT(eq, fabric, 0, tgtNpfc, tgtCh);
    ib::QueuePair qpI(eq, fabric, 1, iniNpfc, iniCh);
    qpT.connect(qpI);
    qpI.connect(qpT);

    StorageConfig scfg;
    scfg.lunBytes = 1ull << 30;
    StorageTarget tgt(eq, tgtAs, scfg); // NPF: the default registration
    ASSERT_TRUE(tgt.ok());

    auto queue = std::make_shared<std::deque<IoRequest>>();
    tgt.addSession(qpT, queue);
    FioClient fio(eq, qpI, iniAs, queue, 512 * 1024, 8, scfg.lunBytes, 3);
    fio.start();

    eq.runUntilCondition([&] { return fio.completed() >= 100; },
                         eq.now() + 60 * sim::kSecond);
    EXPECT_GE(fio.completed(), 100u);
    EXPECT_EQ(fio.bytesRead(), fio.completed() * 512 * 1024);
    EXPECT_GE(tgt.iosServed(), fio.completed());
    EXPECT_GT(tgt.disk().reads(), 0u) << "cold cache went to disk";
    // NPF mode: the 1 GB comm pool is demand-paged — resident memory
    // stays far below the pinned baseline.
    EXPECT_LT(tgt.residentBytes(), 300 * MiB);
}

TEST(Storage, PinnedModeFailsWithoutPinnableMemory)
{
    sim::EventQueue eq;
    mem::MemCostConfig costs;
    costs.maxPinnableBytes = 512 * MiB; // policy: too little for 1 GB
    mem::MemoryManager mm(4ull << 30, costs);
    auto &as = mm.createAddressSpace("tgt");
    core::NpfController npfc(eq);
    StorageTarget tgt(eq, as, StorageConfig{},
                      core::Registration(core::RegMode::Copy, npfc,
                                         npfc.attach(as)));
    EXPECT_FALSE(tgt.ok()) << "Fig. 8(a): tgt fails to load";
}

TEST(Storage, PinnedModeHoldsTheWholePoolResident)
{
    sim::EventQueue eq;
    mem::MemoryManager mm(4ull << 30);
    auto &as = mm.createAddressSpace("tgt");
    core::NpfController npfc(eq);
    StorageTarget tgt(eq, as, StorageConfig{},
                      core::Registration(core::RegMode::Copy, npfc,
                                         npfc.attach(as)));
    ASSERT_TRUE(tgt.ok());
    EXPECT_GE(tgt.residentBytes(), 1ull << 30);
}

TEST(HostModelTest, ContentionScaling)
{
    HostModel h(0.18);
    h.addInstance();
    sim::Time base = sim::fromMicroseconds(10);
    EXPECT_EQ(h.scaled(base), base);
    h.addInstance();
    EXPECT_NEAR(sim::toMicroseconds(h.scaled(base)), 11.8, 0.01);
    h.addInstance();
    h.addInstance();
    EXPECT_NEAR(sim::toMicroseconds(h.scaled(base)), 15.4, 0.01);
}
