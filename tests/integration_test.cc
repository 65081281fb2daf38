/**
 * @file
 * Cross-module integration tests: miniature versions of the paper's
 * headline experiments asserting the comparative results (who wins,
 * who fails), plus the implemented future-work extensions.
 */

#include <gtest/gtest.h>

#include "app/memcached.hh"
#include "ib/queue_pair.hh"
#include "net/fabric.hh"
#include "scenario/eth_world.hh"

using namespace npf;

namespace {

constexpr std::size_t MiB = 1ull << 20;

/** Time to push 10k memcached ops through a fresh (cold) server. */
sim::Time
coldRunTime(eth::RxFaultPolicy policy, std::size_t ring)
{
    scenario::EthBed tb({.policy = policy, .ringSize = ring});
    app::HostModel host;
    scenario::MemcachedInstance mc(
        tb, host,
        {.kvBytes = 32 * MiB,
         .preloadKeys = 1000,
         .slap = app::MemaslapConfig{0.9, 1000, 4, 64}});
    if (mc.failedConnect != 0)
        return 3600 * sim::kSecond;
    app::Memaslap &slap = *mc.slap;
    sim::Time start = tb.eq.now();
    slap.start();
    bool ok = tb.eq.runUntilCondition(
        [&] { return slap.transactions() >= 10000; },
        start + 600 * sim::kSecond);
    return ok ? tb.eq.now() - start : 3600 * sim::kSecond;
}

} // namespace

TEST(Integration, Fig4OrderingDropMuchSlowerThanBackupAndPin)
{
    sim::Time drop = coldRunTime(eth::RxFaultPolicy::Drop, 64);
    sim::Time backup = coldRunTime(eth::RxFaultPolicy::BackupRing, 64);
    sim::Time pin = coldRunTime(eth::RxFaultPolicy::Pin, 64);
    EXPECT_GT(drop, 20 * backup)
        << "drop must be dramatically slower on a cold ring";
    EXPECT_LT(double(backup) / double(pin), 2.5)
        << "backup ring's cold cost is tolerable";
}

TEST(Integration, PrefaultAheadShortensColdSequences)
{
    // Count rNPFs taken while warming a cold ring with and without
    // the §3 pre-fault-ahead optimization.
    auto faults_with = [](unsigned ahead) {
        scenario::EthBed tb(
            {.policy = eth::RxFaultPolicy::BackupRing, .ringSize = 64});
        eth::RxRing &r = tb.serverNic->ring(0);
        r.cfg.prefaultAhead = ahead;
        auto &cli = tb.client->connection(1);
        auto &srv = tb.server->connection(1);
        srv.listen();
        cli.connect([](bool) {});
        std::uint64_t got = 0;
        srv.onDeliver([&](std::size_t n) { got += n; });
        tb.eq.runUntilCondition([&] { return cli.established(); },
                                120 * sim::kSecond);
        cli.send(256 * 1024);
        tb.eq.runUntilCondition([&] { return got >= 256u * 1024; },
                                tb.eq.now() + 120 * sim::kSecond);
        return tb.server->ringStats().rnpfs;
    };
    std::uint64_t plain = faults_with(0);
    std::uint64_t ahead = faults_with(8);
    EXPECT_GT(plain, 0u);
    EXPECT_LT(ahead, plain)
        << "pre-faulting ahead must absorb faults before packets land";
}

TEST(Integration, ReadRnrExtensionBeatsStandardRewind)
{
    auto run = [](bool extension) {
        struct Out
        {
            sim::Time elapsed;
            std::uint64_t dropped;
        };
        sim::EventQueue eq;
        net::Fabric fabric(
            eq, 2, net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                     200});
        mem::MemoryManager mmA(256 * MiB), mmB(256 * MiB);
        auto &asA = mmA.createAddressSpace("A");
        auto &asB = mmB.createAddressSpace("B");
        core::NpfController npfcA(eq), npfcB(eq);
        auto chA = npfcA.attach(asA);
        auto chB = npfcB.attach(asB);
        ib::QpConfig cfg;
        cfg.readRnrExtension = extension;
        ib::QueuePair qpA(eq, fabric, 0, npfcA, chA, cfg, 1);
        ib::QueuePair qpB(eq, fabric, 1, npfcB, chB, cfg, 2);
        qpA.connect(qpB);
        qpB.connect(qpA);

        mem::VirtAddr remote = asB.allocRegion(MiB);
        npfcB.prefault(chB, remote, MiB, true);
        mem::VirtAddr local = asA.allocRegion(MiB); // cold

        bool done = false;
        qpA.onCompletion([&](const ib::Completion &c) {
            if (!c.isRecv)
                done = true;
        });
        sim::Time start = eq.now();
        qpA.postSend({ib::Opcode::RdmaRead, local, MiB, remote, 1});
        eq.runUntilCondition([&] { return done; }, 60 * sim::kSecond);
        return Out{eq.now() - start, qpA.stats().dataPacketsDropped};
    };
    auto std_rc = run(false);
    auto ext_rc = run(true);
    EXPECT_LT(ext_rc.dropped, std_rc.dropped)
        << "suspending the responder wastes fewer packets";
    EXPECT_LE(ext_rc.elapsed, std_rc.elapsed + sim::kMillisecond);
}

TEST(Integration, OvercommitFeasibility)
{
    // Pinning three 3 GB VMs into 8 GB must fail; NPF must not.
    mem::MemoryManager host(8ull << 30);
    std::vector<mem::AddressSpace *> vms;
    bool pin_ok = true;
    for (int i = 0; i < 3 && pin_ok; ++i) {
        auto &as = host.createAddressSpace("vm" + std::to_string(i));
        mem::VirtAddr r = as.allocRegion(3ull << 30);
        pin_ok = as.pinRange(r, 3ull << 30).ok;
        vms.push_back(&as);
    }
    EXPECT_FALSE(pin_ok) << "Table 5's N/A";

    mem::MemoryManager host2(8ull << 30);
    bool npf_ok = true;
    for (int i = 0; i < 4 && npf_ok; ++i) {
        auto &as = host2.createAddressSpace("vm" + std::to_string(i));
        mem::VirtAddr r = as.allocRegion(3ull << 30);
        // Working set < 2 GB, allocated on demand.
        npf_ok = as.touch(r, 1800ull << 20, true).ok;
    }
    EXPECT_TRUE(npf_ok) << "demand paging packs four VMs";
}

TEST(Integration, DevicePageTableNeverMapsReusedFrames)
{
    // End-to-end protection invariant: after heavy churn with DMA
    // mappings and reclaim, every valid IOMMU PTE still points at a
    // frame owned by the right page of the right address space.
    sim::EventQueue eq;
    mem::MemoryManager mm(16 * MiB);
    auto &a = mm.createAddressSpace("a");
    auto &b = mm.createAddressSpace("b");
    core::NpfController npfc(eq);
    auto cha = npfc.attach(a);
    auto chb = npfc.attach(b);
    mem::VirtAddr ra = a.allocRegion(32 * MiB);
    mem::VirtAddr rb = b.allocRegion(32 * MiB);

    sim::Rng rng(77);
    for (int step = 0; step < 3000; ++step) {
        bool use_a = rng.bernoulli(0.5);
        auto ch = use_a ? cha : chb;
        mem::AddressSpace &as = use_a ? a : b;
        mem::VirtAddr base = use_a ? ra : rb;
        mem::VirtAddr addr =
            base + rng.uniformInt(0, 8000) * mem::kPageSize;
        if (rng.bernoulli(0.7))
            npfc.prefault(ch, addr, mem::kPageSize, true);
        else
            as.touch(addr, mem::kPageSize, true);
    }
    // Verify the invariant for both channels.
    for (auto [ch, asp, base] :
         {std::tuple{cha, &a, ra}, std::tuple{chb, &b, rb}}) {
        for (std::uint64_t i = 0; i < 8001; ++i) {
            mem::Vpn vpn = mem::pageOf(base) + i;
            auto mapped = npfc.iommu(ch).pageTable().lookup(vpn);
            if (!mapped)
                continue;
            const mem::Pte *pte = asp->findPte(vpn);
            ASSERT_NE(pte, nullptr);
            ASSERT_TRUE(pte->present)
                << "IOMMU maps a non-resident page";
            ASSERT_EQ(*mapped, pte->pfn)
                << "IOMMU maps a stale frame";
            const mem::Frame &f = mm.physical().frame(pte->pfn);
            ASSERT_EQ(f.owner, asp->id());
            ASSERT_EQ(f.vpn, vpn);
        }
    }
}

TEST(Integration, StreamUnderSyntheticFaultsBackupBeatsDrop)
{
    auto throughput = [](eth::RxFaultPolicy policy) {
        scenario::EthBed tb({.policy = policy, .ringSize = 256});
        eth::RxRing &r = tb.serverNic->ring(0);
        r.cfg.syntheticRnpfProb = 1.0 / 1024.0;
        tb.serverNic->npfc().prefault(
            0, 0, 0, false); // no-op; ring buffers warm below
        // Warm the ring by pre-faulting through the endpoint config
        // path isn't exposed here; just run long enough to warm.
        if (!tb.connect(1))
            return 0.0;
        auto &cli = tb.client->connection(1);
        auto &srv = tb.server->connection(1);
        std::uint64_t got = 0;
        srv.onDeliver([&](std::size_t n) { got += n; });
        cli.send(8 * MiB);
        tb.eq.runUntilCondition([&] { return got >= 8 * MiB; },
                                tb.eq.now() + 120 * sim::kSecond);
        return double(got) / sim::toSeconds(tb.eq.now());
    };
    double backup = throughput(eth::RxFaultPolicy::BackupRing);
    double drop = throughput(eth::RxFaultPolicy::Drop);
    EXPECT_GT(backup, 1.5 * drop)
        << "Fig. 10: the backup ring sustains throughput under "
           "faults that cripple dropping";
}
