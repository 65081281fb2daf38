/**
 * @file
 * Ethernet edge cases: stream isolation across rings (§3's explicit
 * requirement), backup-ring hardware overflow, resolver waiting for
 * ring room, interrupt coalescing, and TX FIFO across faults.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "eth/backup_ring.hh"
#include "payload_pool.hh"
#include "scenario/eth_world.hh"

using namespace npf;
using namespace npf::eth;

namespace {

constexpr std::size_t MiB = 1ull << 20;

/** Two IOusers on one NIC, each with a 32-entry ring on its own
 *  channel: the rig's own (ring A, on ch) and a second one (B). */
struct TwoRingRig : scenario::NicRig
{
    mem::AddressSpace &asB{mm.createAddressSpace("b")};
    core::ChannelId chB{npfc.attach(asB)};
    unsigned ringA = 0, ringB = 0;
    std::vector<std::uint64_t> gotA, gotB;
    std::vector<sim::Time> gotBTimes;

    TwoRingRig(bool warmA, bool warmB)
    {
        RxRingConfig cfg;
        cfg.size = 32;
        ringA = addRing(cfg, warmA, [this](const Frame &f) {
            gotA.push_back(test::payloadValue(f));
        }).id;
        ringB = nic.createRxRing(chB, cfg, [this](const Frame &f) {
            gotB.push_back(test::payloadValue(f));
            gotBTimes.push_back(eq.now());
        });
        mem::VirtAddr bufsB = asB.allocRegion(32 * 4096);
        if (warmB)
            npfc.prefault(chB, bufsB, 32 * 4096, true);
        for (int i = 0; i < 32; ++i)
            nic.postRxBuffer(ringB, bufsB + i * 4096, 4096);
    }

    void
    inject(unsigned ring, std::uint64_t id)
    {
        Frame f;
        f.dstRing = ring;
        f.bytes = 1000;
        f.payload = test::payloadPool().acquire(id);
        send(f);
    }
};

} // namespace

TEST(EthIsolation, FaultingRingDoesNotDelayOtherRings)
{
    // §3 "Stream Isolation": ring A is stone cold (every packet
    // faults); ring B is warm. B's traffic must flow undisturbed.
    TwoRingRig rig(/*warmA=*/false, /*warmB=*/true);

    // Interleave traffic for both rings.
    for (std::uint64_t i = 0; i < 10; ++i) {
        rig.inject(rig.ringA, 100 + i);
        rig.inject(rig.ringB, i);
    }
    // B's frames arrive with only wire + interrupt latency, well
    // before A's faults resolve (~220 us each).
    rig.eq.runUntil(rig.eq.now() + 100 * sim::kMicrosecond);
    EXPECT_EQ(rig.gotB.size(), 10u)
        << "warm ring must not wait for the cold ring's rNPFs";
    EXPECT_TRUE(rig.gotA.empty());
    rig.eq.run();
    EXPECT_EQ(rig.gotA.size(), 10u) << "backup ring recovers A too";
}

TEST(EthIsolation, PerRingChannelsHaveIndependentIommus)
{
    TwoRingRig rig(false, true);
    rig.eq.run();
    // Warm B's IOMMU is populated; cold A's is not (yet).
    EXPECT_GT(rig.npfc.iommu(rig.chB).pageTable().mappedPages(), 0u);
    EXPECT_EQ(rig.npfc.iommu(rig.ch).pageTable().mappedPages(), 0u);
}

TEST(EthBackup, HardwareRingOverflowDropsAndCounts)
{
    sim::EventQueue eq;
    mem::MemoryManager mm(64 * MiB);
    auto &as = mm.createAddressSpace("u");
    core::NpfController npfc(eq);
    auto ch = npfc.attach(as);
    EthNicConfig ncfg;
    ncfg.backupRingSize = 4; // tiny pinned provider ring
    EthNic nic(eq, npfc, ncfg), peer(eq, npfc);
    peer.connectTo(nic);
    nic.connectTo(peer);
    RxRingConfig cfg;
    cfg.size = 64;
    cfg.bmSize = 64;
    unsigned ring = nic.createRxRing(ch, cfg, [](const Frame &) {});
    mem::VirtAddr bufs = as.allocRegion(64 * 4096); // cold
    for (int i = 0; i < 64; ++i)
        nic.postRxBuffer(ring, bufs + i * 4096, 4096);

    // Burst 16 packets instantly: the 4-entry hw ring cannot park
    // them all before the ISR drains (ISR latency > burst spacing).
    for (std::uint64_t i = 0; i < 16; ++i) {
        Frame f;
        f.dstRing = ring;
        f.bytes = 500;
        f.payload = test::payloadPool().acquire(i);
        nic.receive(f);
    }
    eq.run();
    const BackupRingManager::Stats &bs = nic.backupManager().stats();
    EXPECT_GT(bs.overflowDrops, 0u);
    EXPECT_GT(bs.parked, 0u);
    EXPECT_EQ(bs.parked, bs.resolved);
}

TEST(EthBackup, ResolverWaitsForRingRoom)
{
    scenario::NicRig rig;
    RxRingConfig cfg;
    cfg.size = 4;
    cfg.bmSize = 8;
    std::vector<std::uint64_t> got;
    unsigned ring = rig.nic.createRxRing(rig.ch, cfg, [&](const Frame &f) {
        got.push_back(test::payloadValue(f));
    });
    mem::VirtAddr bufs = rig.as.allocRegion(4 * 4096);
    rig.npfc.prefault(rig.ch, bufs, 4 * 4096, true);
    // Post only 2 of 4 descriptors, send 4 packets: the last 2 park
    // for lack of a descriptor (idx >= tail).
    rig.nic.postRxBuffer(ring, bufs, 4096);
    rig.nic.postRxBuffer(ring, bufs + 4096, 4096);
    for (std::uint64_t i = 0; i < 4; ++i) {
        Frame f;
        f.dstRing = ring;
        f.bytes = 500;
        f.payload = test::payloadPool().acquire(i);
        rig.nic.receive(f);
    }
    rig.eq.run();
    EXPECT_EQ(got.size(), 2u) << "two packets wait for descriptors";
    EXPECT_GT(rig.nic.backupManager().stats().waitsForRoom, 0u);
    // The IOuser posts more buffers: the waiters complete, in order.
    rig.nic.postRxBuffer(ring, bufs + 2 * 4096, 4096);
    rig.nic.postRxBuffer(ring, bufs + 3 * 4096, 4096);
    rig.eq.run();
    ASSERT_EQ(got.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(EthNicEdge, InterruptsAreCoalesced)
{
    scenario::NicRig rig;
    RxRingConfig cfg;
    cfg.size = 32;
    int frames = 0;
    unsigned ring = rig.addRing(cfg, /*prefault=*/true,
                                [&](const Frame &) { ++frames; })
                        .id;
    // 8 frames delivered at the same instant -> one coalesced ISR.
    for (std::uint64_t i = 0; i < 8; ++i) {
        Frame f;
        f.dstRing = ring;
        f.bytes = 500;
        f.payload = test::payloadPool().acquire(i);
        rig.nic.receive(f);
    }
    rig.eq.run();
    EXPECT_EQ(frames, 8);
    // With 4 us ISR latency and simultaneous arrival, everything
    // lands within a single interrupt window.
    EXPECT_LE(rig.eq.now(), 10 * sim::kMicrosecond);
}

TEST(EthNicEdge, TxQueueStaysFifoAcrossFaults)
{
    sim::EventQueue eq;
    mem::MemoryManager mm(64 * MiB);
    auto &as = mm.createAddressSpace("u");
    core::NpfController npfc(eq);
    auto ch = npfc.attach(as);
    EthNic nic(eq, npfc), peer(eq, npfc);
    nic.connectTo(peer);
    peer.connectTo(nic);

    auto &pas = mm.createAddressSpace("peer");
    auto pch = npfc.attach(pas);
    RxRingConfig cfg;
    cfg.size = 16;
    std::vector<std::uint64_t> got;
    unsigned pring = peer.createRxRing(pch, cfg, [&](const Frame &f) {
        got.push_back(test::payloadValue(f));
    });
    mem::VirtAddr pbufs = pas.allocRegion(16 * 4096);
    npfc.prefault(pch, pbufs, 16 * 4096, true);
    for (int i = 0; i < 16; ++i)
        peer.postRxBuffer(pring, pbufs + i * 4096, 4096);

    // Alternate warm and cold TX buffers: faults must not reorder.
    mem::VirtAddr warm = as.allocRegion(MiB);
    npfc.prefault(ch, warm, MiB, true);
    mem::VirtAddr cold = as.allocRegion(MiB);
    unsigned txq = nic.createTxQueue(ch);
    for (std::uint64_t i = 0; i < 8; ++i) {
        mem::VirtAddr src =
            (i % 2 == 0) ? cold + i * 64 * 1024 : warm + i * 1024;
        nic.send(txq, pring, src, 1000,
                 test::payloadPool().acquire(i));
    }
    eq.run();
    ASSERT_EQ(got.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(got[i], i) << "HOL blocking, but never reordering";
    EXPECT_GT(nic.stats().txNpfs, 0u);
}
