/**
 * @file
 * Pooled-frame lifecycle tests: every path a frame payload can take —
 * clean delivery, link drop/duplicate/delay, FCS corrupt, RX stall,
 * backup-ring park/resolve, NIC overflow drop, TX-side NPF stall,
 * and TCP retransmission — must release its pool slot exactly once.
 * Each test pins that with a live-count baseline on the payload pool
 * (a leak leaves live() high; a double release aborts the process via
 * the pool's generation check, so either failure mode is loud).
 *
 * These are the regression tests for the deferred-work capture-site
 * audit: the backup-ring resolver re-arm and the link's duplicate
 * fault action both hold frames inside scheduled closures, exactly
 * the shape that used to leak or double-free with shared_ptr payloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/npf_controller.hh"
#include "eth/eth_nic.hh"
#include "fault/fault.hh"
#include "mem/memory_manager.hh"
#include "payload_pool.hh"
#include "scenario/eth_world.hh"
#include "tcp/segment.hh"

using namespace npf;
using namespace npf::fault;

namespace {

constexpr std::size_t MiB = 1ull << 20;

FaultPlan
mustParse(const std::string &spec)
{
    std::string err;
    auto p = FaultPlan::parse(spec, &err);
    EXPECT_TRUE(p.has_value()) << spec << ": " << err;
    return p.value_or(FaultPlan{});
}

/** One receiving NIC, a raw injector, and a payload-pool baseline. */
struct LifecycleRig
{
    sim::EventQueue eq;
    mem::MemoryManager mm{64 * MiB};
    mem::AddressSpace &as{mm.createAddressSpace("iouser")};
    core::NpfController npfc{eq};
    core::ChannelId ch{npfc.attach(as)};
    eth::EthNic nic{eq, npfc};
    eth::EthNic peer{eq, npfc};
    unsigned ring = 0;
    mem::VirtAddr bufs = 0;
    std::vector<std::uint64_t> delivered;
    std::size_t baseline = test::payloadPool().live();

    explicit LifecycleRig(bool warm = true, eth::RxRingConfig rcfg = {})
    {
        peer.connectTo(nic, net::LinkConfig{12e9, 1000, 38});
        nic.connectTo(peer, net::LinkConfig{12e9, 1000, 38});
        if (rcfg.size == 0)
            rcfg.size = 32;
        ring = nic.createRxRing(ch, rcfg, [this](const eth::Frame &f) {
            delivered.push_back(test::payloadValue(f));
        });
        bufs = as.allocRegion(rcfg.size * 4096, "rx");
        if (warm)
            npfc.prefault(ch, bufs, rcfg.size * 4096, true);
        for (std::size_t i = 0; i < rcfg.size; ++i)
            nic.postRxBuffer(ring, bufs + i * 4096, 4096);
    }

    void
    inject(std::uint64_t id)
    {
        eth::Frame f;
        f.dstRing = ring;
        f.bytes = 1000;
        f.payload = test::payloadPool().acquire(id);
        eth::EthNic *dst = &nic;
        peer.txLink()->send(f.bytes, [dst, f] { dst->receive(f); });
    }

    /** The leak assertion every test ends on. */
    void
    expectBaseline() const
    {
        EXPECT_EQ(test::payloadPool().live(), baseline)
            << "frame payload slots leaked (or released early and "
               "re-acquired elsewhere)";
    }
};

} // namespace

TEST(FrameLifecycle, CleanDeliveryReleasesEverySlot)
{
    LifecycleRig rig;
    for (std::uint64_t i = 0; i < 8; ++i)
        rig.inject(i);
    rig.eq.run();
    ASSERT_EQ(rig.delivered.size(), 8u);
    rig.expectBaseline();
}

TEST(FrameLifecycle, LinkDropReleasesTheUndeliveredFrame)
{
    LifecycleRig rig;
    // The dropped frame's closure is destroyed unscheduled inside
    // Link::send(); its PoolRef must release then and there.
    FaultInjector inj(rig.eq, mustParse("link:drop:nth=2"), 1);
    for (std::uint64_t i = 0; i < 4; ++i)
        rig.inject(i);
    rig.eq.run();
    EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{0, 2, 3}));
    EXPECT_EQ(inj.injected(Site::Link), 1u);
    rig.expectBaseline();
}

TEST(FrameLifecycle, LinkDuplicateClonesAndBothCopiesRetire)
{
    LifecycleRig rig;
    // Duplicate schedules a *copy* of the delivery closure: PoolRef
    // clone-on-copy gives the duplicate its own slot, and both
    // arrivals release independently.
    FaultInjector inj(rig.eq, mustParse("link:duplicate:nth=1"), 1);
    for (std::uint64_t i = 0; i < 3; ++i)
        rig.inject(i);
    rig.eq.run();
    ASSERT_EQ(rig.delivered.size(), 4u);
    EXPECT_EQ(std::count(rig.delivered.begin(), rig.delivered.end(), 0u),
              2);
    EXPECT_EQ(inj.injected(Site::Link), 1u);
    rig.expectBaseline();
}

TEST(FrameLifecycle, LinkDelayReordersWithoutLeaking)
{
    LifecycleRig rig;
    FaultInjector inj(rig.eq,
                      mustParse("link:delay:nth=1,delay=500us"), 1);
    for (std::uint64_t i = 0; i < 4; ++i)
        rig.inject(i);
    rig.eq.run();
    EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{1, 2, 3, 0}));
    rig.expectBaseline();
}

TEST(FrameLifecycle, CorruptedFrameReleasesOnTheSpot)
{
    LifecycleRig rig;
    FaultInjector inj(rig.eq, mustParse("eth.rx:corrupt:nth=2"), 1);
    for (std::uint64_t i = 0; i < 4; ++i)
        rig.inject(i);
    rig.eq.run();
    EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{0, 2, 3}));
    EXPECT_EQ(rig.nic.stats().rxCorrupt, 1u);
    rig.expectBaseline();
}

TEST(FrameLifecycle, StalledFrameIsMovedNotCopiedAndReleasesOnce)
{
    LifecycleRig rig;
    // Stall re-schedules the frame through a second closure; the
    // payload moves along with it (no clone, exactly one release).
    FaultInjector inj(rig.eq,
                      mustParse("eth.rx:stall:nth=1,delay=200us"), 1);
    for (std::uint64_t i = 0; i < 4; ++i)
        rig.inject(i);
    rig.eq.run();
    ASSERT_EQ(rig.delivered.size(), 4u);
    EXPECT_EQ(rig.nic.stats().rxStalls, 1u);
    rig.expectBaseline();
}

TEST(FrameLifecycle, BackupParkAndResolveReleasesAfterDelivery)
{
    // Cold ring: every frame rNPFs, parks in the backup ring, and is
    // re-delivered by the resolver — whose re-arm closure captures
    // only (manager, ring_id) and re-reads the queue front at fire
    // time, never a frame reference that could go stale.
    LifecycleRig rig(/*warm=*/false);
    for (std::uint64_t i = 0; i < 5; ++i)
        rig.inject(i);
    rig.eq.run();
    ASSERT_EQ(rig.delivered.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(rig.delivered[i], i);
    EXPECT_GT(rig.nic.ring(rig.ring).stats.toBackup, 0u);
    rig.expectBaseline();
}

TEST(FrameLifecycle, DropPolicyReleasesEveryDroppedFrame)
{
    eth::RxRingConfig cfg;
    cfg.size = 32;
    cfg.policy = eth::RxFaultPolicy::Drop;
    LifecycleRig rig(/*warm=*/false, cfg);
    for (std::uint64_t i = 0; i < 6; ++i)
        rig.inject(i);
    rig.eq.run();
    EXPECT_TRUE(rig.delivered.empty());
    EXPECT_EQ(rig.nic.ring(rig.ring).stats.dropped, 6u);
    rig.expectBaseline();
}

TEST(FrameLifecycle, BmSizeOverflowDropReleases)
{
    eth::RxRingConfig cfg;
    cfg.size = 32;
    cfg.bmSize = 4; // parks at most 4; the overflow must drop-release
    LifecycleRig rig(/*warm=*/false, cfg);
    for (std::uint64_t i = 0; i < 12; ++i)
        rig.inject(i);
    rig.eq.run();
    EXPECT_GT(rig.nic.ring(rig.ring).stats.dropped, 0u);
    rig.expectBaseline();
}

TEST(FrameLifecycle, TxNpfStallHoldsThenReleasesOnce)
{
    // Send-side NPF: the TX job (and its payload) waits in the NIC's
    // flat TX ring while the controller resolves, then ships. One
    // release, after delivery on the far side.
    LifecycleRig rig;
    auto &peer_as = rig.mm.createAddressSpace("peer");
    auto peer_ch = rig.npfc.attach(peer_as);
    eth::RxRingConfig pcfg;
    pcfg.size = 8;
    std::vector<std::uint64_t> got;
    unsigned pring = rig.peer.createRxRing(
        peer_ch, pcfg, [&](const eth::Frame &f) {
            got.push_back(test::payloadValue(f));
        });
    mem::VirtAddr pbufs = peer_as.allocRegion(8 * 2048);
    rig.npfc.prefault(peer_ch, pbufs, 8 * 2048, true);
    for (int i = 0; i < 8; ++i)
        rig.peer.postRxBuffer(pring, pbufs + i * 2048, 2048);

    mem::VirtAddr cold = rig.as.allocRegion(MiB); // IOMMU-cold source
    unsigned txq = rig.nic.createTxQueue(rig.ch);
    rig.nic.send(txq, pring, cold, 1400,
                 test::payloadPool().acquire(77));
    rig.eq.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 77u);
    EXPECT_EQ(rig.nic.stats().txNpfs, 1u);
    rig.expectBaseline();
}

TEST(FrameLifecycle, ChaosMixReturnsThePoolToBaseline)
{
    // The chaos_recovery-style leak gate: a cold ring under a blended
    // fault plan (wire loss, duplication, delay, FCS corruption, RX
    // stalls) with every frame pooled. Whatever combination of paths
    // each frame takes, the pool's live count must come back to the
    // pre-run baseline when the system drains.
    LifecycleRig rig(/*warm=*/false);
    FaultInjector inj(
        rig.eq,
        mustParse("link:drop:rate=0.05;link:duplicate:rate=0.05;"
                  "link:delay:rate=0.05,delay=100us;"
                  "eth.rx:corrupt:rate=0.05;"
                  "eth.rx:stall:rate=0.05,delay=50us"),
        42);
    for (std::uint64_t i = 0; i < 200; ++i)
        rig.inject(i);
    rig.eq.run();
    // No repost in this rig, so the 32-descriptor ring caps clean
    // deliveries; the point is path diversity, not throughput.
    EXPECT_GT(rig.delivered.size(), 30u) << "deliveries happened";
    EXPECT_GT(rig.nic.ring(rig.ring).stats.dropped, 0u);
    rig.expectBaseline();
}

TEST(FrameLifecycle, TcpRetransmissionsKeepSegmentPoolBalanced)
{
    // End-to-end: TCP over the NICs with wire loss. Retransmitted
    // segments are fresh pool acquisitions (the retransmit path
    // re-reads its SendRecord at fire time rather than holding a
    // segment reference), so however many copies the loss pattern
    // forces, the segment pool drains back to its baseline.
    std::size_t baseline = tcp::segmentPool().live();
    {
        scenario::EthBed bed({.policy = eth::RxFaultPolicy::Pin});
        ASSERT_TRUE(bed.connect(1));
        tcp::MessageStream req(bed.client->connection(1),
                               bed.server->connection(1));
        unsigned got = 0;
        req.onMessage([&](std::uint64_t, std::size_t) { ++got; });

        FaultInjector inj(bed.eq, mustParse("link:drop:rate=0.02"), 9);
        for (int i = 0; i < 50; ++i)
            req.sendMessage(4000, 0, i);
        bed.eq.runUntilCondition([&] { return got == 50; },
                                 bed.eq.now() + 120 * sim::kSecond);
        EXPECT_EQ(got, 50u);
        bed.eq.run(); // drain ACK/timer stragglers
    }
    EXPECT_EQ(tcp::segmentPool().live(), baseline)
        << "segment slots leaked across retransmissions";
}
