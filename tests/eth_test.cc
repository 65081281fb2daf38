/**
 * @file
 * Ethernet NIC tests: the Figure 6 backup-ring algorithm (ordering,
 * completeness, bitmap sweep, bm_size bound), the drop policy, the
 * driver resolver (wait-for-room), and send-side NPFs — plus a
 * randomized property sweep over fault rates.
 */

#include <gtest/gtest.h>

#include <vector>

#include "eth/backup_ring.hh"
#include "marker_rig.hh"

using namespace npf;
using namespace npf::eth;

namespace {

constexpr std::size_t MiB = 1ull << 20;

} // namespace

TEST(EthNic, WarmRingDeliversDirectly)
{
    RxRingConfig cfg;
    cfg.size = 8;
    test::MarkerRig rig(cfg, /*prefault=*/true);
    for (std::uint64_t i = 0; i < 5; ++i)
        rig.inject(i);
    rig.eq.run();
    ASSERT_EQ(rig.delivered.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(rig.delivered[i], i);
    EXPECT_EQ(rig.nic.ring(rig.ring).stats.rnpfs, 0u);
    EXPECT_EQ(rig.nic.ring(rig.ring).stats.storedDirect, 5u);
}

TEST(EthNic, ColdRingBackupParksAndMergesInOrder)
{
    RxRingConfig cfg;
    cfg.size = 8;
    cfg.policy = RxFaultPolicy::BackupRing;
    test::MarkerRig rig(cfg); // cold buffers
    for (std::uint64_t i = 0; i < 5; ++i)
        rig.inject(i);
    rig.eq.run();
    ASSERT_EQ(rig.delivered.size(), 5u) << "backup ring loses nothing";
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(rig.delivered[i], i) << "ordering preserved";
    const RxRing::Stats &s = rig.nic.ring(rig.ring).stats;
    EXPECT_GT(s.rnpfs, 0u);
    EXPECT_GT(s.toBackup, 0u);
    EXPECT_EQ(s.dropped, 0u);
    EXPECT_GT(rig.nic.backupManager().stats().resolved, 0u);
}

TEST(EthNic, ColdRingDropPolicyLosesPacketsButWarmsPages)
{
    RxRingConfig cfg;
    cfg.size = 8;
    cfg.policy = RxFaultPolicy::Drop;
    test::MarkerRig rig(cfg);
    for (std::uint64_t i = 0; i < 4; ++i)
        rig.inject(i);
    rig.eq.run();
    EXPECT_TRUE(rig.delivered.empty()) << "first packets all dropped";
    EXPECT_EQ(rig.nic.ring(rig.ring).stats.dropped, 4u);
    // Each drop warmed (at most) one descriptor page, so repeated
    // "retransmissions" land one ring slot at a time — the cold-ring
    // dynamic of §5.
    int rounds = 0;
    std::uint64_t next = 100;
    while (rig.delivered.size() < 4 && rounds < 32) {
        ++rounds;
        for (std::uint64_t i = 0; i < 4 - rig.delivered.size(); ++i)
            rig.inject(next++);
        rig.eq.run();
    }
    ASSERT_EQ(rig.delivered.size(), 4u);
    EXPECT_GT(rounds, 1) << "warming needs multiple retransmit rounds";
    EXPECT_EQ(rig.delivered[0], 100u);
}

TEST(EthNic, CompletionsWaitForOldestFault)
{
    // Packet 0 faults (parked); packet 1 lands directly in the ring.
    // The IOuser must not see packet 1 until packet 0 resolves.
    RxRingConfig cfg;
    cfg.size = 8;
    test::MarkerRig rig(cfg);
    // Warm only descriptor slot 1's buffer.
    rig.npfc.prefault(rig.ch, rig.bufs + mem::kPageSize, mem::kPageSize,
                      true);
    rig.inject(0);
    rig.inject(1);
    // Run only until both frames hit the NIC plus a bit: the direct
    // store of packet 1 must not produce a delivery yet.
    rig.eq.runUntil(rig.eq.now() + 50 * sim::kMicrosecond);
    EXPECT_TRUE(rig.delivered.empty())
        << "ordering: head held at the unresolved rNPF";
    EXPECT_EQ(rig.nic.ring(rig.ring).stats.storedDirect, 1u);
    rig.eq.run();
    ASSERT_EQ(rig.delivered.size(), 2u);
    EXPECT_EQ(rig.delivered[0], 0u);
    EXPECT_EQ(rig.delivered[1], 1u);
}

TEST(EthNic, BmSizeBoundsParkedPackets)
{
    RxRingConfig cfg;
    cfg.size = 32;
    cfg.bmSize = 4; // provider parks at most 4 per ring
    test::MarkerRig rig(cfg);
    for (std::uint64_t i = 0; i < 10; ++i)
        rig.inject(i);
    // Let the wire deliver everything but freeze NPF resolution by
    // checking immediately after arrival.
    rig.eq.runUntil(rig.eq.now() + 30 * sim::kMicrosecond);
    const RxRing::Stats &s = rig.nic.ring(rig.ring).stats;
    EXPECT_LE(s.toBackup, 4u);
    EXPECT_GT(s.dropped, 0u) << "beyond bm_size the NIC must drop";
    rig.eq.run();
    // The parked packets still arrive, in order.
    ASSERT_GE(rig.delivered.size(), 1u);
    for (std::size_t i = 0; i < rig.delivered.size(); ++i)
        EXPECT_EQ(rig.delivered[i], i);
}

TEST(EthNic, RingOverflowParksInBackupUntilReposted)
{
    RxRingConfig cfg;
    cfg.size = 4;
    cfg.bmSize = 4;
    test::MarkerRig rig(cfg, /*prefault=*/true);
    // 6 packets into a 4-slot ring: the delivery handler reposts, so
    // whether anything parks depends on interrupt latency; at minimum
    // nothing may be lost or reordered.
    for (std::uint64_t i = 0; i < 6; ++i)
        rig.inject(i);
    rig.eq.run();
    ASSERT_EQ(rig.delivered.size(), 6u);
    for (std::uint64_t i = 0; i < 6; ++i)
        EXPECT_EQ(rig.delivered[i], i);
}

TEST(EthNic, TxColdBufferStallsThenSends)
{
    RxRingConfig cfg;
    cfg.size = 8;
    test::MarkerRig rig(cfg, true);

    // Use the rig's *nic* as the sender toward peer; build a warm
    // peer-side ring to receive.
    // Simpler: send from nic's tx queue toward peer ring 0.
    auto &peer_as = rig.mm.createAddressSpace("peer");
    auto peer_ch = rig.npfc.attach(peer_as);
    RxRingConfig pcfg;
    pcfg.size = 8;
    std::vector<std::uint64_t> got;
    unsigned pring = rig.peer.createRxRing(
        peer_ch, pcfg, [&](const Frame &f) {
            got.push_back(test::payloadValue(f));
        });
    mem::VirtAddr pbufs = peer_as.allocRegion(8 * 2048);
    rig.npfc.prefault(peer_ch, pbufs, 8 * 2048, true);
    for (int i = 0; i < 8; ++i)
        rig.peer.postRxBuffer(pring, pbufs + i * 2048, 2048);

    mem::VirtAddr cold = rig.as.allocRegion(MiB); // IOMMU-cold
    unsigned txq = rig.nic.createTxQueue(rig.ch);
    rig.nic.send(txq, pring, cold, 1400,
                 test::payloadPool().acquire(55));
    rig.eq.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 55u);
    EXPECT_EQ(rig.nic.stats().txNpfs, 1u);
}

/** Property: at any synthetic fault rate, the backup ring delivers
 *  every packet exactly once, in order. */
class BackupRingProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(BackupRingProperty, NoLossNoReorder)
{
    RxRingConfig cfg;
    cfg.size = 64;
    cfg.bmSize = 64;
    cfg.syntheticRnpfProb = GetParam();
    test::MarkerRig rig(cfg, /*prefault=*/true);

    constexpr std::uint64_t kFrames = 300;
    // Pace injection slower than one NPF resolution (~220-350 us) so
    // the provider's bm_size window never overflows: completeness is
    // guaranteed only within that bound (§5).
    for (std::uint64_t i = 0; i < kFrames; ++i) {
        rig.eq.schedule(i * 400 * sim::kMicrosecond,
                        [&rig, i] { rig.inject(i); });
    }
    rig.eq.run();
    EXPECT_EQ(rig.nic.ring(rig.ring).stats.dropped, 0u);
    ASSERT_EQ(rig.delivered.size(), kFrames)
        << "fault rate " << GetParam();
    for (std::uint64_t i = 0; i < kFrames; ++i)
        ASSERT_EQ(rig.delivered[i], i);
    if (GetParam() >= 0.05) {
        EXPECT_GT(rig.nic.ring(rig.ring).stats.toBackup, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, BackupRingProperty,
                         ::testing::Values(0.0, 0.02, 0.1, 0.3, 0.7));

TEST(EthNic, InvariantHeadWithinBounds)
{
    RxRingConfig cfg;
    cfg.size = 16;
    cfg.bmSize = 8;
    cfg.syntheticRnpfProb = 0.3;
    test::MarkerRig rig(cfg, true);
    for (std::uint64_t i = 0; i < 100; ++i)
        rig.eq.schedule(i * 2 * sim::kMicrosecond,
                        [&rig, i] { rig.inject(i); });
    // Check the Fig. 6 invariants after every event.
    const RxRing &r = rig.nic.ring(rig.ring);
    while (rig.eq.step()) {
        ASSERT_LE(r.userHead, r.head);
        ASSERT_LE(r.head + r.headOffset, r.tail);
        ASSERT_LE(r.tail, r.userHead + r.cfg.size);
        ASSERT_LE(r.headOffset, r.cfg.bmSize);
    }
}
