/**
 * @file
 * Fabric subsystem tests: topology grammar and validation, ECMP
 * routing, switch queue mechanics (ECN marking, PFC pause/resume and
 * its hop-by-hop propagation), the switch fault site, DCQCN rate
 * machinery (unit and end-to-end through ib::QueuePair on
 * scenario::IncastRig), and the topology-mode integrations of
 * eth::EthNic and hpc::Cluster.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/npf_controller.hh"
#include "eth/eth_nic.hh"
#include "fault/fault.hh"
#include "hpc/cluster.hh"
#include "ib/queue_pair.hh"
#include "mem/memory_manager.hh"
#include "net/dcqcn.hh"
#include "net/fabric.hh"
#include "net/topology.hh"
#include "payload_pool.hh"
#include "scenario/ib_world.hh"

using namespace npf;
using namespace npf::net;

namespace {

constexpr std::size_t MiB = 1ull << 20;

fault::FaultPlan
mustParse(const std::string &spec)
{
    std::string err;
    auto p = fault::FaultPlan::parse(spec, &err);
    EXPECT_TRUE(p.has_value()) << err;
    return *p;
}

Topology
mustTopo(const std::string &spec)
{
    std::string err;
    auto t = Topology::parse(spec, &err);
    EXPECT_TRUE(t.has_value()) << err;
    return *t;
}

/** The switch egress port whose wire terminates at @p vertex. */
Egress *
portToward(Switch &sw, unsigned vertex)
{
    for (Egress *p : sw.egressPorts())
        if (p->dest() == vertex)
            return p;
    return nullptr;
}

// A fast fabric for timing-exact tests: 1 byte/ns links, no framing
// overhead, round numbers everywhere.
const char *kFastStar3 = "star:hosts=3,bw=8g,prop=100,overhead=0,fwd=50";

} // namespace

// --- grammar ----------------------------------------------------------

TEST(TopologySpec, StarParsesWithDefaults)
{
    Topology t = mustTopo("star:hosts=8");
    EXPECT_EQ(t.hosts, 8u);
    EXPECT_EQ(t.switches, 1u);
    EXPECT_EQ(t.edges.size(), 8u);
    EXPECT_FALSE(t.switchCfg.ecn.enabled);
    EXPECT_FALSE(t.switchCfg.pfc.enabled);
}

TEST(TopologySpec, KeysOverrideLinkAndSwitchParams)
{
    Topology t = mustTopo("star:hosts=2,bw=100g,prop=1us,overhead=40,"
                          "fwd=300ns,queue=1m,ecn=64k,xoff=128k,xon=32k");
    EXPECT_DOUBLE_EQ(t.edges[0].link.bandwidthBitsPerSec, 100e9);
    EXPECT_EQ(t.edges[0].link.propagation, sim::Time(1000));
    EXPECT_EQ(t.edges[0].link.perPacketOverheadBytes, 40u);
    EXPECT_EQ(t.switchCfg.forwardLatency, sim::Time(300));
    EXPECT_EQ(t.switchCfg.queueCapBytes, 1024u * 1024u);
    EXPECT_TRUE(t.switchCfg.ecn.enabled);
    EXPECT_EQ(t.switchCfg.ecn.markBytes, 64u * 1024u);
    EXPECT_TRUE(t.switchCfg.pfc.enabled);
    EXPECT_EQ(t.switchCfg.pfc.xoffBytes, 128u * 1024u);
    EXPECT_EQ(t.switchCfg.pfc.xonBytes, 32u * 1024u);
}

TEST(TopologySpec, LeafSpineDividesUplinkByOversubscription)
{
    Topology t = mustTopo("leafspine:hosts=8,leaves=2,spines=2,"
                          "ovs=2,bw=40g");
    EXPECT_EQ(t.switches, 4u);
    // 8 host edges + 2x2 fabric edges.
    ASSERT_EQ(t.edges.size(), 12u);
    EXPECT_DOUBLE_EQ(t.edges[0].link.bandwidthBitsPerSec, 40e9);
    // per_leaf/spines / ovs = (4/2)/2 = 1x host bandwidth.
    EXPECT_DOUBLE_EQ(t.edges[8].link.bandwidthBitsPerSec, 40e9);
}

TEST(TopologySpec, EdgeListGrammar)
{
    Topology t = mustTopo("edges:links=h0-s0+h1-s1+s0-s1");
    EXPECT_EQ(t.hosts, 2u);
    EXPECT_EQ(t.switches, 2u);
    EXPECT_EQ(t.edges.size(), 3u);
}

TEST(TopologySpec, MalformedSpecsReport)
{
    std::string err;
    EXPECT_FALSE(Topology::parse("ring:hosts=4", &err).has_value());
    EXPECT_FALSE(Topology::parse("star", &err).has_value());
    EXPECT_FALSE(Topology::parse("star:hosts=0", &err).has_value());
    EXPECT_FALSE(Topology::parse("star:hosts=2,bw=fast", &err).has_value());
    EXPECT_FALSE(
        Topology::parse("edges:links=h0-h1", &err).has_value());
    EXPECT_NE(err.find("topology:"), std::string::npos);
}

TEST(TopologySpec, ValidateRejectsBrokenGraphs)
{
    // Host with two attachments.
    Topology t = mustTopo("star:hosts=2");
    t.edges.push_back({0, 2, {}});
    EXPECT_FALSE(t.validate());

    // Disconnected island.
    Topology u = mustTopo("star:hosts=2");
    u.switches = 2; // s1 exists but has no edges
    EXPECT_FALSE(u.validate());

    // XON above XOFF.
    Topology v = mustTopo("star:hosts=2,xoff=64k,xon=32k");
    v.switchCfg.pfc.xonBytes = v.switchCfg.pfc.xoffBytes;
    EXPECT_FALSE(v.validate());
}

TEST(TopologySpec, RoutesListAllShortestNextHops)
{
    Topology t = mustTopo("leafspine:hosts=4,leaves=2,spines=2");
    auto r = t.routes();
    // Vertices: h0..h3, leaf0=4, leaf1=5, spine0=6, spine1=7.
    // From leaf0 toward h2 (on leaf1) both spines tie.
    EXPECT_EQ(r[4][2], (std::vector<unsigned>{6, 7}));
    // From leaf0 toward its own h0: direct.
    EXPECT_EQ(r[4][0], (std::vector<unsigned>{0}));
    // A spine reaches h2 only through leaf1.
    EXPECT_EQ(r[6][2], (std::vector<unsigned>{5}));
}

// --- forwarding -------------------------------------------------------

TEST(FabricTopo, StarTimingMatchesLegacyFabric)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo(kFastStar3));
    ASSERT_TRUE(fabric.topologyMode());
    sim::Time arrival = 0;
    fabric.send(0, 2, 1000, [&] { arrival = eq.now(); });
    eq.run();
    // up 1000+100, forward 50, down 1000+100 — the legacy formula.
    EXPECT_EQ(arrival, 2250u);
}

TEST(FabricTopo, TwoSwitchPathAddsPerHopCosts)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo("edges:links=h0-s0+h1-s1+s0-s1,"
                               "bw=8g,prop=100,overhead=0,fwd=50"));
    sim::Time arrival = 0;
    fabric.send(0, 1, 1000, [&] { arrival = eq.now(); });
    eq.run();
    // Three wires (1100 each) + two forwarding latencies.
    EXPECT_EQ(arrival, 3400u);
}

TEST(FabricTopo, EcmpSpreadsFlowsDeterministically)
{
    auto spine_counts = [] {
        sim::EventQueue eq;
        Fabric fabric(eq, mustTopo("leafspine:hosts=4,leaves=2,spines=2"));
        int delivered = 0;
        for (std::uint32_t flow = 0; flow < 64; ++flow)
            fabric.send(0, 2, 4096, 0, flow, [&] { ++delivered; });
        eq.run();
        EXPECT_EQ(delivered, 64);
        // Spines are switches 2 and 3 (leaves first).
        return std::pair<std::uint64_t, std::uint64_t>{
            fabric.switchAt(2).stats().rxPackets,
            fabric.switchAt(3).stats().rxPackets};
    };
    auto first = spine_counts();
    EXPECT_EQ(first.first + first.second, 64u);
    EXPECT_GT(first.first, 0u) << "all 64 flows hashed to one spine";
    EXPECT_GT(first.second, 0u) << "all 64 flows hashed to one spine";
    // Same build, same flows: bit-identical path choice.
    EXPECT_EQ(first, spine_counts());
}

// --- ECN --------------------------------------------------------------

TEST(FabricTopo, EcnMarksAboveQueueThreshold)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo("star:hosts=3,bw=8g,prop=100,overhead=0,"
                               "fwd=50,ecn=8k"));
    int delivered = 0, marked = 0;
    // Two hosts incast 32 packets each into h0's downlink.
    for (int i = 0; i < 32; ++i)
        for (unsigned src : {1u, 2u})
            fabric.send(src, 0, 4096, [&] {
                ++delivered;
                if (fabric.rx().ecn)
                    ++marked;
            });
    eq.run();
    EXPECT_EQ(delivered, 64);
    EXPECT_GT(marked, 0);
    EXPECT_EQ(fabric.switchAt(0).stats().ecnMarked,
              std::uint64_t(marked));
    // Uncongested direction never marks.
    sim::EventQueue eq2;
    Fabric f2(eq2, mustTopo("star:hosts=3,bw=8g,prop=100,overhead=0,"
                            "fwd=50,ecn=8k"));
    bool clean = true;
    f2.send(1, 0, 4096, [&] { clean = !f2.rx().ecn; });
    eq2.run();
    EXPECT_TRUE(clean);
}

// --- PFC --------------------------------------------------------------

TEST(FabricTopo, PfcPausesUpstreamAndStaysLossless)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo("star:hosts=3,bw=8g,prop=100,overhead=0,"
                               "fwd=50,xoff=16k,xon=8k"));
    int delivered = 0;
    for (int i = 0; i < 64; ++i)
        for (unsigned src : {1u, 2u})
            fabric.send(src, 0, 4096, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 128);
    Switch &sw = fabric.switchAt(0);
    EXPECT_GT(sw.stats().pauseTx, 0u);
    EXPECT_GT(sw.stats().resumeTx, 0u);
    // Senders honored the pauses...
    EXPECT_GT(fabric.hostPort(1).stats().pauseRx +
                  fabric.hostPort(2).stats().pauseRx,
              0u);
    // ...so the bounded queue never dropped.
    Egress *down = portToward(sw, 0);
    ASSERT_NE(down, nullptr);
    EXPECT_EQ(down->stats().capDropped, 0u);
    // And the queue indeed crossed XOFF before pausing.
    EXPECT_GE(sw.stats().queueHwmBytes, 16u * 1024u);
}

TEST(FabricTopo, WithoutPfcTheBoundedQueueDrops)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo("star:hosts=3,bw=8g,prop=100,overhead=0,"
                               "fwd=50,queue=16k"));
    int delivered = 0;
    for (int i = 0; i < 64; ++i)
        for (unsigned src : {1u, 2u})
            fabric.send(src, 0, 4096, [&] { ++delivered; });
    eq.run();
    Egress *down = portToward(fabric.switchAt(0), 0);
    ASSERT_NE(down, nullptr);
    EXPECT_GT(down->stats().capDropped, 0u);
    EXPECT_LT(delivered, 128);
}

TEST(FabricTopo, HostRxPausePropagatesTwoHops)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo("leafspine:hosts=4,leaves=2,spines=1,"
                               "bw=8g,prop=100,overhead=0,fwd=50,"
                               "xoff=16k,xon=8k"));
    // h0 hangs off leaf0 (switch 0), h2 off leaf1 (switch 1), the
    // spine is switch 2. Pause h0's NIC, then flood it from h2.
    fabric.setHostRxPause(0, true);
    int delivered = 0;
    for (int i = 0; i < 64; ++i)
        fabric.send(2, 0, 4096, [&] { ++delivered; });
    // Let the backlog build and the pause cascade.
    eq.runUntil(2 * sim::kMillisecond);
    EXPECT_EQ(delivered, 0);
    Switch &leaf0 = fabric.switchAt(0);
    Switch &spine = fabric.switchAt(2);
    EXPECT_GT(leaf0.stats().pauseTx, 0u) << "hop 1: leaf0 -> spine";
    EXPECT_GT(spine.stats().pauseTx, 0u) << "hop 2: spine -> leaf1";
    // Release: everything drains, nothing was lost.
    fabric.setHostRxPause(0, false);
    eq.run();
    EXPECT_EQ(delivered, 64);
    EXPECT_GT(leaf0.stats().resumeTx, 0u);
    EXPECT_GT(spine.stats().resumeTx, 0u);
}

// --- the switch fault site --------------------------------------------

TEST(SwitchFaults, DropDiscardsInsideTheCore)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo(kFastStar3));
    fault::FaultInjector inj(eq, mustParse("switch:drop:nth=1"), 1);
    int delivered = 0;
    fabric.send(0, 2, 1000, [&] { ++delivered; });
    fabric.send(0, 2, 1000, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(fabric.switchAt(0).stats().injDropped, 1u);
    EXPECT_EQ(inj.injected(fault::Site::Switch), 1u);
}

TEST(SwitchFaults, StallFreezesTheEgressQueue)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo(kFastStar3));
    fault::FaultInjector inj(
        eq, mustParse("switch:stall:nth=1,delay=10us"), 1);
    sim::Time arrival = 0;
    fabric.send(0, 2, 1000, [&] { arrival = eq.now(); });
    eq.run();
    EXPECT_EQ(fabric.switchAt(0).stats().injStalls, 1u);
    // Unstalled arrival would be 2250; the queue sat frozen instead.
    EXPECT_GE(arrival, sim::Time(10000));
}

TEST(SwitchFaults, FlapDropsArrivalsWhileDown)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo(kFastStar3));
    fault::FaultInjector inj(
        eq, mustParse("switch:flap:nth=1,delay=10us"), 1);
    int delivered = 0;
    fabric.send(0, 2, 1000, [&] { ++delivered; });
    // Second packet departs well after the port recovers.
    eq.schedule(50000, [&] {
        fabric.send(0, 2, 1000, [&] { ++delivered; });
    });
    eq.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(fabric.switchAt(0).stats().injFlaps, 1u);
    Egress *down = portToward(fabric.switchAt(0), 2);
    ASSERT_NE(down, nullptr);
    EXPECT_EQ(down->stats().downDropped, 1u);
}

TEST(SwitchFaults, PauseStormPausesEveryUpstreamPort)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo(kFastStar3));
    fault::FaultInjector inj(
        eq, mustParse("switch:pause:nth=1,delay=20us"), 1);
    int delivered = 0;
    fabric.send(0, 2, 1000, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 1); // the triggering packet still forwards
    EXPECT_EQ(fabric.switchAt(0).stats().injPauseStorms, 1u);
    // Every host NIC port got a pause and a matching resume.
    for (unsigned h = 0; h < 3; ++h) {
        EXPECT_EQ(fabric.hostPort(h).stats().pauseRx, 1u);
        EXPECT_EQ(fabric.hostPort(h).stats().resumeRx, 1u);
    }
}

// --- DCQCN ------------------------------------------------------------

TEST(Dcqcn, RateMachineCutsAndRecovers)
{
    DcqcnRate r;
    r.init(40e9);
    EXPECT_FALSE(r.limiting());
    EXPECT_DOUBLE_EQ(r.rateBps(), 40e9);

    r.onCnp();
    EXPECT_TRUE(r.limiting());
    EXPECT_LT(r.rateBps(), 40e9);
    double after_one = r.rateBps();

    // Back-to-back CNPs keep cutting (alpha grows).
    r.onCnp();
    EXPECT_LT(r.rateBps(), after_one);

    // The floor holds under a CNP storm.
    for (int i = 0; i < 1000; ++i)
        r.onCnp();
    EXPECT_GE(r.rateBps(), kDcqcn.minRateBps);

    // Increase rounds converge back to line rate and go inactive.
    int rounds = 0;
    while (r.increase() && rounds < 100000)
        ++rounds;
    EXPECT_FALSE(r.limiting());
    EXPECT_DOUBLE_EQ(r.rateBps(), 40e9);
    EXPECT_LT(rounds, 100000);

    // Inactive machine: increase() stays a no-op false.
    EXPECT_FALSE(r.increase());
}

TEST(Dcqcn, SendGapMatchesRate)
{
    DcqcnRate r;
    r.init(8e9); // 1 byte/ns
    EXPECT_EQ(r.sendGap(1000), sim::Time(1000));
}

// --- end to end: QueuePairs over a congested topology -----------------

namespace {

struct IncastOutcome
{
    std::uint64_t ecnMarked = 0;
    std::uint64_t queueHwm = 0;
    std::uint64_t cnpsSent = 0;
    std::uint64_t cnpsReceived = 0;
};

/** Hosts 1 and 2 each Send 4 MiB into their own receive buffer on
 *  host 0 of the three-host star @p topo, at once; both must arrive
 *  within @p bound of simulated time. */
IncastOutcome
incastSends(const std::string &topo, bool dcqcn, sim::Time bound)
{
    const std::size_t kLen = 4 * MiB;
    scenario::IncastRig::Options o;
    o.senders = {1, 2};
    o.qp.dcqcn = dcqcn;
    o.regionBytes = kLen;
    scenario::IncastRig rig(mustTopo(topo), o);

    int recvd = 0;
    for (scenario::IncastRig::Sender &s : rig.senders) {
        s.vqp.onCompletion([&](const ib::Completion &c) {
            if (c.isRecv && c.ok)
                ++recvd;
        });
        s.vqp.postRecv({ib::Opcode::Send, s.dst, kLen});
    }
    for (scenario::IncastRig::Sender &s : rig.senders)
        s.qp.postSend({ib::Opcode::Send, s.src, kLen});
    EXPECT_TRUE(
        rig.eq.runUntilCondition([&] { return recvd == 2; }, bound));

    IncastOutcome out;
    const Switch::Stats &sw = rig.fabric.switchAt(0).stats();
    out.ecnMarked = sw.ecnMarked;
    out.queueHwm = sw.queueHwmBytes;
    for (const scenario::IncastRig::Sender &s : rig.senders) {
        out.cnpsSent += s.vqp.stats().cnpsSent;
        out.cnpsReceived += s.qp.stats().cnpsReceived;
    }
    return out;
}

} // namespace

TEST(IbDcqcn, CnpsEngageRateLimiterUnderIncast)
{
    IncastOutcome out = incastSends(
        "star:hosts=3,bw=8g,prop=100,overhead=0,fwd=50,ecn=16k", true,
        10 * sim::kSecond);
    // Congestion was seen, echoed and reacted to.
    EXPECT_GT(out.ecnMarked, 0u);
    EXPECT_GT(out.cnpsSent, 0u);
    EXPECT_GT(out.cnpsReceived, 0u);
}

TEST(IbDcqcn, RateLimitingBoundsSwitchQueueVsUncontrolled)
{
    const char *topo = "star:hosts=3,bw=8g,prop=100,overhead=0,fwd=50,"
                       "ecn=16k,queue=64m";
    std::uint64_t uncontrolled =
        incastSends(topo, false, 30 * sim::kSecond).queueHwm;
    std::uint64_t controlled =
        incastSends(topo, true, 30 * sim::kSecond).queueHwm;
    EXPECT_LT(controlled, uncontrolled);
}

// --- eth over the fabric ----------------------------------------------

TEST(EthFabric, ConnectViaRoutesFramesThroughSwitches)
{
    sim::EventQueue eq;
    Fabric fabric(eq, mustTopo("star:hosts=2"));
    mem::MemoryManager mmA(256 * MiB), mmB(256 * MiB);
    mem::AddressSpace &asA = mmA.createAddressSpace("A");
    mem::AddressSpace &asB = mmB.createAddressSpace("B");
    core::NpfController npfcA(eq), npfcB(eq);
    core::ChannelId chA = npfcA.attach(asA);
    core::ChannelId chB = npfcB.attach(asB);
    eth::EthNic nicA(eq, npfcA), nicB(eq, npfcB);
    nicA.connectVia(fabric, 0, 1, nicB);
    nicB.connectVia(fabric, 1, 0, nicA);

    eth::RxRingConfig rcfg;
    rcfg.size = 8;
    std::vector<std::uint64_t> got;
    unsigned ring = nicB.createRxRing(chB, rcfg, [&](const eth::Frame &f) {
        got.push_back(test::payloadValue(f));
    });
    mem::VirtAddr bufs = asB.allocRegion(8 * 2048);
    npfcB.prefault(chB, bufs, 8 * 2048, true);
    for (int i = 0; i < 8; ++i)
        nicB.postRxBuffer(ring, bufs + std::size_t(i) * 2048, 2048);

    mem::VirtAddr src = asA.allocRegion(MiB);
    npfcA.prefault(chA, src, MiB, true);
    unsigned txq = nicA.createTxQueue(chA);
    for (std::uint64_t i = 0; i < 3; ++i)
        nicA.send(txq, ring, src, 1400, test::payloadPool().acquire(i));
    eq.run();
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(fabric.switchAt(0).stats().rxPackets, 3u);
}

// --- hpc over the fabric ----------------------------------------------

TEST(HpcFabric, ClusterRunsOnTopologySpec)
{
    sim::EventQueue eq;
    hpc::ClusterConfig cfg;
    cfg.ranks = 4;
    cfg.memoryPerRank = 1ull << 30;
    cfg.topology = mustTopo("leafspine:hosts=4,leaves=2,spines=2,bw=56g");
    hpc::Cluster c(eq, cfg, core::RegMode::Npf);
    mem::VirtAddr s = c.allocBuffer(0, MiB);
    mem::VirtAddr r = c.allocBuffer(3, MiB);
    bool sent = false, received = false;
    c.irecv(3, 0, r, MiB, [&] { received = true; });
    c.isend(0, 3, s, MiB, [&] { sent = true; });
    eq.runUntilCondition([&] { return sent && received; },
                         10 * sim::kSecond);
    EXPECT_TRUE(sent);
    EXPECT_TRUE(received);
}

TEST(HpcFabricDeathTest, TopologyHostCountMustMatchRanks)
{
    // Checked in every build: QPs for ranks past the topology's hosts
    // would index ports that do not exist.
    sim::EventQueue eq;
    hpc::ClusterConfig cfg;
    cfg.ranks = 4;
    cfg.memoryPerRank = 1ull << 30;
    cfg.topology = mustTopo("star:hosts=3");
    EXPECT_DEATH(hpc::Cluster(eq, cfg),
                 "topology has 3 hosts, cluster has 4 ranks");
}
