/**
 * @file
 * Unit tests for the link and fabric models: serialization delay,
 * FIFO ordering, propagation, switch forwarding, the wire-level
 * fault matrix, loopback accounting, the lifetime of the fabric's
 * pooled packets and the fabric's input checks.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "net/fabric.hh"
#include "net/link.hh"
#include "net/topology.hh"
#include "sim/shard.hh"

using namespace npf;
using namespace npf::net;

namespace {

fault::FaultPlan
mustParse(const std::string &spec)
{
    std::string err;
    auto p = fault::FaultPlan::parse(spec, &err);
    EXPECT_TRUE(p.has_value()) << err;
    return *p;
}

LinkConfig
plainLink()
{
    LinkConfig cfg;
    cfg.bandwidthBitsPerSec = 8e9; // 1 byte/ns
    cfg.propagation = 0;
    cfg.perPacketOverheadBytes = 0;
    return cfg;
}

} // namespace

TEST(Link, SerializationDelayMatchesBandwidth)
{
    sim::EventQueue eq;
    LinkConfig cfg;
    cfg.bandwidthBitsPerSec = 8e9; // 1 byte/ns
    cfg.propagation = 0;
    cfg.perPacketOverheadBytes = 0;
    Link link(eq, cfg);
    sim::Time arrival = 0;
    link.send(1000, [&] { arrival = eq.now(); });
    eq.run();
    EXPECT_EQ(arrival, 1000u);
}

TEST(Link, PropagationAdds)
{
    sim::EventQueue eq;
    LinkConfig cfg;
    cfg.bandwidthBitsPerSec = 8e9;
    cfg.propagation = 500;
    cfg.perPacketOverheadBytes = 0;
    Link link(eq, cfg);
    sim::Time arrival = 0;
    link.send(100, [&] { arrival = eq.now(); });
    eq.run();
    EXPECT_EQ(arrival, 600u);
}

TEST(Link, BackToBackPacketsQueueFifo)
{
    sim::EventQueue eq;
    LinkConfig cfg;
    cfg.bandwidthBitsPerSec = 8e9;
    cfg.propagation = 0;
    cfg.perPacketOverheadBytes = 0;
    Link link(eq, cfg);
    std::vector<std::pair<int, sim::Time>> arrivals;
    for (int i = 0; i < 3; ++i)
        link.send(1000, [&, i] { arrivals.push_back({i, eq.now()}); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0], (std::pair<int, sim::Time>{0, 1000}));
    EXPECT_EQ(arrivals[1], (std::pair<int, sim::Time>{1, 2000}));
    EXPECT_EQ(arrivals[2], (std::pair<int, sim::Time>{2, 3000}));
}

TEST(Link, OverheadBytesCounted)
{
    sim::EventQueue eq;
    LinkConfig cfg;
    cfg.bandwidthBitsPerSec = 8e9;
    cfg.propagation = 0;
    cfg.perPacketOverheadBytes = 38;
    Link link(eq, cfg);
    sim::Time arrival = 0;
    link.send(62, [&] { arrival = eq.now(); });
    eq.run();
    EXPECT_EQ(arrival, 100u);
    EXPECT_EQ(link.stats().payloadBytes, 62u);
    EXPECT_EQ(link.stats().wireBytes, 100u);
}

// --- the wire-level fault matrix vs FIFO serialization ----------------
// The link's contract under faults: the wire itself stays FIFO (every
// packet occupies its serialization slot in send order) while arrival
// semantics bend per action. These pin the exact arithmetic.

TEST(Link, FaultDropStillHoldsTheWire)
{
    sim::EventQueue eq;
    Link link(eq, plainLink());
    fault::FaultInjector inj(eq, mustParse("link:drop:nth=1"), 1);
    bool first = false;
    sim::Time second = 0;
    link.send(1000, [&] { first = true; });
    link.send(1000, [&] { second = eq.now(); });
    eq.run();
    EXPECT_FALSE(first); // dropped on the wire
    // The dropped packet still serialized in [0, 1000): the survivor
    // queued behind it exactly as if the drop had arrived.
    EXPECT_EQ(second, 2000u);
    EXPECT_EQ(link.stats().injDropped, 1u);
    EXPECT_EQ(link.stats().packets, 2u);
}

TEST(Link, FaultDuplicateArrivesBeforeOriginal)
{
    sim::EventQueue eq;
    Link link(eq, plainLink());
    fault::FaultInjector inj(eq, mustParse("link:dup:nth=1"), 1);
    std::vector<sim::Time> arrivals;
    link.send(1000, [&] { arrivals.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 2u);
    // The copy claims the first wire slot, the original follows it.
    EXPECT_EQ(arrivals[0], 1000u);
    EXPECT_EQ(arrivals[1], 2000u);
    EXPECT_EQ(link.stats().injDuplicated, 1u);
}

TEST(Link, FaultDelayLetsLaterPacketsOvertake)
{
    sim::EventQueue eq;
    Link link(eq, plainLink());
    fault::FaultInjector inj(eq,
                             mustParse("link:delay:nth=1,delay=5000"), 1);
    std::vector<std::pair<int, sim::Time>> arrivals;
    link.send(1000, [&] { arrivals.push_back({0, eq.now()}); });
    link.send(1000, [&] { arrivals.push_back({1, eq.now()}); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 2u);
    // The delayed packet held its wire slot [0, 1000) but arrives at
    // 6000; the packet behind it clocks out at 2000 and overtakes.
    EXPECT_EQ(arrivals[0], (std::pair<int, sim::Time>{1, 2000}));
    EXPECT_EQ(arrivals[1], (std::pair<int, sim::Time>{0, 6000}));
    EXPECT_EQ(link.stats().injDelayed, 1u);
}

TEST(Link, QueuedBytesCountsOnlyWaitingTraffic)
{
    sim::EventQueue eq;
    Link link(eq, plainLink());
    link.send(1000, [] {});
    link.send(500, [] {});
    eq.run();
    // The first packet hit an idle wire; only the second waited.
    EXPECT_EQ(link.stats().queuedBytes, 500u);
}

TEST(Fabric, DeliversBetweenNodes)
{
    sim::EventQueue eq;
    FabricConfig cfg;
    cfg.link.bandwidthBitsPerSec = 8e9;
    cfg.link.propagation = 100;
    cfg.link.perPacketOverheadBytes = 0;
    cfg.switchLatency = 50;
    Fabric fabric(eq, 4, cfg);
    sim::Time arrival = 0;
    fabric.send(0, 3, 1000, [&] { arrival = eq.now(); });
    eq.run();
    // up serialization 1000 + prop 100 + switch 50 + down 1000 + 100.
    EXPECT_EQ(arrival, 2250u);
}

TEST(Fabric, IncastSerializesAtDownlink)
{
    sim::EventQueue eq;
    FabricConfig cfg;
    cfg.link.bandwidthBitsPerSec = 8e9;
    cfg.link.propagation = 0;
    cfg.link.perPacketOverheadBytes = 0;
    cfg.switchLatency = 0;
    Fabric fabric(eq, 4, cfg);
    std::vector<sim::Time> arrivals;
    // Nodes 0..2 each send 1000 B to node 3 at t=0.
    for (unsigned src = 0; src < 3; ++src)
        fabric.send(src, 3, 1000, [&] { arrivals.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 3u);
    // Uplinks run in parallel (all arrive at the switch at 1000), the
    // shared downlink serializes them.
    EXPECT_EQ(arrivals[0], 2000u);
    EXPECT_EQ(arrivals[1], 3000u);
    EXPECT_EQ(arrivals[2], 4000u);
}

// --- loopback (src == dst) --------------------------------------------
// Loopback turns around below the first hop on the fabric's loopback
// link, which polls the Link fault site and counts the traffic: on the
// closure plane (send), the record plane (sendRecord) and in topology
// mode alike.

namespace {

enum class Plane { Closure, Record, Topology };
constexpr Plane kPlanes[] = {Plane::Closure, Plane::Record,
                             Plane::Topology};

const char *
planeName(Plane p)
{
    switch (p) {
      case Plane::Closure:
        return "closure";
      case Plane::Record:
        return "record";
      case Plane::Topology:
        return "topology";
    }
    return "?";
}

/** A @p nodes-host fabric for @p plane whose switch hop costs
 *  @p switch_latency: the legacy star, or a one-switch topology. */
std::unique_ptr<Fabric>
makeFabric(sim::EventQueue &eq, Plane plane, unsigned nodes,
           sim::Time switch_latency)
{
    if (plane != Plane::Topology) {
        FabricConfig cfg;
        cfg.switchLatency = switch_latency;
        return std::make_unique<Fabric>(eq, nodes, cfg);
    }
    auto topo = Topology::parse("star:hosts=" + std::to_string(nodes) +
                                ",fwd=" + std::to_string(switch_latency));
    EXPECT_TRUE(topo.has_value());
    return std::make_unique<Fabric>(eq, *topo);
}

constexpr std::uint32_t kKind = 7; // any demux key

/** Send one @p bytes packet from @p src to @p dst over @p plane; every
 *  delivery runs @p on_arrival. Record-plane receivers must be bound
 *  first (bindArrivals). */
template <typename F>
void
sendOn(Fabric &fabric, Plane plane, unsigned src, unsigned dst,
       std::uint32_t bytes, F on_arrival)
{
    if (plane != Plane::Record) {
        fabric.send(src, dst, bytes, std::move(on_arrival));
        return;
    }
    WireRecord rec;
    rec.src = src;
    rec.dst = dst;
    rec.kind = kKind;
    rec.bytes = bytes;
    fabric.sendRecord(rec);
}

/** Record plane: bind every node's kKind handler to @p on_arrival. */
void
bindArrivals(Fabric &fabric, Plane plane,
             const std::function<void(unsigned node)> &on_arrival)
{
    if (plane != Plane::Record)
        return;
    for (unsigned n = 0; n < fabric.nodes(); ++n)
        fabric.bindRx(n, kKind,
                      [on_arrival, n](const WireRecord &) { on_arrival(n); });
}

/** Send one @p bytes loopback packet at @p node over @p plane; every
 *  delivery appends its arrival time to @p arrivals. */
void
sendLoopback(sim::EventQueue &eq, Fabric &fabric, Plane plane,
             unsigned node, std::uint32_t bytes,
             std::vector<sim::Time> &arrivals)
{
    auto record = [&eq, &arrivals] { arrivals.push_back(eq.now()); };
    bindArrivals(fabric, plane, [record](unsigned) { record(); });
    sendOn(fabric, plane, node, node, bytes, record);
}

} // namespace

TEST(Fabric, LoopbackCostsSwitchLatencyAndIsCounted)
{
    for (Plane plane : kPlanes) {
        SCOPED_TRACE(planeName(plane));
        sim::EventQueue eq;
        auto fabric = makeFabric(eq, plane, 2, 50);
        std::vector<sim::Time> arrivals;
        sendLoopback(eq, *fabric, plane, 1, 4096, arrivals);
        eq.run();
        EXPECT_EQ(arrivals, std::vector<sim::Time>{50});
        EXPECT_EQ(fabric->loopbackLink().stats().packets, 1u);
        EXPECT_EQ(fabric->loopbackLink().stats().payloadBytes, 4096u);
        // Never touches a wire.
        EXPECT_EQ(fabric->uplink(1).stats().packets, 0u);
        EXPECT_EQ(fabric->downlink(1).stats().packets, 0u);
    }
}

TEST(Fabric, LoopbackPollsLinkFaultSite)
{
    for (Plane plane : kPlanes) {
        SCOPED_TRACE(planeName(plane));
        sim::EventQueue eq;
        auto fabric = makeFabric(eq, plane, 2, FabricConfig{}.switchLatency);
        fault::FaultInjector inj(eq, mustParse("link:drop:nth=1"), 1);
        std::vector<sim::Time> arrivals;
        sendLoopback(eq, *fabric, plane, 0, 100, arrivals);
        eq.run();
        EXPECT_TRUE(arrivals.empty());
        EXPECT_EQ(fabric->loopbackLink().stats().injDropped, 1u);
        EXPECT_EQ(inj.injected(fault::Site::Link), 1u);
    }
}

TEST(Fabric, LoopbackDuplicateDeliversTwice)
{
    for (Plane plane : kPlanes) {
        SCOPED_TRACE(planeName(plane));
        sim::EventQueue eq;
        auto fabric = makeFabric(eq, plane, 2, 50);
        fault::FaultInjector inj(eq, mustParse("link:dup:nth=1"), 1);
        std::vector<sim::Time> arrivals;
        sendLoopback(eq, *fabric, plane, 0, 100, arrivals);
        eq.run();
        EXPECT_EQ(arrivals, (std::vector<sim::Time>{50, 50}));
        EXPECT_EQ(fabric->loopbackLink().stats().injDuplicated, 1u);
    }
}

TEST(Fabric, LoopbackDelayAddsToSwitchLatency)
{
    for (Plane plane : kPlanes) {
        SCOPED_TRACE(planeName(plane));
        sim::EventQueue eq;
        auto fabric = makeFabric(eq, plane, 2, 50);
        fault::FaultInjector inj(
            eq, mustParse("link:delay:nth=1,delay=1000"), 1);
        std::vector<sim::Time> arrivals;
        sendLoopback(eq, *fabric, plane, 0, 100, arrivals);
        eq.run();
        EXPECT_EQ(arrivals, std::vector<sim::Time>{1050});
        EXPECT_EQ(fabric->loopbackLink().stats().injDelayed, 1u);
    }
}

// The record and topology planes park their packets in
// fabricPacketPool(); the legacy closure plane carries each callable
// in its hop closures and takes no slot. Under wire faults each
// descriptor and each captured payload must be released exactly
// once, and each delivery must run as often as the hops' TxOutcomes
// say: a link hands on one packet per wire slot it clocked out, minus
// the ones it dropped (a duplicate takes a slot of its own).
TEST(Fabric, EveryPlaneReleasesEachDescriptorOnce)
{
    const char *const kPlans[] = {"link:drop:rate=0.2",
                                  "link:dup:rate=0.2",
                                  "link:delay:rate=0.2,delay=3us"};
    constexpr unsigned kNodes = 3;
    constexpr unsigned kPerPair = 20;
    for (Plane plane : kPlanes) {
        for (const char *plan : kPlans) {
            SCOPED_TRACE(std::string(planeName(plane)) + " " + plan);
            sim::EventQueue eq;
            auto fabric = makeFabric(eq, plane, kNodes, 200);
            sim::Pool<int> payloads("test.payload");
            const std::size_t base = fabricPacketPool().live();
            fault::FaultInjector inj(eq, mustParse(plan), 5);
            std::vector<unsigned> got(kNodes, 0);
            bindArrivals(*fabric, plane, [&got](unsigned n) { ++got[n]; });
            for (unsigned i = 0; i < kPerPair; ++i)
                for (unsigned src = 0; src < kNodes; ++src)
                    for (unsigned dst = 0; dst < kNodes; ++dst)
                        sendOn(*fabric, plane, src, dst, 1000,
                               [&got, dst, ref = payloads.acquire(0)] {
                                   ++got[dst];
                               });
            if (plane == Plane::Closure) {
                // In flight, yet not one descriptor taken.
                EXPECT_GT(payloads.live(), 0u);
                EXPECT_EQ(fabricPacketPool().live(), base);
            } else {
                EXPECT_GT(fabricPacketPool().live(), base);
            }
            eq.run();
            EXPECT_EQ(fabricPacketPool().live(), base);
            EXPECT_EQ(payloads.live(), 0u);
            EXPECT_GT(inj.injected(fault::Site::Link), 0u);

            auto handedOn = [](const Link &l) {
                return l.stats().packets - l.stats().injDropped;
            };
            auto entered = [](const Link &l) {
                return l.stats().packets - l.stats().injDuplicated;
            };
            std::uint64_t up_out = 0, down_in = 0, delivered = 0;
            for (unsigned n = 0; n < kNodes; ++n) {
                up_out += handedOn(fabric->uplink(n));
                down_in += entered(fabric->downlink(n));
                delivered += got[n];
            }
            const Link &loop = fabric->loopbackLink();
            EXPECT_EQ(entered(loop), kNodes * kPerPair);
            // The switch hop neither loses nor makes packets.
            EXPECT_EQ(down_in, up_out);
            std::uint64_t want = handedOn(loop);
            for (unsigned n = 0; n < kNodes; ++n)
                want += handedOn(fabric->downlink(n));
            EXPECT_EQ(delivered, want);
        }
    }
}

// --- input checks -----------------------------------------------------
// Wiring errors, checked in every build: each would otherwise index
// past a table or hand a record to nobody.

TEST(FabricDeathTest, InvalidTopologyAborts)
{
    sim::EventQueue eq;
    Topology t = Topology::star(2);
    t.switches = 2; // s1 has no edges
    EXPECT_DEATH(Fabric(eq, t), "Fabric: topology: graph is not connected");
}

TEST(FabricDeathTest, RecordPlaneIsLegacyOnly)
{
    sim::EventQueue eq;
    Fabric fabric(eq, Topology::star(2));
    sim::ShardedEngine engine({});
    EXPECT_DEATH(fabric.shardBind(engine, 0, {0, 0}),
                 "shardBind is legacy-mode only");
    WireRecord rec;
    rec.dst = 1;
    EXPECT_DEATH(fabric.sendRecord(rec), "sendRecord is legacy-mode only");
    EXPECT_DEATH(fabric.recordLookahead(),
                 "recordLookahead is legacy-mode only");
}

TEST(FabricDeathTest, SecondRxBindingAborts)
{
    sim::EventQueue eq;
    Fabric fabric(eq, 2);
    fabric.bindRx(1, kKind, [](const WireRecord &) {});
    EXPECT_DEATH(fabric.bindRx(1, kKind, [](const WireRecord &) {}),
                 "duplicate rx binding node 1 kind 7");
}

TEST(FabricDeathTest, RecordToUnboundKindAborts)
{
    sim::EventQueue eq;
    Fabric fabric(eq, 2);
    fabric.bindRx(1, kKind, [](const WireRecord &) {});
    WireRecord rec;
    rec.src = 0;
    rec.dst = 1;
    rec.kind = kKind + 1;
    fabric.sendRecord(rec);
    EXPECT_DEATH(eq.run(), "record for unbound \\(node 1, kind 8\\)");
}
