/**
 * @file
 * Observability layer tests: the metrics registry (registration,
 * instance naming, retained values, JSON snapshots), the flow tracer
 * (buffering, Chrome export, flow scopes, capacity), and the
 * obs::Session end-to-end — a traced backup-ring + InfiniBand run
 * must produce NPF phase spans and counters from every subsystem.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/npf_controller.hh"
#include "eth/eth_nic.hh"
#include "ib/queue_pair.hh"
#include "mem/memory_manager.hh"
#include "net/fabric.hh"
#include "obs/flow_tracer.hh"
#include "obs/metrics.hh"
#include "obs/session.hh"
#include "scenario/eth_world.hh"
#include "sim/event_queue.hh"

using namespace npf;

namespace {

bool
contains(const std::string &hay, const std::string &needle)
{
    return hay.find(needle) != std::string::npos;
}

/** The one key set every histogram serialises with, in order. */
const std::vector<std::string> kHistogramKeys = {
    "count", "mean", "p50", "p90", "p99", "p99.9", "min", "max"};

/** Keys, in order, of the flat JSON object named @p name in @p json;
 *  empty when @p name is absent. */
std::vector<std::string>
objectKeys(const std::string &json, const std::string &name)
{
    std::vector<std::string> keys;
    std::size_t at = json.find("\"" + name + "\":{");
    if (at == std::string::npos)
        return keys;
    std::size_t end = json.find('}', at);
    for (std::size_t q = json.find('"', at + name.size() + 4); q < end;) {
        std::size_t close = json.find('"', q + 1);
        keys.push_back(json.substr(q + 1, close - q - 1));
        q = json.find('"', close + 1);
    }
    return keys;
}

} // namespace

// ---------------------------------------------------------------- Registry

TEST(Registry, InstanceNamesAreMonotonic)
{
    obs::Registry reg;
    EXPECT_EQ(reg.instanceName("ib.qp"), "ib.qp0");
    EXPECT_EQ(reg.instanceName("ib.qp"), "ib.qp1");
    EXPECT_EQ(reg.instanceName("eth.nic"), "eth.nic0");
    EXPECT_EQ(reg.instanceName("ib.qp"), "ib.qp2");
}

TEST(Registry, CountersAndGaugesReadThrough)
{
    obs::Registry reg;
    std::uint64_t hits = 0;
    double depth = 1.5;
    reg.addCounter("x.hits", &hits);
    reg.addGauge("x.depth", [&] { return depth; });
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.value("x.hits"), 0.0);
    hits = 41;
    depth = 3.0;
    EXPECT_EQ(reg.value("x.hits"), 41.0);
    EXPECT_EQ(reg.value("x.depth"), 3.0);
    EXPECT_FALSE(reg.value("x.unknown").has_value());
}

TEST(Registry, RemoveDropsEntryByDefault)
{
    obs::Registry reg;
    std::uint64_t v = 7;
    obs::Registry::Id id = reg.addCounter("a.b", &v);
    reg.remove(id);
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_FALSE(reg.value("a.b").has_value());
    reg.remove(id); // unknown id: harmless
}

TEST(Registry, RetainArchivesRemovedEntries)
{
    obs::Registry reg;
    reg.setRetain(true);
    std::uint64_t v = 123;
    sim::Histogram h;
    h.record(5.0);
    obs::Registry::Id c = reg.addCounter("dead.count", &v);
    obs::Registry::Id g = reg.addGauge("dead.gauge", [] { return 2.5; });
    obs::Registry::Id hi = reg.addHistogram("dead.hist", &h);
    reg.removeAll({c, g, hi});
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.retiredSize(), 3u);
    // Final values survive the component's death.
    EXPECT_EQ(reg.value("dead.count"), 123.0);
    EXPECT_EQ(reg.value("dead.gauge"), 2.5);

    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_TRUE(contains(os.str(), "\"dead.count\":123"));
    EXPECT_EQ(objectKeys(os.str(), "dead.hist"), kHistogramKeys);

    reg.clearRetired();
    EXPECT_EQ(reg.retiredSize(), 0u);
    EXPECT_FALSE(reg.value("dead.count").has_value());
}

TEST(Registry, DuplicateNameReplacesWithoutDanglingId)
{
    obs::Registry reg;
    std::uint64_t a = 1, b = 2;
    obs::Registry::Id first = reg.addCounter("dup.c", &a);
    obs::Registry::Id second = reg.addCounter("dup.c", &b);
    EXPECT_EQ(reg.size(), 1u);
    // The stale id must not delete (or archive over) the replacement.
    reg.setRetain(true);
    reg.remove(first);
    EXPECT_EQ(reg.value("dup.c"), 2.0);
    EXPECT_EQ(reg.retiredSize(), 0u);
    reg.remove(second);
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.value("dup.c"), 2.0); // now retired
}

TEST(Registry, WriteJsonShape)
{
    obs::Registry reg;
    std::uint64_t c = 9;
    sim::Histogram h;
    for (int i = 1; i <= 4; ++i)
        h.record(i);
    reg.addCounter("s.c", &c);
    reg.addGauge("s.g", [] { return 0.5; });
    reg.addHistogram("s.h", &h);
    std::ostringstream os;
    reg.writeJson(os);
    const std::string j = os.str();
    EXPECT_TRUE(contains(j, "\"counters\":{\"s.c\":9}"));
    EXPECT_TRUE(contains(j, "\"gauges\":{\"s.g\":0.5}"));
    EXPECT_TRUE(contains(j, "\"s.h\":{\"count\":4,\"mean\":2.5,"));
    EXPECT_EQ(objectKeys(j, "s.h"), kHistogramKeys);
    EXPECT_TRUE(contains(j, "\"min\":1,\"max\":4}"));
}

namespace {

/** Minimal component holding the Instrumented handle (last member). */
struct Probe
{
    std::uint64_t ticks = 0;
    obs::Instrumented obs_;

    Probe()
    {
        obs_.init("test.probe");
        obs_.counter("ticks", &ticks);
    }

    const std::string &obsName() const { return obs_.name(); }
};

} // namespace

TEST(Registry, InstrumentedRegistersAndDeregisters)
{
    obs::Registry &reg = obs::Registry::global();
    std::string name;
    {
        Probe p;
        p.ticks = 11;
        name = p.obsName() + ".ticks";
        EXPECT_EQ(reg.value(name), 11.0);
    }
    // Destruction deregisters (no session active, so nothing is
    // retained).
    EXPECT_FALSE(reg.value(name).has_value());
}

// -------------------------------------------------------------- FlowTracer

TEST(FlowTracer, DisabledCostsNothing)
{
    obs::FlowTracer &tr = obs::tracer();
    tr.clear();
    ASSERT_FALSE(tr.enabled());
    EXPECT_EQ(tr.beginFlow("npf", "npf"), 0u);
    tr.span(obs::Track::Nic, "npf", "trigger", 0, 10);
    tr.instant(obs::Track::Driver, "npf", "x");
    tr.endFlow(0, "npf", "npf");
    EXPECT_EQ(tr.eventCount(), 0u);
}

TEST(FlowTracer, BuffersFlowsSpansInstants)
{
    obs::FlowTracer &tr = obs::tracer();
    tr.clear();
    tr.enable(true);
    obs::FlowId f = tr.beginFlow("npf", "npf");
    EXPECT_NE(f, 0u);
    tr.span(obs::Track::Nic, "npf", "trigger", 0, 10, f);
    tr.instant(obs::Track::Driver, "npf", "woke", f);
    tr.endFlow(f, "npf", "npf");
    // begin + span + instant + end
    EXPECT_EQ(tr.eventCount(), 4u);

    std::ostringstream os;
    tr.writeChromeTrace(os);
    const std::string j = os.str();
    EXPECT_TRUE(contains(j, "\"traceEvents\""));
    EXPECT_TRUE(contains(j, "\"trigger\""));
    EXPECT_TRUE(contains(j, "\"ph\":\"X\""));
    EXPECT_TRUE(contains(j, "\"ph\":\"b\""));
    EXPECT_TRUE(contains(j, "\"ph\":\"e\""));

    tr.enable(false);
    tr.clear();
    EXPECT_EQ(tr.eventCount(), 0u);
}

TEST(FlowTracer, FlowScopeNestsAndRestores)
{
    obs::FlowTracer &tr = obs::tracer();
    EXPECT_EQ(tr.currentFlow(), 0u);
    {
        obs::FlowScope outer(7);
        EXPECT_EQ(tr.currentFlow(), 7u);
        {
            obs::FlowScope inner(9);
            EXPECT_EQ(tr.currentFlow(), 9u);
        }
        EXPECT_EQ(tr.currentFlow(), 7u);
    }
    EXPECT_EQ(tr.currentFlow(), 0u);
}

// ----------------------------------------------------------------- Session

TEST(Session, ExportsEventQueueMetricsAndSites)
{
    sim::EventQueue eq;
    obs::Session session(eq); // no files, no tracing
    eq.schedule(10, [] {}, "test.site_a");
    eq.schedule(20, [] {}, "test.site_a");
    eq.schedule(30, [] {}, "test.site_b");
    eq.schedule(40, [] {});
    // Two labels with one spelling at two addresses (as from two
    // translation units) count as one site.
    static const char kDupA[] = "test.site_dup";
    static const char kDupB[] = "test.site_dup";
    eq.schedule(50, [] {}, kDupA);
    eq.schedule(60, [] {}, kDupB);
    eq.run();

    std::ostringstream os;
    session.writeMetrics(os);
    const std::string j = os.str();
    EXPECT_TRUE(contains(j, "\"sim_time_ns\":60"));
    EXPECT_TRUE(contains(j, ".executed\":6"));
    EXPECT_TRUE(contains(j, "\"test.site_a\":2"));
    EXPECT_TRUE(contains(j, "\"test.site_b\":1"));
    EXPECT_TRUE(contains(j, "\"test.site_dup\":2"));
    EXPECT_TRUE(contains(j, "\"(unlabeled)\":1"));
    session.finish();
}

TEST(Session, SamplerBuildsRateSeries)
{
    sim::EventQueue eq;
    Probe probe;
    std::string counter = probe.obsName() + ".ticks";
    obs::SessionOptions opt;
    opt.sampleInterval = sim::kMillisecond;
    opt.sampledCounters = {counter};
    obs::Session session(eq, opt);

    // 1 tick every 100 us for 10 ms => ~10 ticks/ms bucket.
    for (int i = 1; i <= 100; ++i)
        eq.schedule(sim::Time(i) * 100 * sim::kMicrosecond,
                    [&] { ++probe.ticks; });
    eq.run();
    session.finish();

    const sim::RateSeries *s = session.series(counter);
    ASSERT_NE(s, nullptr);
    EXPECT_GE(s->buckets(), 9u);
    EXPECT_DOUBLE_EQ(s->total(), 100.0);
    EXPECT_EQ(session.series("no.such.counter"), nullptr);
}

TEST(Session, SamplerDoesNotKeepQueueAlive)
{
    sim::EventQueue eq;
    obs::SessionOptions opt;
    opt.sampleInterval = sim::kMillisecond;
    obs::Session session(eq, opt);
    eq.schedule(10 * sim::kMillisecond, [] {});
    eq.run(); // must terminate: the sampler stops rescheduling
    EXPECT_EQ(eq.live(), 0u);
    session.finish();
}

// --------------------------------------------------- end-to-end integration

namespace {

/** Cold backup-ring receiver plus a raw frame injector. */
struct TracedEthRig
{
    sim::EventQueue &eq;
    mem::MemoryManager mm{64ull << 20};
    mem::AddressSpace &as{mm.createAddressSpace("iouser")};
    core::NpfController npfc;
    core::ChannelId ch;
    eth::EthNic nic, peer;
    unsigned ring = 0;
    mem::VirtAddr bufs = 0;
    std::size_t bufBytes = 4096;
    unsigned delivered = 0;

    explicit TracedEthRig(sim::EventQueue &q)
        : eq(q), npfc(eq), ch(npfc.attach(as)), nic(eq, npfc),
          peer(eq, npfc)
    {
        peer.connectTo(nic, net::LinkConfig{12e9, 1000, 38});
        nic.connectTo(peer, net::LinkConfig{12e9, 1000, 38});
        eth::RxRingConfig rcfg;
        rcfg.size = 8;
        rcfg.policy = eth::RxFaultPolicy::BackupRing;
        ring = nic.createRxRing(ch, rcfg,
                                [this](const eth::Frame &) {
                                    ++delivered;
                                });
        bufs = as.allocRegion(rcfg.size * bufBytes, "rx");
        for (std::size_t i = 0; i < rcfg.size; ++i)
            nic.postRxBuffer(ring, bufs + i * bufBytes, bufBytes);
    }

    void
    inject(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            eth::Frame f;
            f.dstRing = ring;
            f.bytes = 1000;
            eth::EthNic *dst = &nic;
            peer.txLink()->send(f.bytes, [dst, f] { dst->receive(f); });
        }
    }
};

} // namespace

TEST(Session, EndToEndTraceAndMetrics)
{
    sim::EventQueue eq;

    // Ethernet side: cold ring under the backup-ring policy, so every
    // frame parks (rNPF) and resolves through the full NPF flow.
    TracedEthRig rig(eq);

    // InfiniBand side: a cold receive buffer forces recv NPF + RNR
    // NACK recovery.
    net::Fabric fabric(eq, 2,
                       net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                         200});
    mem::MemoryManager mmA(1ull << 30), mmB(1ull << 30);
    auto &asA = mmA.createAddressSpace("snd");
    auto &asB = mmB.createAddressSpace("rcv");
    core::NpfController npfcA(eq), npfcB(eq);
    auto chA = npfcA.attach(asA);
    auto chB = npfcB.attach(asB);
    ib::QueuePair qpA(eq, fabric, 0, npfcA, chA);
    ib::QueuePair qpB(eq, fabric, 1, npfcB, chB);
    qpA.connect(qpB);
    qpB.connect(qpA);
    constexpr std::size_t kMsg = 64 * 1024;
    mem::VirtAddr sbuf = asA.allocRegion(kMsg);
    mem::VirtAddr rbuf = asB.allocRegion(kMsg);
    asA.touch(sbuf, kMsg, true);

    obs::SessionOptions opt;
    opt.trace = true;
    obs::Session session(eq, opt);

    rig.inject(5);
    qpB.postRecv({ib::Opcode::Send, rbuf, kMsg, 0, 1});
    qpA.postSend({ib::Opcode::Send, sbuf, kMsg, 0, 1});
    eq.run();

    EXPECT_EQ(rig.delivered, 5u);
    EXPECT_GT(qpB.stats().recvNpfs, 0u);
    EXPECT_GT(qpB.stats().rnrNacksSent, 0u);

    // The trace must show the paper's NPF phases and both recovery
    // flows.
    std::ostringstream ts;
    session.writeTrace(ts);
    const std::string trace = ts.str();
    for (const char *name : {"\"trigger\"", "\"driver\"",
                             "\"pt_update\"", "\"resume\"",
                             "\"rnpf\"", "\"rnr\""})
        EXPECT_TRUE(contains(trace, name)) << "missing " << name;

    // The metrics snapshot must cover every layer of the stack.
    std::ostringstream ms;
    session.writeMetrics(ms);
    const std::string metrics = ms.str();
    for (const char *prefix : {"core.npf", "ib.qp", "eth.nic",
                               "eth.backup", "mem.mm", "iommu.mmu",
                               "net.link", "sim.eq"})
        EXPECT_TRUE(contains(metrics, prefix)) << "missing " << prefix;
    EXPECT_TRUE(contains(metrics, "rnr_nacks_sent"));
    EXPECT_TRUE(contains(metrics, "minor_faults"));

    session.finish();
}

TEST(Session, TestbedMetricsSnapshot)
{
    scenario::EthBed bed({.policy = eth::RxFaultPolicy::BackupRing});
    ASSERT_TRUE(bed.connect(1));
    // Every testbed component registers into the global registry.
    std::ostringstream os;
    obs::Registry::global().writeJson(os);
    const std::string j = os.str();
    for (const char *prefix :
         {"core.npf", "eth.nic", "eth.backup", "mem.mm", "iommu.mmu",
          "tcp.conn", "net.link"})
        EXPECT_TRUE(contains(j, prefix)) << "missing " << prefix;
}

TEST(Session, RetainsCountersOfDeadComponents)
{
    sim::EventQueue eq;
    obs::Session session(eq);
    std::string name;
    {
        Probe p;
        p.ticks = 5;
        name = p.obsName() + ".ticks";
    }
    // The probe died mid-session: its final value must still appear.
    EXPECT_EQ(obs::Registry::global().value(name), 5.0);
    std::ostringstream os;
    session.writeMetrics(os);
    EXPECT_TRUE(contains(os.str(), name));
    session.finish();
    // finish() clears the retired set.
    EXPECT_FALSE(obs::Registry::global().value(name).has_value());
}

namespace {

/**
 * Component whose histogram samples and gauge-read storage die with
 * it — regression for retain-mode archiving running after member
 * destruction (the handle, declared last, must deregister while the
 * histogram's heap storage and the vector behind the gauge are still
 * alive; ASan catches any ordering regression here).
 */
struct DyingModel
{
    sim::Histogram latNs;
    std::vector<int> frames{1, 2, 3};
    obs::Instrumented obs_;

    DyingModel()
    {
        obs_.init("test.dying");
        obs_.histogram("lat_ns", &latNs);
        obs_.gauge("frames", [this] { return double(frames.size()); });
    }
};

} // namespace

TEST(Session, RetainArchivesHistogramsAndGaugesOfDeadComponents)
{
    sim::EventQueue eq;
    obs::Session session(eq);
    std::string pfx;
    {
        DyingModel m;
        for (int i = 1; i <= 1000; ++i)
            m.latNs.record(double(i));
        pfx = m.obs_.name();
    }
    // The model died mid-session: the gauge's final value and the
    // histogram's full distribution must have been archived.
    EXPECT_EQ(obs::Registry::global().value(pfx + ".frames"), 3.0);
    std::ostringstream os;
    session.writeMetrics(os);
    EXPECT_EQ(objectKeys(os.str(), pfx + ".lat_ns"), kHistogramKeys);
    EXPECT_TRUE(contains(os.str(), "\"count\":1000"));
    session.finish();
}

TEST(Session, FinishCancelsPendingSamplerTick)
{
    sim::EventQueue eq;
    eq.schedule(10 * sim::kMillisecond, [] {});
    {
        obs::SessionOptions opt;
        opt.sampleInterval = sim::kMillisecond;
        obs::Session session(eq, opt);
        session.finish(); // the first sampler tick is still queued
    }
    // The cancelled tick must neither fire on the dead session nor
    // keep rescheduling itself.
    eq.run();
    EXPECT_EQ(eq.live(), 0u);
    EXPECT_GE(eq.stats().cancelled, 1u);
}
