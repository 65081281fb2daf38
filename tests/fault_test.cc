/**
 * @file
 * Fault-injection tests: plan-grammar accept/reject, every trigger
 * kind against a live Link, the per-site hooks (eth corrupt/stall,
 * ib/tcp drop-dup-delay, forced rNPF), timed mem/iotlb schedules,
 * install/uninstall semantics, and — the whole point — determinism:
 * same seed + same plan replays the identical fault sequence.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/fault.hh"
#include "marker_rig.hh"
#include "net/link.hh"
#include "scenario/ib_world.hh"
#include "tcp/tcp_connection.hh"

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

} // namespace

// --- grammar ----------------------------------------------------------

TEST(FaultPlanParse, AcceptsTheDocumentedGrammar)
{
    FaultPlan p = mustParse(
        "link:drop:rate=0.01;"
        "ib.rx:reorder:rate=0.005,delay=50us;"
        "eth.rx:corrupt:nth=3;"
        "eth.rx:stall:burst=10us@1ms,delay=25us;"
        "tcp.rx:dup:rate=0.5,from=1ms,until=2ms;"
        "npf:force:rate=0.02;"
        "mem:pressure:every=2ms,count=10,pages=512;"
        "iotlb:evict:at=1.5ms,entries=64");
    ASSERT_EQ(p.clauses.size(), 8u);

    EXPECT_EQ(p.clauses[0].site, Site::Link);
    EXPECT_EQ(p.clauses[0].action, Action::Drop);
    EXPECT_EQ(p.clauses[0].trigger, FaultClause::Trigger::Rate);
    EXPECT_DOUBLE_EQ(p.clauses[0].rate, 0.01);

    EXPECT_EQ(p.clauses[1].site, Site::IbRx);
    EXPECT_EQ(p.clauses[1].action, Action::Reorder);
    EXPECT_EQ(p.clauses[1].delay, 50 * sim::kMicrosecond);

    EXPECT_EQ(p.clauses[2].trigger, FaultClause::Trigger::Nth);
    EXPECT_EQ(p.clauses[2].nth, 3u);

    EXPECT_EQ(p.clauses[3].trigger, FaultClause::Trigger::Burst);
    EXPECT_EQ(p.clauses[3].width, 10 * sim::kMicrosecond);
    EXPECT_EQ(p.clauses[3].period, 1 * sim::kMillisecond);

    EXPECT_EQ(p.clauses[4].action, Action::Duplicate);
    EXPECT_EQ(p.clauses[4].from, 1 * sim::kMillisecond);
    EXPECT_EQ(p.clauses[4].until, 2 * sim::kMillisecond);

    EXPECT_EQ(p.clauses[5].site, Site::Npf);
    EXPECT_EQ(p.clauses[5].action, Action::ForceFault);

    EXPECT_EQ(p.clauses[6].trigger, FaultClause::Trigger::Every);
    EXPECT_EQ(p.clauses[6].period, 2 * sim::kMillisecond);
    EXPECT_EQ(p.clauses[6].count, 10u);
    EXPECT_EQ(p.clauses[6].magnitude, 512u);

    EXPECT_EQ(p.clauses[7].trigger, FaultClause::Trigger::At);
    EXPECT_EQ(p.clauses[7].at, sim::Time(1500 * sim::kMicrosecond));
    EXPECT_EQ(p.clauses[7].magnitude, 64u);
}

TEST(FaultPlanParse, EmptySpecIsAnEmptyPlan)
{
    EXPECT_TRUE(mustParse("").empty());
    EXPECT_TRUE(mustParse("  ;  ").empty());
}

TEST(FaultPlanParse, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "wifi:drop:rate=0.1",          // unknown site
        "link:corrupt:rate=0.1",       // action invalid at site
        "link:drop:rate=1.5",          // rate out of range
        "link:drop:rate=-0.1",         // rate out of range
        "link:drop",                   // event site without a trigger
        "link:drop:nth=0",             // nth is 1-based
        "link:drop:burst=2ms@1ms",     // width > period
        "link:drop:burst=10us",        // missing @period
        "link:drop:rate=0.1,until=5us,from=9us", // empty window
        "mem:pressure:rate=0.1",       // timed site needs a schedule
        "mem:pressure",                // timed site without a schedule
        "npf:force:every=1ms",         // event site with timed trigger
        "link:drop:rate=0.1,bogus=1",  // unknown key
        "link",                        // no action
        "link:drop:rate",              // no value
    };
    for (const char *spec : bad) {
        std::string err;
        EXPECT_FALSE(FaultPlan::parse(spec, &err).has_value()) << spec;
        EXPECT_FALSE(err.empty()) << spec;
    }
}

TEST(FaultPlanParse, TimeSuffixesAndBareNanoseconds)
{
    FaultPlan p = mustParse("link:delay:nth=1,delay=1500");
    EXPECT_EQ(p.clauses[0].delay, sim::Time(1500));
    p = mustParse("link:delay:nth=1,delay=2.5us");
    EXPECT_EQ(p.clauses[0].delay, sim::Time(2500));
    p = mustParse("mem:pressure:at=1s");
    EXPECT_EQ(p.clauses[0].at, 1 * sim::kSecond);
    EXPECT_EQ(p.clauses[0].magnitude, 256u) << "mem default pages";
}

// --- link-site triggers ----------------------------------------------

namespace {

/** Send @p n back-to-back packets on a fresh link; count deliveries
 *  and record arrival order. */
struct LinkRun
{
    std::vector<int> arrivals;
    net::Link::Stats stats;

    LinkRun(const std::string &spec, std::uint64_t seed, int n,
            std::uint64_t *fired_first_clause = nullptr)
    {
        sim::EventQueue eq;
        FaultInjector inj(eq, mustParse(spec), seed);
        net::Link link(eq, net::LinkConfig{10e9, 500, 20});
        // One send per microsecond, so time-gated triggers (burst,
        // from/until) see events spread over time, not a burst at 0.
        for (int i = 0; i < n; ++i) {
            eq.schedule(i * sim::kMicrosecond, [this, &link, i] {
                link.send(1000, [this, i] { arrivals.push_back(i); });
            });
        }
        eq.run();
        stats = link.stats();
        if (fired_first_clause)
            *fired_first_clause = inj.clauseFired(0);
    }
};

} // namespace

TEST(FaultLink, RateDropLosesSomePacketsDeterministically)
{
    const int kN = 1000;
    LinkRun a("link:drop:rate=0.2", 42, kN);
    EXPECT_EQ(a.stats.packets, std::uint64_t(kN))
        << "drops still occupy the wire";
    EXPECT_GT(a.stats.injDropped, 100u);
    EXPECT_LT(a.stats.injDropped, 300u);
    EXPECT_EQ(a.arrivals.size(), kN - a.stats.injDropped);

    LinkRun b("link:drop:rate=0.2", 42, kN);
    EXPECT_EQ(b.arrivals, a.arrivals) << "same seed, same fault pattern";

    LinkRun c("link:drop:rate=0.2", 43, kN);
    EXPECT_NE(c.arrivals, a.arrivals) << "different seed differs";
}

TEST(FaultLink, NthDropsExactlyThatPacket)
{
    LinkRun r("link:drop:nth=3", 1, 5);
    EXPECT_EQ(r.stats.injDropped, 1u);
    EXPECT_EQ(r.arrivals, (std::vector<int>{0, 1, 3, 4}));
}

TEST(FaultLink, DuplicateDeliversTwice)
{
    LinkRun r("link:dup:nth=2", 1, 3);
    EXPECT_EQ(r.stats.injDuplicated, 1u);
    ASSERT_EQ(r.arrivals.size(), 4u);
    // The copy goes on the wire first, so both copies of packet 1
    // arrive in order between packets 0 and 2.
    EXPECT_EQ(r.arrivals, (std::vector<int>{0, 1, 1, 2}));
}

TEST(FaultLink, ReorderLetsLaterPacketsOvertake)
{
    // Packet 0 delayed well past the other transmissions.
    LinkRun r("link:reorder:nth=1,delay=100us", 1, 3);
    EXPECT_EQ(r.stats.injDelayed, 1u);
    ASSERT_EQ(r.arrivals.size(), 3u);
    EXPECT_EQ(r.arrivals, (std::vector<int>{1, 2, 0}));
}

TEST(FaultLink, BurstHitsOnlyInsideTheWindow)
{
    // One shot: a window covering the first transmissions only.
    std::uint64_t fired = 0;
    LinkRun r("link:drop:burst=2us@1s", 1, 10, &fired);
    EXPECT_GT(r.stats.injDropped, 0u);
    EXPECT_LT(r.stats.injDropped, 10u) << "later packets fall outside";
    EXPECT_EQ(fired, r.stats.injDropped);
}

TEST(FaultLink, FromUntilGateTheClause)
{
    // Drops everything, but only applies to events in [0, 2us).
    LinkRun r("link:drop:rate=1,until=2us", 1, 10);
    EXPECT_GT(r.stats.injDropped, 0u);
    EXPECT_LT(r.stats.injDropped, 10u);
}

// --- installation semantics ------------------------------------------

TEST(FaultInjectorLifecycle, InstallsAndUninstalls)
{
    EXPECT_EQ(FaultInjector::active(), nullptr);
    sim::EventQueue eq;
    {
        FaultInjector inj(eq, mustParse("link:drop:rate=0.5"), 9);
        EXPECT_EQ(FaultInjector::active(), &inj);
        EXPECT_EQ(inj.seed(), 9u);
    }
    EXPECT_EQ(FaultInjector::active(), nullptr);
    // A second injector after teardown is fine.
    FaultInjector inj2(eq, mustParse("link:drop:rate=0.5"), 10);
    EXPECT_EQ(FaultInjector::active(), &inj2);
}

TEST(FaultInjectorLifecycle, NoPlanMeansNoDecisions)
{
    sim::EventQueue eq;
    net::Link link(eq, net::LinkConfig{10e9, 500, 20});
    int arrived = 0;
    for (int i = 0; i < 50; ++i)
        link.send(1000, [&] { ++arrived; });
    eq.run();
    EXPECT_EQ(arrived, 50);
    EXPECT_EQ(link.stats().injDropped, 0u);
}

TEST(FaultInjectorLifecycle, DestructionCancelsPendingTimers)
{
    sim::EventQueue eq;
    int fired = 0;
    {
        FaultInjector inj(eq, mustParse("mem:pressure:every=1ms"), 1);
        inj.onTimedAction(Site::Mem, [&](std::uint64_t) { ++fired; });
        eq.runUntil(2500 * sim::kMicrosecond);
        EXPECT_EQ(fired, 2);
    }
    eq.run(); // unbounded: must drain because the timer is gone
    EXPECT_EQ(fired, 2);
}

// --- timed sites ------------------------------------------------------

TEST(FaultTimed, ScheduledPressureAndEvictionStorms)
{
    sim::EventQueue eq;
    FaultInjector inj(
        eq, mustParse("mem:pressure:every=1ms,count=5,pages=8;"
                      "iotlb:evict:at=2ms,entries=4"),
        1);
    std::vector<std::pair<sim::Time, std::uint64_t>> mem_fires, tlb_fires;
    inj.onTimedAction(Site::Mem, [&](std::uint64_t m) {
        mem_fires.emplace_back(eq.now(), m);
    });
    inj.onTimedAction(Site::Iotlb, [&](std::uint64_t m) {
        tlb_fires.emplace_back(eq.now(), m);
    });
    eq.run();

    ASSERT_EQ(mem_fires.size(), 5u) << "count= bounds the process";
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(mem_fires[i].first, (i + 1) * sim::kMillisecond);
        EXPECT_EQ(mem_fires[i].second, 8u);
    }
    ASSERT_EQ(tlb_fires.size(), 1u);
    EXPECT_EQ(tlb_fires[0].first, 2 * sim::kMillisecond);
    EXPECT_EQ(tlb_fires[0].second, 4u);
    EXPECT_EQ(inj.injected(Site::Mem), 5u);
    EXPECT_EQ(inj.injected(Site::Iotlb), 1u);
    EXPECT_EQ(inj.injectedTotal(), 6u);
}

TEST(FaultTimed, UntilBoundsAnEveryProcess)
{
    sim::EventQueue eq;
    FaultInjector inj(
        eq, mustParse("mem:pressure:every=1ms,until=3500us"), 1);
    int fired = 0;
    inj.onTimedAction(Site::Mem, [&](std::uint64_t) { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 3); // 1ms, 2ms, 3ms
}

TEST(FaultTimed, UnhandledTimedSiteStillCounts)
{
    // No handler registered: the firing is recorded, nothing crashes.
    sim::EventQueue eq;
    FaultInjector inj(eq, mustParse("iotlb:evict:at=1ms"), 1);
    eq.run();
    EXPECT_EQ(inj.injected(Site::Iotlb), 1u);
}

// --- eth hooks --------------------------------------------------------

TEST(FaultEth, CorruptDropsTheFrameAndCountsIt)
{
    test::MarkerRig rig({.size = 32}, /*prefault=*/true);
    FaultInjector inj(rig.eq, mustParse("eth.rx:corrupt:nth=2"), 1);
    for (std::uint64_t i = 0; i < 4; ++i)
        rig.inject(i);
    rig.eq.run();
    EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{0, 2, 3}));
    EXPECT_EQ(rig.nic.stats().rxCorrupt, 1u);
    EXPECT_EQ(inj.injected(Site::EthRx), 1u);
}

TEST(FaultEth, StallDefersButLosesNothingAndKeepsOrder)
{
    test::MarkerRig rig({.size = 32}, /*prefault=*/true);
    // Stall the first frame long enough for the rest to pile up
    // behind it; dispatch order (and thus ring order) is preserved
    // because rx sequence numbers are assigned at dispatch.
    FaultInjector inj(rig.eq,
                      mustParse("eth.rx:stall:nth=1,delay=200us"), 1);
    for (std::uint64_t i = 0; i < 4; ++i)
        rig.inject(i);
    rig.eq.run();
    // The stalled frame is dispatched (and sequence-numbered) late,
    // after the frames that piled up behind it.
    EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{1, 2, 3, 0}));
    EXPECT_EQ(rig.nic.stats().rxStalls, 1u);
    EXPECT_EQ(inj.injected(Site::EthRx), 1u);
}

// --- forced rNPF ------------------------------------------------------

TEST(FaultNpf, ForceFaultFailsOneTranslationOnAResidentPage)
{
    sim::EventQueue eq;
    mem::MemoryManager mm(64 * MiB);
    mem::AddressSpace &as = mm.createAddressSpace("a");
    core::NpfController npfc(eq);
    core::ChannelId ch = npfc.attach(as);
    mem::VirtAddr buf = as.allocRegion(MiB);
    npfc.prefault(ch, buf, 16 * 4096, true);

    FaultInjector inj(eq, mustParse("npf:force:nth=2"), 1);
    EXPECT_TRUE(npfc.checkDma(ch, buf, 4096).ok);
    core::NpfController::DmaCheck forced = npfc.checkDma(ch, buf, 4096);
    EXPECT_FALSE(forced.ok) << "second translation is forced to miss";
    EXPECT_EQ(forced.missingPages, 1u);
    EXPECT_EQ(forced.firstMissing, mem::pageOf(buf));
    EXPECT_TRUE(npfc.checkDma(ch, buf, 4096).ok) << "one-shot";
    EXPECT_EQ(inj.injected(Site::Npf), 1u);
}

TEST(FaultNpf, ForceFaultAlsoFailsDmaAccess)
{
    sim::EventQueue eq;
    mem::MemoryManager mm(64 * MiB);
    mem::AddressSpace &as = mm.createAddressSpace("a");
    core::NpfController npfc(eq);
    core::ChannelId ch = npfc.attach(as);
    mem::VirtAddr buf = as.allocRegion(MiB);
    npfc.prefault(ch, buf, 16 * 4096, true);

    FaultInjector inj(eq, mustParse("npf:force:nth=1"), 1);
    EXPECT_FALSE(npfc.dmaAccess(ch, buf, 4096, true));
    EXPECT_TRUE(npfc.dmaAccess(ch, buf, 4096, true));
}

// --- transport recovery under plans ----------------------------------

namespace {

/** Run one faulty IB transfer; return (stats, order of recv wrIds). */
ib::QueuePair::Stats
runIbUnderPlan(std::uint64_t seed, std::vector<std::uint64_t> *order_out)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    // Cold receive buffers: drops + reordering + forced faults all
    // hammer the rNPF recovery machinery at once.
    FaultInjector inj(rig.eq,
                      mustParse("ib.rx:drop:rate=0.02;"
                                "ib.rx:reorder:rate=0.01,delay=50us;"
                                "npf:force:rate=0.002"),
                      seed);
    mem::VirtAddr sbuf = rig.asA.allocRegion(4 * MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(4 * MiB);
    rig.npfcA.prefault(rig.chA, sbuf, 4 * MiB, true);
    // rbuf stays cold on purpose.

    constexpr int kMsgs = 40;
    constexpr std::size_t kLen = 64 * 1024;
    std::vector<std::uint64_t> order;
    rig.qpB.onCompletion([&](const ib::Completion &c) {
        if (c.isRecv)
            order.push_back(c.wrId);
    });
    for (int i = 0; i < kMsgs; ++i)
        rig.qpB.postRecv({ib::Opcode::Send, rbuf + (i % 32) * kLen,
                          kLen, 0, std::uint64_t(i)});
    for (int i = 0; i < kMsgs; ++i)
        rig.qpA.postSend({ib::Opcode::Send, sbuf + (i % 32) * kLen,
                          kLen, 0, std::uint64_t(i)});

    bool done = rig.eq.runUntilCondition(
        [&] { return order.size() == kMsgs; }, 60 * sim::kSecond);
    EXPECT_TRUE(done) << "all messages recover and deliver";
    EXPECT_FALSE(rig.qpA.inError());
    if (order_out)
        *order_out = order;
    return rig.qpB.stats();
}

} // namespace

TEST(FaultIb, QpRecoversViaRnrNackAndPsnRewindUnderDropReorder)
{
    std::vector<std::uint64_t> order;
    ib::QueuePair::Stats sB = runIbUnderPlan(5, &order);
    // Delivery is exact and in order despite the plan.
    ASSERT_EQ(order.size(), 40u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    // The recovery machinery actually ran: cold buffers raise rNPFs
    // (RNR NACKs), and drops/reordering force PSN rewinds.
    EXPECT_GT(sB.recvNpfs, 0u);
    EXPECT_GT(sB.rnrNacksSent, 0u);
    EXPECT_GT(sB.dataPacketsDropped, 0u);
}

TEST(FaultIb, StaleRnrNackDoesNotStrandTheSender)
{
    // Regression: a receiver re-NACKs retries of the faulting PSN
    // while its rNPF is pending. With drops in the mix, such a NACK
    // can arrive after a later cumulative ack retired its PSN; the
    // sender used to rewind txPsn_ below ackedPsn_, where the RTO
    // rewind condition (txPsn_ > ackedPsn_) never fires and the
    // inflight entries are already popped — a permanent stall (and
    // an empty-optional dereference in transmitOne). This exact
    // plan+seed deadlocked at 25/64 messages before the fix.
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    FaultInjector inj(rig.eq,
                      mustParse("npf:force:rate=0.001;"
                                "ib.rx:drop:rate=0.01"),
                      1);
    mem::VirtAddr sbuf = rig.asA.allocRegion(4 * MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(4 * MiB);
    rig.npfcA.prefault(rig.chA, sbuf, 4 * MiB, true);

    constexpr int kMsgs = 64;
    constexpr std::size_t kLen = 64 * 1024;
    int delivered = 0;
    rig.qpB.onCompletion([&](const ib::Completion &c) {
        if (c.isRecv)
            ++delivered;
    });
    for (int i = 0; i < kMsgs; ++i)
        rig.qpB.postRecv({ib::Opcode::Send, rbuf + (i % 32) * kLen,
                          kLen, 0, std::uint64_t(i)});
    for (int i = 0; i < kMsgs; ++i)
        rig.qpA.postSend({ib::Opcode::Send, sbuf + (i % 32) * kLen,
                          kLen, 0, std::uint64_t(i)});

    bool done = rig.eq.runUntilCondition(
        [&] { return delivered == kMsgs; }, 60 * sim::kSecond);
    EXPECT_TRUE(done) << "sender stalled: delivered " << delivered << "/"
                      << kMsgs;
    EXPECT_EQ(delivered, kMsgs);
    EXPECT_FALSE(rig.qpA.inError());
}

TEST(FaultIb, SameSeedReplaysTheSameRun)
{
    std::vector<std::uint64_t> o1, o2;
    ib::QueuePair::Stats s1 = runIbUnderPlan(5, &o1);
    ib::QueuePair::Stats s2 = runIbUnderPlan(5, &o2);
    EXPECT_EQ(o1, o2);
    EXPECT_EQ(s1.dataPacketsSent, s2.dataPacketsSent);
    EXPECT_EQ(s1.dataPacketsDropped, s2.dataPacketsDropped);
    EXPECT_EQ(s1.rnrNacksSent, s2.rnrNacksSent);
    EXPECT_EQ(s1.retransmitted, s2.retransmitted);
}

namespace {

/** Two TCP endpoints over a 30us pipe, a fault plan in between. */
struct TcpFaultRun
{
    tcp::TcpConnection::Stats statsA;
    std::uint64_t delivered = 0;

    TcpFaultRun(const std::string &spec, std::uint64_t seed)
    {
        sim::EventQueue eq;
        FaultInjector inj(eq, mustParse(spec), seed);
        std::unique_ptr<tcp::TcpConnection> a, b;
        a = std::make_unique<tcp::TcpConnection>(
            eq, 1, [&](const tcp::Segment &s, mem::VirtAddr) {
                eq.scheduleAfter(30 * sim::kMicrosecond,
                                 [&, s] { b->receiveSegment(s); });
            });
        b = std::make_unique<tcp::TcpConnection>(
            eq, 1, [&](const tcp::Segment &s, mem::VirtAddr) {
                eq.scheduleAfter(30 * sim::kMicrosecond,
                                 [&, s] { a->receiveSegment(s); });
            });
        b->listen();
        a->connect([](bool) {});
        b->onDeliver([&](std::size_t n) { delivered += n; });
        a->send(1 << 20);
        eq.runUntilCondition([&] { return delivered == (1u << 20); },
                             120 * sim::kSecond);
        statsA = a->stats();
    }
};

} // namespace

TEST(FaultTcp, TransferSurvivesDropDupDelayPlan)
{
    TcpFaultRun r("tcp.rx:drop:rate=0.02;"
                  "tcp.rx:dup:rate=0.01;"
                  "tcp.rx:delay:rate=0.01,delay=200us",
                  11);
    EXPECT_EQ(r.delivered, 1u << 20) << "recovery is complete";
    EXPECT_GT(r.statsA.retransmissions, 0u);

    TcpFaultRun r2("tcp.rx:drop:rate=0.02;"
                   "tcp.rx:dup:rate=0.01;"
                   "tcp.rx:delay:rate=0.01,delay=200us",
                   11);
    EXPECT_EQ(r2.statsA.segmentsSent, r.statsA.segmentsSent);
    EXPECT_EQ(r2.statsA.retransmissions, r.statsA.retransmissions);
    EXPECT_EQ(r2.statsA.timeouts, r.statsA.timeouts);
}

TEST(FaultDeterminism, ClauseStreamsAreIndependent)
{
    // Adding a second clause on another site must not perturb the
    // first clause's pattern: each clause owns its own rng stream.
    const int kN = 400;
    LinkRun solo("link:drop:rate=0.1", 77, kN);
    sim::EventQueue eq;
    FaultInjector inj(eq,
                      mustParse("link:drop:rate=0.1;"
                                "tcp.rx:drop:rate=0.5"),
                      77);
    net::Link link(eq, net::LinkConfig{10e9, 500, 20});
    std::vector<int> arrivals;
    for (int i = 0; i < kN; ++i) {
        // Interleave tcp.rx polls between link sends.
        (void)inj.decide(Site::TcpRx);
        link.send(1000, [&arrivals, i] { arrivals.push_back(i); });
    }
    eq.run();
    EXPECT_EQ(arrivals, solo.arrivals);
}
