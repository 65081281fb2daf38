/**
 * @file
 * InfiniBand RC tests: reliable in-order delivery, RDMA read/write,
 * the rNPF handling of §4 (RNR NACK suspension, read-response
 * rewinds, sender-side stalls), reliability under synthetic fault
 * injection, and the equivalence of pointer- and record-connected
 * pairs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "fault/fault.hh"
#include "scenario/ib_world.hh"

using namespace npf;
using namespace npf::ib;

namespace {

constexpr std::size_t MiB = 1ull << 20;

bool
runFor(sim::EventQueue &eq, const std::function<bool()> &pred,
       sim::Time limit = 10 * sim::kSecond)
{
    return eq.runUntilCondition(pred, eq.now() + limit);
}

} // namespace

TEST(IbRc, SendRecvDeliversMessage)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(MiB);
    rig.npfcA.prefault(rig.chA, sbuf, 64 * 1024, true);
    rig.npfcB.prefault(rig.chB, rbuf, 64 * 1024, true);

    std::vector<Completion> recv_cqes, send_cqes;
    rig.qpB.onCompletion([&](const Completion &c) {
        (c.isRecv ? recv_cqes : send_cqes).push_back(c);
    });
    bool send_done = false;
    rig.qpA.onCompletion([&](const Completion &c) {
        if (!c.isRecv)
            send_done = true;
    });

    rig.qpB.postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 7});
    rig.qpA.postSend({Opcode::Send, sbuf, 64 * 1024, 0, 9});

    ASSERT_TRUE(
        runFor(rig.eq, [&] { return !recv_cqes.empty() && send_done; }));
    EXPECT_EQ(recv_cqes[0].wrId, 7u);
    EXPECT_EQ(recv_cqes[0].bytes, 64u * 1024);
    EXPECT_EQ(rig.qpB.stats().messagesDelivered, 1u);
    EXPECT_EQ(rig.qpA.stats().rnrNacksReceived, 0u);
}

TEST(IbRc, ManyMessagesArriveInOrder)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(MiB);
    rig.npfcA.prefault(rig.chA, sbuf, MiB, true);
    rig.npfcB.prefault(rig.chB, rbuf, MiB, true);

    std::vector<std::uint64_t> order;
    rig.qpB.onCompletion([&](const Completion &c) {
        if (c.isRecv)
            order.push_back(c.wrId);
    });
    constexpr int kMsgs = 50;
    for (int i = 0; i < kMsgs; ++i)
        rig.qpB.postRecv({Opcode::Send, rbuf, 8192, 0,
                          std::uint64_t(i)});
    for (int i = 0; i < kMsgs; ++i)
        rig.qpA.postSend({Opcode::Send, sbuf, 8192, 0,
                          std::uint64_t(i)});

    ASSERT_TRUE(runFor(rig.eq, [&] { return order.size() == kMsgs; }));
    for (int i = 0; i < kMsgs; ++i)
        EXPECT_EQ(order[i], std::uint64_t(i));
}

TEST(IbRc, ThroughputApproachesLineRate)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    mem::VirtAddr sbuf = rig.asA.allocRegion(8 * MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(8 * MiB);
    rig.npfcA.prefault(rig.chA, sbuf, 4 * MiB, true);
    rig.npfcB.prefault(rig.chB, rbuf, 4 * MiB, true);

    std::uint64_t delivered = 0;
    rig.qpB.onCompletion([&](const Completion &c) {
        if (c.isRecv) {
            ++delivered;
            rig.qpB.postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 0});
        }
    });
    constexpr std::uint64_t kMsgs = 400;
    for (int i = 0; i < 32; ++i)
        rig.qpB.postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 0});
    for (std::uint64_t i = 0; i < kMsgs; ++i)
        rig.qpA.postSend({Opcode::Send, sbuf, 64 * 1024, 0, i});

    sim::Time start = rig.eq.now();
    ASSERT_TRUE(runFor(rig.eq, [&] { return delivered == kMsgs; }));
    double secs = sim::toSeconds(rig.eq.now() - start);
    double gbps = double(kMsgs) * 64 * 1024 * 8 / secs / 1e9;
    EXPECT_GT(gbps, 40.0) << "should approach the 56 Gb/s line rate";
    EXPECT_LT(gbps, 56.0);
}

TEST(IbRc, RdmaWriteHitsRemoteMemory)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB);
    mem::VirtAddr target = rig.asB.allocRegion(MiB);
    rig.npfcA.prefault(rig.chA, sbuf, 256 * 1024, true);
    rig.npfcB.prefault(rig.chB, target, 256 * 1024, true);

    bool done = false;
    rig.qpA.onCompletion([&](const Completion &c) {
        if (!c.isRecv && c.wrId == 42)
            done = true;
    });
    rig.qpA.postSend({Opcode::RdmaWrite, sbuf, 256 * 1024, target, 42});
    ASSERT_TRUE(runFor(rig.eq, [&] { return done; }));
    EXPECT_EQ(rig.qpB.stats().messagesDelivered, 1u);
}

TEST(IbRc, RdmaReadPullsRemoteMemory)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    mem::VirtAddr local = rig.asA.allocRegion(MiB);
    mem::VirtAddr remote = rig.asB.allocRegion(MiB);
    rig.npfcA.prefault(rig.chA, local, 512 * 1024, true);
    rig.npfcB.prefault(rig.chB, remote, 512 * 1024, true);

    bool done = false;
    rig.qpA.onCompletion([&](const Completion &c) {
        if (!c.isRecv && c.wrId == 5) {
            done = true;
            EXPECT_EQ(c.bytes, 512u * 1024);
        }
    });
    rig.qpA.postSend({Opcode::RdmaRead, local, 512 * 1024, remote, 5});
    ASSERT_TRUE(runFor(rig.eq, [&] { return done; }));
}

TEST(IbRc, ColdReceiveBufferTriggersRnrNackAndRecovers)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(MiB); // cold: never touched
    rig.npfcA.prefault(rig.chA, sbuf, 64 * 1024, true);

    bool done = false;
    rig.qpB.onCompletion([&](const Completion &c) {
        if (c.isRecv)
            done = true;
    });
    rig.qpB.postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 1});
    rig.qpA.postSend({Opcode::Send, sbuf, 64 * 1024, 0, 1});

    ASSERT_TRUE(runFor(rig.eq, [&] { return done; }));
    EXPECT_GT(rig.qpB.stats().recvNpfs, 0u);
    EXPECT_GT(rig.qpB.stats().rnrNacksSent, 0u);
    EXPECT_GT(rig.qpA.stats().rnrNacksReceived, 0u);
    EXPECT_GT(rig.qpA.stats().retransmitted, 0u)
        << "data dropped before the RNR NACK arrived is retransmitted";
    EXPECT_EQ(rig.qpB.stats().messagesDelivered, 1u);
}

TEST(IbRc, ColdSendBufferStallsSenderLocally)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB); // CPU-cold too
    mem::VirtAddr rbuf = rig.asB.allocRegion(MiB);
    rig.npfcB.prefault(rig.chB, rbuf, 64 * 1024, true);

    bool done = false;
    rig.qpB.onCompletion([&](const Completion &c) {
        if (c.isRecv)
            done = true;
    });
    rig.qpB.postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 1});
    rig.qpA.postSend({Opcode::Send, sbuf, 64 * 1024, 0, 1});

    ASSERT_TRUE(runFor(rig.eq, [&] { return done; }));
    EXPECT_GT(rig.qpA.stats().sendNpfs, 0u);
    // Local fault: no RNR traffic, no packet loss.
    EXPECT_EQ(rig.qpB.stats().rnrNacksSent, 0u);
    EXPECT_EQ(rig.qpB.stats().dataPacketsDropped, 0u);
}

TEST(IbRc, ColdReadInitiatorBufferUsesRewindNotRnr)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    mem::VirtAddr local = rig.asA.allocRegion(MiB); // cold target
    mem::VirtAddr remote = rig.asB.allocRegion(MiB);
    rig.npfcB.prefault(rig.chB, remote, 256 * 1024, true);

    bool done = false;
    rig.qpA.onCompletion([&](const Completion &c) {
        if (!c.isRecv)
            done = true;
    });
    rig.qpA.postSend({Opcode::RdmaRead, local, 256 * 1024, remote, 3});
    ASSERT_TRUE(runFor(rig.eq, [&] { return done; }));
    EXPECT_GT(rig.qpA.stats().recvNpfs, 0u);
    EXPECT_GT(rig.qpA.stats().nakSeqSent, 0u)
        << "read responses recover by rewind, not RNR (§4)";
    EXPECT_GT(rig.qpA.stats().dataPacketsDropped, 0u)
        << "all response packets drop until the fault resolves";
}

TEST(IbRc, SyntheticReadRnpfRecoversByRewind)
{
    // §6.4 what-if on an RDMA Read response stream: the initiator's
    // buffer is warm, so every rNPF is a synthetic one, and each is
    // recovered by a NAK-sequence rewind once its latency has passed.
    QpConfig qcfg;
    qcfg.syntheticRnpfProb = 0.05;
    sim::EventQueue eq;
    scenario::RcPair rig(eq, {.qp = qcfg});
    mem::VirtAddr local = rig.asA.allocRegion(MiB);
    mem::VirtAddr remote = rig.asB.allocRegion(MiB);
    rig.npfcA.prefault(rig.chA, local, 256 * 1024, true);
    rig.npfcB.prefault(rig.chB, remote, 256 * 1024, true);

    int completions = 0;
    rig.qpA.onCompletion([&](const Completion &c) {
        if (!c.isRecv && c.wrId == 4) {
            ++completions;
            EXPECT_TRUE(c.ok);
            EXPECT_EQ(c.bytes, 256u * 1024);
        }
    });
    rig.qpA.postSend({Opcode::RdmaRead, local, 256 * 1024, remote, 4});
    ASSERT_TRUE(runFor(rig.eq, [&] { return completions > 0; }));
    rig.eq.runUntil(rig.eq.now() + sim::kSecond);
    EXPECT_EQ(completions, 1) << "the read completes exactly once";
    EXPECT_GT(rig.qpA.stats().recvNpfs, 0u);
    EXPECT_GT(rig.qpA.stats().nakSeqSent, 0u)
        << "a synthetic read rNPF recovers by rewind";
}

/** Property sweep: reliability must hold at any injection rate. */
class IbFaultInjection : public ::testing::TestWithParam<double>
{
};

TEST_P(IbFaultInjection, AllMessagesDeliveredInOrderUnderFaults)
{
    QpConfig qcfg;
    qcfg.syntheticRnpfProb = GetParam();
    sim::EventQueue eq;
    scenario::RcPair rig(eq, {.qp = qcfg});
    mem::VirtAddr sbuf = rig.asA.allocRegion(4 * MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(4 * MiB);
    rig.npfcA.prefault(rig.chA, sbuf, 4 * MiB, true);
    rig.npfcB.prefault(rig.chB, rbuf, 4 * MiB, true);

    std::vector<std::uint64_t> order;
    rig.qpB.onCompletion([&](const Completion &c) {
        if (c.isRecv)
            order.push_back(c.wrId);
    });
    constexpr int kMsgs = 60;
    for (int i = 0; i < kMsgs; ++i)
        rig.qpB.postRecv({Opcode::Send, rbuf, 32 * 1024, 0,
                          std::uint64_t(i)});
    for (int i = 0; i < kMsgs; ++i)
        rig.qpA.postSend({Opcode::Send, sbuf, 32 * 1024, 0,
                          std::uint64_t(i)});

    ASSERT_TRUE(runFor(rig.eq, [&] { return order.size() == kMsgs; },
                       60 * sim::kSecond))
        << "injection rate " << GetParam();
    for (int i = 0; i < kMsgs; ++i)
        ASSERT_EQ(order[i], std::uint64_t(i));
    if (GetParam() > 0.0) {
        EXPECT_GT(rig.qpB.stats().recvNpfs, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, IbFaultInjection,
                         ::testing::Values(0.0, 0.001, 0.01, 0.05, 0.2));

// --- pointer- vs record-connected pairs ----------------------------------
// connectRemote() moves a pair's packets from delivery closures to the
// record plane. Both planes share the wire model, the fault dice and
// the hop structure, so everything the pair observes must be the same;
// only the event count differs (the record plane has no separate
// uplink-arrival event: two events per packet instead of three).

namespace {

/** scenario::RcPair at its defaults, but record-wired. */
struct RecordPair
{
    sim::EventQueue &eq;
    net::Fabric fabric;
    mem::MemoryManager mmA, mmB;
    mem::AddressSpace &asA, &asB;
    core::NpfController npfcA, npfcB;
    core::ChannelId chA, chB;
    QueuePair qpA, qpB;

    explicit RecordPair(sim::EventQueue &q)
        : eq(q), fabric(eq, 2, net::kFdrFabric), mmA(1ull << 30),
          mmB(1ull << 30), asA(mmA.createAddressSpace("a")),
          asB(mmB.createAddressSpace("b")), npfcA(eq), npfcB(eq),
          chA(npfcA.attach(asA)), chB(npfcB.attach(asB)),
          qpA(eq, fabric, 0, npfcA, chA, {}, 1),
          qpB(eq, fabric, 1, npfcB, chB, {}, 2)
    {
        qpA.connectRemote(1, /*my_kind=*/0, /*peer_kind=*/1);
        qpB.connectRemote(0, /*my_kind=*/1, /*peer_kind=*/0);
    }
};

/** Everything one WR stream lets the two QPs observe. */
struct StreamRun
{
    /** (side, wrId, ok, isRecv, bytes, at) per completion, in order. */
    std::vector<std::tuple<char, std::uint64_t, bool, bool, std::size_t,
                           sim::Time>>
        completions;
    QueuePair::Stats statsA, statsB;
    std::uint64_t events = 0;
    std::uint64_t uplinkPackets = 0;
};

std::vector<std::uint64_t>
statWords(const QueuePair::Stats &s)
{
    return {s.dataPacketsSent,  s.dataPacketsDelivered,
            s.dataPacketsDropped, s.retransmitted,
            s.rnrNacksSent,     s.rnrNacksReceived,
            s.nakSeqSent,       s.readRnrSent,
            s.readRnrReceived,  s.rewinds,
            s.sendNpfs,         s.recvNpfs,
            s.messagesDelivered, s.bytesDelivered,
            s.cnpsSent,         s.cnpsReceived};
}

/**
 * 32 Sends of 16-19 KB into receive buffers that are CPU-present but
 * IOMMU-cold (so the first packets of each draw RNR NACKs), then
 * 8 RDMA Writes and 8 RDMA Reads, under fault plan @p plan ("" for
 * none), run until the event queue drains.
 */
template <class Pair>
StreamRun
runStream(const std::string &plan)
{
    constexpr int kSends = 32, kWrites = 8, kReads = 8;
    constexpr std::size_t kSlot = 32 * 1024;
    sim::EventQueue eq;
    Pair rig(eq);
    std::optional<fault::FaultInjector> inj;
    if (!plan.empty()) {
        std::string err;
        auto p = fault::FaultPlan::parse(plan, &err);
        EXPECT_TRUE(p.has_value()) << err;
        inj.emplace(rig.eq, *p, 11);
    }
    mem::VirtAddr sbuf = rig.asA.allocRegion(4 * MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(4 * MiB);
    mem::VirtAddr remote = rig.asB.allocRegion(4 * MiB);
    rig.npfcA.prefault(rig.chA, sbuf, 4 * MiB, true);
    rig.asB.touch(rbuf, kSends * kSlot, true); // CPU-present only
    rig.npfcB.prefault(rig.chB, remote, 4 * MiB, true);

    StreamRun run;
    auto record = [&run](char side) {
        return [&run, side](const Completion &c) {
            run.completions.emplace_back(side, c.wrId, c.ok, c.isRecv,
                                         c.bytes, c.at);
        };
    };
    rig.qpA.onCompletion(record('A'));
    rig.qpB.onCompletion(record('B'));

    for (int i = 0; i < kSends; ++i)
        rig.qpB.postRecv({Opcode::Send, rbuf + i * kSlot, kSlot, 0,
                          std::uint64_t(100 + i)});
    for (int i = 0; i < kSends; ++i)
        rig.qpA.postSend({Opcode::Send, sbuf + i * kSlot,
                          16 * 1024 + std::size_t(i % 4) * 1024, 0,
                           std::uint64_t(i)});
    for (int i = 0; i < kWrites; ++i)
        rig.qpA.postSend({Opcode::RdmaWrite, sbuf + i * kSlot, 16 * 1024,
                          remote + i * kSlot, std::uint64_t(200 + i)});
    for (int i = 0; i < kReads; ++i)
        rig.qpA.postSend({Opcode::RdmaRead,
                          sbuf + (kSends + i) * kSlot, 16 * 1024,
                           remote + (kWrites + i) * kSlot,
                           std::uint64_t(300 + i)});
    rig.eq.run();

    run.statsA = rig.qpA.stats();
    run.statsB = rig.qpB.stats();
    run.events = rig.eq.stats().executed;
    run.uplinkPackets = rig.fabric.uplink(0).stats().packets +
                        rig.fabric.uplink(1).stats().packets;
    EXPECT_GT(run.statsB.rnrNacksSent, 0u);
    return run;
}

/** Every WR of runStream's stream: each Send completes on both sides. */
constexpr std::size_t kStreamCompletions = 2 * 32 + 8 + 8;

} // namespace

TEST(IbRc, RecordPlanePairObservesWhatAPointerPairDoes)
{
    const std::string kPlans[] = {"",
                                  "link:drop:rate=0.02",
                                  "link:dup:rate=0.05",
                                  "link:delay:rate=0.05,delay=3us",
                                  "link:reorder:rate=0.05,delay=2us"};
    for (const std::string &plan : kPlans) {
        SCOPED_TRACE(plan.empty() ? "fault-free" : plan);
        StreamRun ptr = runStream<scenario::RcPair>(plan);
        StreamRun rec = runStream<RecordPair>(plan);
        EXPECT_EQ(ptr.completions, rec.completions);
        EXPECT_EQ(statWords(ptr.statsA), statWords(rec.statsA));
        EXPECT_EQ(statWords(ptr.statsB), statWords(rec.statsB));
        EXPECT_EQ(ptr.uplinkPackets, rec.uplinkPackets);
        EXPECT_EQ(ptr.completions.size(), kStreamCompletions);
        if (plan.empty()) {
            // Three events per packet on the closure plane (uplink
            // arrival, switch, downlink arrival), two on the record
            // plane (switch, rx).
            EXPECT_GT(ptr.uplinkPackets, 0u);
            EXPECT_EQ(ptr.events - rec.events, ptr.uplinkPackets);
        }
    }
}

TEST(IbRc, ReadsCompleteWhenTheWireLosesOrDelaysResponses)
{
    // A lost, late or overtaken read response must not stall the Read
    // (and every later one on the QP) once its request is acked: the
    // initiator times the response stream and asks for a rewind.
    for (const char *plan : {"link:drop:rate=0.02",
                             "link:delay:rate=0.05,delay=3us",
                             "link:reorder:rate=0.05,delay=2us"}) {
        SCOPED_TRACE(plan);
        for (const StreamRun &run : {runStream<scenario::RcPair>(plan),
                                     runStream<RecordPair>(plan)}) {
            ASSERT_EQ(run.completions.size(), kStreamCompletions);
            for (const auto &c : run.completions)
                EXPECT_TRUE(std::get<2>(c)) << "wrId " << std::get<1>(c);
            std::size_t reads = std::count_if(
                run.completions.begin(), run.completions.end(),
                [](const auto &c) { return std::get<1>(c) >= 300; });
            EXPECT_EQ(reads, 8u);
        }
    }
}
