/**
 * @file
 * InfiniBand RC tests: reliable in-order delivery, RDMA read/write,
 * the rNPF handling of §4 (RNR NACK suspension, read-response
 * rewinds, sender-side stalls), and reliability under synthetic
 * fault injection.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/npf_controller.hh"
#include "ib/queue_pair.hh"
#include "mem/memory_manager.hh"
#include "net/fabric.hh"

using namespace npf;
using namespace npf::ib;

namespace {

constexpr std::size_t MiB = 1ull << 20;

/** Two-node IB rig with independent hosts. */
struct IbRig
{
    sim::EventQueue eq;
    net::Fabric fabric;
    mem::MemoryManager mmA, mmB;
    mem::AddressSpace &asA, &asB;
    core::NpfController npfcA, npfcB;
    core::ChannelId chA, chB;
    std::unique_ptr<QueuePair> qpA, qpB;

    explicit IbRig(QpConfig qcfg = {},
                   std::size_t mem_bytes = 256 * MiB)
        : fabric(eq, 2,
                 net::FabricConfig{net::LinkConfig{56e9, 300, 32}, 200}),
          mmA(mem_bytes), mmB(mem_bytes),
          asA(mmA.createAddressSpace("A")),
          asB(mmB.createAddressSpace("B")), npfcA(eq), npfcB(eq),
          chA(npfcA.attach(asA)), chB(npfcB.attach(asB))
    {
        qpA = std::make_unique<QueuePair>(eq, fabric, 0, npfcA, chA, qcfg,
                                          1);
        qpB = std::make_unique<QueuePair>(eq, fabric, 1, npfcB, chB, qcfg,
                                          2);
        qpA->connect(*qpB);
        qpB->connect(*qpA);
    }

    /** Warm a buffer: CPU-present and IOMMU-mapped. */
    void
    warm(core::NpfController &n, core::ChannelId ch, mem::VirtAddr a,
         std::size_t len)
    {
        n.prefault(ch, a, len, true);
    }

    bool
    runUntil(const std::function<bool()> &pred,
             sim::Time limit = 10 * sim::kSecond)
    {
        return eq.runUntilCondition(pred, eq.now() + limit);
    }
};

} // namespace

TEST(IbRc, SendRecvDeliversMessage)
{
    IbRig rig;
    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(MiB);
    rig.warm(rig.npfcA, rig.chA, sbuf, 64 * 1024);
    rig.warm(rig.npfcB, rig.chB, rbuf, 64 * 1024);

    std::vector<Completion> recv_cqes, send_cqes;
    rig.qpB->onCompletion([&](const Completion &c) {
        (c.isRecv ? recv_cqes : send_cqes).push_back(c);
    });
    bool send_done = false;
    rig.qpA->onCompletion([&](const Completion &c) {
        if (!c.isRecv)
            send_done = true;
    });

    rig.qpB->postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 7});
    rig.qpA->postSend({Opcode::Send, sbuf, 64 * 1024, 0, 9});

    ASSERT_TRUE(rig.runUntil([&] { return !recv_cqes.empty() &&
                                          send_done; }));
    EXPECT_EQ(recv_cqes[0].wrId, 7u);
    EXPECT_EQ(recv_cqes[0].bytes, 64u * 1024);
    EXPECT_EQ(rig.qpB->stats().messagesDelivered, 1u);
    EXPECT_EQ(rig.qpA->stats().rnrNacksReceived, 0u);
}

TEST(IbRc, ManyMessagesArriveInOrder)
{
    IbRig rig;
    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(MiB);
    rig.warm(rig.npfcA, rig.chA, sbuf, MiB);
    rig.warm(rig.npfcB, rig.chB, rbuf, MiB);

    std::vector<std::uint64_t> order;
    rig.qpB->onCompletion([&](const Completion &c) {
        if (c.isRecv)
            order.push_back(c.wrId);
    });
    constexpr int kMsgs = 50;
    for (int i = 0; i < kMsgs; ++i)
        rig.qpB->postRecv({Opcode::Send, rbuf, 8192, 0,
                           std::uint64_t(i)});
    for (int i = 0; i < kMsgs; ++i)
        rig.qpA->postSend({Opcode::Send, sbuf, 8192, 0,
                           std::uint64_t(i)});

    ASSERT_TRUE(rig.runUntil([&] { return order.size() == kMsgs; }));
    for (int i = 0; i < kMsgs; ++i)
        EXPECT_EQ(order[i], std::uint64_t(i));
}

TEST(IbRc, ThroughputApproachesLineRate)
{
    IbRig rig;
    mem::VirtAddr sbuf = rig.asA.allocRegion(8 * MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(8 * MiB);
    rig.warm(rig.npfcA, rig.chA, sbuf, 4 * MiB);
    rig.warm(rig.npfcB, rig.chB, rbuf, 4 * MiB);

    std::uint64_t delivered = 0;
    rig.qpB->onCompletion([&](const Completion &c) {
        if (c.isRecv) {
            ++delivered;
            rig.qpB->postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 0});
        }
    });
    constexpr std::uint64_t kMsgs = 400;
    for (int i = 0; i < 32; ++i)
        rig.qpB->postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 0});
    for (std::uint64_t i = 0; i < kMsgs; ++i)
        rig.qpA->postSend({Opcode::Send, sbuf, 64 * 1024, 0, i});

    sim::Time start = rig.eq.now();
    ASSERT_TRUE(rig.runUntil([&] { return delivered == kMsgs; }));
    double secs = sim::toSeconds(rig.eq.now() - start);
    double gbps = double(kMsgs) * 64 * 1024 * 8 / secs / 1e9;
    EXPECT_GT(gbps, 40.0) << "should approach the 56 Gb/s line rate";
    EXPECT_LT(gbps, 56.0);
}

TEST(IbRc, RdmaWriteHitsRemoteMemory)
{
    IbRig rig;
    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB);
    mem::VirtAddr target = rig.asB.allocRegion(MiB);
    rig.warm(rig.npfcA, rig.chA, sbuf, 256 * 1024);
    rig.warm(rig.npfcB, rig.chB, target, 256 * 1024);

    bool done = false;
    rig.qpA->onCompletion([&](const Completion &c) {
        if (!c.isRecv && c.wrId == 42)
            done = true;
    });
    rig.qpA->postSend({Opcode::RdmaWrite, sbuf, 256 * 1024, target, 42});
    ASSERT_TRUE(rig.runUntil([&] { return done; }));
    EXPECT_EQ(rig.qpB->stats().messagesDelivered, 1u);
}

TEST(IbRc, RdmaReadPullsRemoteMemory)
{
    IbRig rig;
    mem::VirtAddr local = rig.asA.allocRegion(MiB);
    mem::VirtAddr remote = rig.asB.allocRegion(MiB);
    rig.warm(rig.npfcA, rig.chA, local, 512 * 1024);
    rig.warm(rig.npfcB, rig.chB, remote, 512 * 1024);

    bool done = false;
    rig.qpA->onCompletion([&](const Completion &c) {
        if (!c.isRecv && c.wrId == 5) {
            done = true;
            EXPECT_EQ(c.bytes, 512u * 1024);
        }
    });
    rig.qpA->postSend({Opcode::RdmaRead, local, 512 * 1024, remote, 5});
    ASSERT_TRUE(rig.runUntil([&] { return done; }));
}

TEST(IbRc, ColdReceiveBufferTriggersRnrNackAndRecovers)
{
    IbRig rig;
    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(MiB); // cold: never touched
    rig.warm(rig.npfcA, rig.chA, sbuf, 64 * 1024);

    bool done = false;
    rig.qpB->onCompletion([&](const Completion &c) {
        if (c.isRecv)
            done = true;
    });
    rig.qpB->postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 1});
    rig.qpA->postSend({Opcode::Send, sbuf, 64 * 1024, 0, 1});

    ASSERT_TRUE(rig.runUntil([&] { return done; }));
    EXPECT_GT(rig.qpB->stats().recvNpfs, 0u);
    EXPECT_GT(rig.qpB->stats().rnrNacksSent, 0u);
    EXPECT_GT(rig.qpA->stats().rnrNacksReceived, 0u);
    EXPECT_GT(rig.qpA->stats().retransmitted, 0u)
        << "data dropped before the RNR NACK arrived is retransmitted";
    EXPECT_EQ(rig.qpB->stats().messagesDelivered, 1u);
}

TEST(IbRc, ColdSendBufferStallsSenderLocally)
{
    IbRig rig;
    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB); // CPU-cold too
    mem::VirtAddr rbuf = rig.asB.allocRegion(MiB);
    rig.warm(rig.npfcB, rig.chB, rbuf, 64 * 1024);

    bool done = false;
    rig.qpB->onCompletion([&](const Completion &c) {
        if (c.isRecv)
            done = true;
    });
    rig.qpB->postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 1});
    rig.qpA->postSend({Opcode::Send, sbuf, 64 * 1024, 0, 1});

    ASSERT_TRUE(rig.runUntil([&] { return done; }));
    EXPECT_GT(rig.qpA->stats().sendNpfs, 0u);
    // Local fault: no RNR traffic, no packet loss.
    EXPECT_EQ(rig.qpB->stats().rnrNacksSent, 0u);
    EXPECT_EQ(rig.qpB->stats().dataPacketsDropped, 0u);
}

TEST(IbRc, ColdReadInitiatorBufferUsesRewindNotRnr)
{
    IbRig rig;
    mem::VirtAddr local = rig.asA.allocRegion(MiB); // cold target
    mem::VirtAddr remote = rig.asB.allocRegion(MiB);
    rig.warm(rig.npfcB, rig.chB, remote, 256 * 1024);

    bool done = false;
    rig.qpA->onCompletion([&](const Completion &c) {
        if (!c.isRecv)
            done = true;
    });
    rig.qpA->postSend({Opcode::RdmaRead, local, 256 * 1024, remote, 3});
    ASSERT_TRUE(rig.runUntil([&] { return done; }));
    EXPECT_GT(rig.qpA->stats().recvNpfs, 0u);
    EXPECT_GT(rig.qpA->stats().nakSeqSent, 0u)
        << "read responses recover by rewind, not RNR (§4)";
    EXPECT_GT(rig.qpA->stats().dataPacketsDropped, 0u)
        << "all response packets drop until the fault resolves";
}

/** Property sweep: reliability must hold at any injection rate. */
class IbFaultInjection : public ::testing::TestWithParam<double>
{
};

TEST_P(IbFaultInjection, AllMessagesDeliveredInOrderUnderFaults)
{
    QpConfig qcfg;
    qcfg.syntheticRnpfProb = GetParam();
    IbRig rig(qcfg);
    mem::VirtAddr sbuf = rig.asA.allocRegion(4 * MiB);
    mem::VirtAddr rbuf = rig.asB.allocRegion(4 * MiB);
    rig.warm(rig.npfcA, rig.chA, sbuf, 4 * MiB);
    rig.warm(rig.npfcB, rig.chB, rbuf, 4 * MiB);

    std::vector<std::uint64_t> order;
    rig.qpB->onCompletion([&](const Completion &c) {
        if (c.isRecv)
            order.push_back(c.wrId);
    });
    constexpr int kMsgs = 60;
    for (int i = 0; i < kMsgs; ++i)
        rig.qpB->postRecv({Opcode::Send, rbuf, 32 * 1024, 0,
                           std::uint64_t(i)});
    for (int i = 0; i < kMsgs; ++i)
        rig.qpA->postSend({Opcode::Send, sbuf, 32 * 1024, 0,
                           std::uint64_t(i)});

    ASSERT_TRUE(rig.runUntil([&] { return order.size() == kMsgs; },
                             60 * sim::kSecond))
        << "injection rate " << GetParam();
    for (int i = 0; i < kMsgs; ++i)
        ASSERT_EQ(order[i], std::uint64_t(i));
    if (GetParam() > 0.0) {
        EXPECT_GT(rig.qpB->stats().recvNpfs, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, IbFaultInjection,
                         ::testing::Values(0.0, 0.001, 0.01, 0.05, 0.2));
