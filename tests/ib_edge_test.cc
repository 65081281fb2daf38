/**
 * @file
 * InfiniBand edge cases: the classic no-WQE RNR, RNR retry
 * exhaustion, multiple QPs sharing one IOchannel, the read-RNR
 * extension's retry path, and mixed op streams under faults.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "scenario/ib_world.hh"

using namespace npf;
using namespace npf::ib;

namespace {

constexpr std::size_t MiB = 1ull << 20;

} // namespace

TEST(IbEdge, MissingRecvWqeTriggersClassicRnr)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    mem::VirtAddr sbuf = rig.asA.allocRegion(64 * 1024);
    rig.npfcA.prefault(rig.chA, sbuf, 64 * 1024, true);
    mem::VirtAddr rbuf = rig.asB.allocRegion(64 * 1024);
    rig.npfcB.prefault(rig.chB, rbuf, 64 * 1024, true);

    bool delivered = false;
    rig.qpB.onCompletion([&](const Completion &c) {
        if (c.isRecv)
            delivered = true;
    });
    // Send with NO receive WQE posted.
    rig.qpA.postSend({Opcode::Send, sbuf, 64 * 1024, 0, 1});
    rig.eq.runUntil(rig.eq.now() + 2 * sim::kMillisecond);
    EXPECT_FALSE(delivered);
    EXPECT_GT(rig.qpB.stats().rnrNacksSent, 0u)
        << "no WQE is the original RNR case";
    // Post the WQE: the suspended sender retries and completes.
    rig.qpB.postRecv({Opcode::Send, rbuf, 64 * 1024, 0, 9});
    ASSERT_TRUE(rig.eq.runUntilCondition([&] { return delivered; },
                                         rig.eq.now() +
                                             10 * sim::kSecond));
}

TEST(IbEdge, RnrRetryExhaustionErrorsTheQueue)
{
    QpConfig cfg;
    cfg.rnrRetryLimit = 3;
    sim::EventQueue eq;
    scenario::RcPair rig(eq, {.qp = cfg});
    mem::VirtAddr sbuf = rig.asA.allocRegion(4096);
    rig.npfcA.prefault(rig.chA, sbuf, 4096, true);

    std::vector<bool> results;
    rig.qpA.onCompletion([&](const Completion &c) {
        if (!c.isRecv)
            results.push_back(c.ok);
    });
    // Never post a receive WQE: RNR retries must run out.
    rig.qpA.postSend({Opcode::Send, sbuf, 4096, 0, 1});
    rig.qpA.postSend({Opcode::Send, sbuf, 4096, 0, 2}); // also flushed
    rig.eq.run();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0]) << "flush with error after retry limit";
    EXPECT_FALSE(results[1]);
    EXPECT_TRUE(rig.qpA.inError());
    // A post after the error is flushed immediately, and the event
    // queue still drains (no live transmit machinery).
    rig.qpA.postSend({Opcode::Send, sbuf, 4096, 0, 3});
    rig.eq.run();
    EXPECT_EQ(results.size(), 2u)
        << "posts to an errored QP are silently dropped in this model";
}

TEST(IbEdge, MultipleQpsShareOneChannel)
{
    // One IOuser, one IOMMU channel, several connections — faults on
    // one QP warm pages the other QP then uses without faulting.
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    auto qpA2 = std::make_unique<QueuePair>(rig.eq, rig.fabric, 0,
                                            rig.npfcA, rig.chA,
                                            QpConfig{}, 11);
    auto qpB2 = std::make_unique<QueuePair>(rig.eq, rig.fabric, 1,
                                            rig.npfcB, rig.chB,
                                            QpConfig{}, 12);
    qpA2->connect(*qpB2);
    qpB2->connect(*qpA2);

    mem::VirtAddr sbuf = rig.asA.allocRegion(MiB);
    rig.asA.touch(sbuf, MiB, true);
    mem::VirtAddr rbuf = rig.asB.allocRegion(MiB); // cold, shared

    int recvs = 0;
    auto count = [&](const Completion &c) {
        if (c.isRecv)
            ++recvs;
    };
    rig.qpB.onCompletion(count);
    qpB2->onCompletion(count);

    rig.qpB.postRecv({Opcode::Send, rbuf, 256 * 1024, 0, 1});
    rig.qpA.postSend({Opcode::Send, sbuf, 256 * 1024, 0, 1});
    ASSERT_TRUE(rig.eq.runUntilCondition([&] { return recvs == 1; },
                                         10 * sim::kSecond));
    std::uint64_t faults_before = rig.npfcB.stats().npfs;
    // Second QP writes into the same (now warm) buffer region.
    qpB2->postRecv({Opcode::Send, rbuf, 256 * 1024, 0, 2});
    qpA2->postSend({Opcode::Send, sbuf, 256 * 1024, 0, 2});
    ASSERT_TRUE(rig.eq.runUntilCondition([&] { return recvs == 2; },
                                         rig.eq.now() +
                                             10 * sim::kSecond));
    EXPECT_EQ(rig.npfcB.stats().npfs, faults_before)
        << "the channel's IOMMU is shared: no re-faulting";
}

TEST(IbEdge, ReadRnrExtensionRetriesUntilResolved)
{
    QpConfig cfg;
    cfg.readRnrExtension = true;
    sim::EventQueue eq;
    scenario::RcPair rig(eq, {.qp = cfg});
    mem::VirtAddr remote = rig.asB.allocRegion(MiB);
    rig.npfcB.prefault(rig.chB, remote, MiB, true);
    mem::VirtAddr local = rig.asA.allocRegion(MiB); // cold target

    bool done = false;
    rig.qpA.onCompletion([&](const Completion &c) {
        if (!c.isRecv)
            done = true;
    });
    rig.qpA.postSend({Opcode::RdmaRead, local, MiB, remote, 1});
    ASSERT_TRUE(rig.eq.runUntilCondition([&] { return done; },
                                         10 * sim::kSecond));
    EXPECT_GT(rig.qpA.stats().readRnrSent, 0u);
    EXPECT_GT(rig.qpB.stats().readRnrReceived, 0u);
    EXPECT_EQ(rig.qpA.stats().nakSeqSent, 0u)
        << "extension path replaces the rewind protocol";
}

TEST(IbEdge, MixedOpStreamUnderFaultsStaysConsistent)
{
    sim::EventQueue eq;
    scenario::RcPair rig(eq);
    mem::VirtAddr a_mem = rig.asA.allocRegion(8 * MiB);
    mem::VirtAddr b_mem = rig.asB.allocRegion(8 * MiB);
    rig.asA.touch(a_mem, 8 * MiB, true);
    rig.asB.touch(b_mem, 8 * MiB, true); // CPU-warm, IOMMU-cold

    int sends_done = 0, recvs_done = 0, writes_done = 0, reads_done = 0;
    rig.qpA.onCompletion([&](const Completion &c) {
        if (c.isRecv)
            return;
        ASSERT_TRUE(c.ok);
        if (c.wrId < 100)
            ++sends_done;
        else if (c.wrId < 200)
            ++writes_done;
        else
            ++reads_done;
    });
    rig.qpB.onCompletion([&](const Completion &c) {
        if (c.isRecv)
            ++recvs_done;
    });

    for (std::uint64_t i = 0; i < 10; ++i)
        rig.qpB.postRecv({Opcode::Send, b_mem + i * 64 * 1024,
                          64 * 1024, 0, i});
    for (std::uint64_t i = 0; i < 10; ++i) {
        rig.qpA.postSend({Opcode::Send, a_mem + i * 64 * 1024,
                          64 * 1024, 0, i});
        rig.qpA.postSend({Opcode::RdmaWrite, a_mem, 32 * 1024,
                          b_mem + MiB + i * 64 * 1024, 100 + i});
        rig.qpA.postSend({Opcode::RdmaRead, a_mem + 2 * MiB + i * 64 * 1024,
                          64 * 1024, b_mem + 4 * MiB, 200 + i});
    }
    ASSERT_TRUE(rig.eq.runUntilCondition(
        [&] {
            return sends_done == 10 && recvs_done == 10 &&
                   writes_done == 10 && reads_done == 10;
        },
        60 * sim::kSecond))
        << sends_done << " " << recvs_done << " " << writes_done << " "
        << reads_done;
}
