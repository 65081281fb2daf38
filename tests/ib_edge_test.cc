/**
 * @file
 * InfiniBand edge cases: the classic no-WQE RNR, RNR retry
 * exhaustion, multiple QPs sharing one IOchannel, the read-RNR
 * extension's retry path, and mixed op streams under faults.
 */

#include <gtest/gtest.h>

#include <map>
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

    // One completion per wrId; every one of them must be an error.
    std::map<std::uint64_t, std::vector<bool>> results;
    rig.qpA.onCompletion([&](const Completion &c) {
        if (!c.isRecv)
            results[c.wrId].push_back(c.ok);
    });
    // Never post a receive WQE: RNR retries must run out. Post past the
    // send window, so the error flushes WRs still in flight and WRs
    // still waiting in the send queue.
    const std::uint64_t kWrs = kQp.maxOutstandingWrs + 4;
    for (std::uint64_t id = 1; id <= kWrs; ++id)
        rig.qpA.postSend({Opcode::Send, sbuf, 4096, 0, id});
    rig.eq.run();
    ASSERT_EQ(results.size(), kWrs);
    for (std::uint64_t id = 1; id <= kWrs; ++id) {
        ASSERT_EQ(results[id].size(), 1u) << "wr " << id;
        EXPECT_FALSE(results[id][0])
            << "wr " << id << " flushed with error after retry limit";
    }
    EXPECT_TRUE(rig.qpA.inError());
    // A post after the error is flushed with an error completion one
    // zero-delay event later, and the event queue still drains (no
    // live transmit machinery).
    const sim::Time errored = rig.eq.now();
    rig.qpA.postSend({Opcode::Send, sbuf, 4096, 0, kWrs + 1});
    EXPECT_EQ(results.count(kWrs + 1), 0u) << "not inside the post";
    rig.eq.run();
    ASSERT_EQ(results.size(), kWrs + 1);
    EXPECT_EQ(results[kWrs + 1], std::vector<bool>{false});
    EXPECT_EQ(rig.eq.now(), errored);
}

TEST(IbEdge, RepostingHandlerDrainsAfterRnrExhaustion)
{
    // scenario::StreamWorld's shape: every send completion re-posts
    // one more WR, until a failed one says the QP is in error. The
    // receiver posts a few WQEs up front and never again, so the
    // sender streams until RNR retries run out.
    QpConfig cfg;
    cfg.rnrRetryLimit = 3;
    sim::EventQueue eq;
    scenario::RcPair rig(eq, {.qp = cfg});
    mem::VirtAddr sbuf = rig.asA.allocRegion(4096);
    rig.npfcA.prefault(rig.chA, sbuf, 4096, true);
    constexpr unsigned kRecvs = 3;
    mem::VirtAddr rbuf = rig.asB.allocRegion(kRecvs * 4096);
    rig.npfcB.prefault(rig.chB, rbuf, kRecvs * 4096, true);
    for (unsigned i = 0; i < kRecvs; ++i)
        rig.qpB.postRecv({Opcode::Send, rbuf + i * 4096, 4096, 0, i});

    std::uint64_t posted = 0;
    auto post = [&] {
        rig.qpA.postSend({Opcode::Send, sbuf, 4096, 0, ++posted});
    };
    std::map<std::uint64_t, std::vector<bool>> results;
    rig.qpA.onCompletion([&](const Completion &c) {
        if (c.isRecv)
            return;
        results[c.wrId].push_back(c.ok);
        if (c.ok)
            post();
    });
    for (unsigned i = 0; i < kQp.maxOutstandingWrs + 4; ++i)
        post();
    // Bounded, so an endless flush chain fails instead of hanging.
    constexpr unsigned kMaxEvents = 1'000'000;
    unsigned events = 0;
    while (events < kMaxEvents && rig.eq.step())
        ++events;
    ASSERT_TRUE(rig.eq.empty()) << "still running after " << events;
    EXPECT_TRUE(rig.qpA.inError());
    ASSERT_EQ(results.size(), posted);
    unsigned ok = 0;
    for (const auto &[id, got] : results) {
        ASSERT_EQ(got.size(), 1u) << "wr " << id;
        ok += got[0];
    }
    EXPECT_EQ(ok, kRecvs);
}

TEST(IbEdge, StreamWorldStopsRepostingOnError)
{
    // A receiver that stops posting runs scenario::StreamWorld's
    // sender into RNR exhaustion. Its send handler re-posts on every
    // good completion and must stop on the first failed one: every
    // re-post would be flushed again, one zero-delay event after
    // another, and the queue would never drain.
    sim::ShardedEngine::Config ec;
    ec.shards = 1;
    ec.lookahead = scenario::StreamWorld::kFabric.recordLookahead();
    sim::ShardedEngine engine(ec);
    engine.invokeOn(0, [&] {
        sim::EventQueue &eq = engine.queue(0);
        scenario::StreamWorld w(eq, engine, 0, 1);
        std::uint64_t received = 0;
        w.rx->onCompletion([&](const Completion &c) {
            received += c.isRecv;
        });
        constexpr unsigned kMaxEvents = 10'000'000;
        unsigned events = 0;
        while (events < kMaxEvents && eq.step())
            ++events;
        ASSERT_TRUE(eq.empty()) << "still running after " << events;
        EXPECT_TRUE(w.tx->inError());
        EXPECT_EQ(received, scenario::StreamWorld::kRecvDepth);
        // Each post completes once: the first window, plus one
        // re-post per delivered message.
        EXPECT_EQ(w.sent, scenario::StreamWorld::kSendWindow + received);
    });
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
