/**
 * @file
 * TCP stack tests: handshake, in-order delivery, slow start, fast
 * retransmit, RTO backoff and give-up — both against a programmable
 * lossy pipe and end-to-end over the simulated NICs.
 */

#include <gtest/gtest.h>

#include <memory>

#include "scenario/eth_world.hh"
#include "sim/random.hh"
#include "tcp/tcp_connection.hh"

using namespace npf;
using namespace npf::tcp;

namespace {

/** Two TcpConnections joined by a delay/loss pipe (no NIC). */
struct TcpPipe
{
    sim::EventQueue eq;
    std::unique_ptr<TcpConnection> a, b;
    sim::Time delay = 50 * sim::kMicrosecond;
    std::function<bool(const Segment &)> dropToB; ///< true = drop
    sim::Rng rng{5};

    explicit TcpPipe(TcpConfig cfg = {})
    {
        a = std::make_unique<TcpConnection>(
            eq, 1,
            [this](const Segment &s, mem::VirtAddr) {
                if (dropToB && dropToB(s))
                    return;
                eq.scheduleAfter(delay, [this, s] { b->receiveSegment(s); });
            },
            cfg);
        b = std::make_unique<TcpConnection>(
            eq, 1,
            [this](const Segment &s, mem::VirtAddr) {
                eq.scheduleAfter(delay, [this, s] { a->receiveSegment(s); });
            },
            cfg);
    }

    bool
    connect()
    {
        b->listen();
        bool done = false, ok = false;
        a->connect([&](bool success) {
            done = true;
            ok = success;
        });
        eq.runUntilCondition([&] { return done; },
                             eq.now() + 300 * sim::kSecond);
        return ok;
    }
};

} // namespace

TEST(Tcp, HandshakeEstablishes)
{
    TcpPipe pipe;
    EXPECT_TRUE(pipe.connect());
    EXPECT_TRUE(pipe.a->established());
}

TEST(Tcp, SynRetriesWithBackoffThenGivesUp)
{
    TcpPipe pipe;
    pipe.dropToB = [](const Segment &) { return true; }; // black hole
    bool done = false, ok = true;
    pipe.b->listen();
    pipe.a->connect([&](bool success) {
        done = true;
        ok = success;
    });
    pipe.eq.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(pipe.a->failed());
    EXPECT_GT(pipe.a->stats().synRetries, 3u);
    // Exponential backoff: give-up takes 1+2+4+8+16+32+64 = 127 s.
    EXPECT_GT(pipe.eq.now(), 60 * sim::kSecond);
}

TEST(Tcp, BulkTransferDeliversExactly)
{
    TcpPipe pipe;
    ASSERT_TRUE(pipe.connect());
    std::uint64_t delivered = 0;
    pipe.b->onDeliver([&](std::size_t n) { delivered += n; });
    constexpr std::size_t kBytes = 1 << 20;
    pipe.a->send(kBytes);
    pipe.eq.runUntilCondition([&] { return delivered == kBytes; },
                              pipe.eq.now() + 60 * sim::kSecond);
    EXPECT_EQ(delivered, kBytes);
    EXPECT_EQ(pipe.a->stats().retransmissions, 0u);
}

TEST(Tcp, SlowStartGrowsCwnd)
{
    TcpPipe pipe;
    ASSERT_TRUE(pipe.connect());
    std::size_t initial = pipe.a->cwnd();
    std::uint64_t delivered = 0;
    pipe.b->onDeliver([&](std::size_t n) { delivered += n; });
    pipe.a->send(1 << 20);
    pipe.eq.runUntilCondition([&] { return delivered == (1u << 20); },
                              pipe.eq.now() + 60 * sim::kSecond);
    EXPECT_GT(pipe.a->cwnd(), 2 * initial);
}

TEST(Tcp, SingleLossRecoversByFastRetransmit)
{
    TcpPipe pipe;
    ASSERT_TRUE(pipe.connect());
    int dropped = 0;
    pipe.dropToB = [&](const Segment &s) {
        // Drop exactly one data segment mid-stream.
        if (s.len > 0 && s.seq > 100000 && dropped == 0) {
            ++dropped;
            return true;
        }
        return false;
    };
    std::uint64_t delivered = 0;
    pipe.b->onDeliver([&](std::size_t n) { delivered += n; });
    constexpr std::size_t kBytes = 1 << 20;
    pipe.a->send(kBytes);
    pipe.eq.runUntilCondition([&] { return delivered == kBytes; },
                              pipe.eq.now() + 120 * sim::kSecond);
    EXPECT_EQ(delivered, kBytes);
    EXPECT_EQ(dropped, 1);
    EXPECT_GE(pipe.a->stats().fastRetransmits, 1u);
    // Fast retransmit means no 200 ms stall: well under a second.
    EXPECT_LT(pipe.eq.now(), 2 * sim::kSecond);
}

TEST(Tcp, PersistentLossBacksOffAndFails)
{
    TcpPipe pipe;
    ASSERT_TRUE(pipe.connect());
    pipe.dropToB = [](const Segment &s) { return s.len > 0; };
    bool failed = false;
    pipe.a->onFailure([&] { failed = true; });
    pipe.a->send(10000);
    pipe.eq.run();
    EXPECT_TRUE(failed);
    EXPECT_GE(pipe.a->stats().timeouts, kTcp.maxDataRetries)
        << "gives up only after kTcp.maxDataRetries RTOs";
    EXPECT_GT(pipe.eq.now(), 100 * sim::kSecond)
        << "exponential backoff stretches the attempts out";
}

TEST(Tcp, RandomLossStillDeliversInOrderExactly)
{
    TcpPipe pipe;
    ASSERT_TRUE(pipe.connect());
    pipe.dropToB = [&](const Segment &s) {
        return s.len > 0 && pipe.rng.bernoulli(0.05);
    };
    std::uint64_t delivered = 0;
    pipe.b->onDeliver([&](std::size_t n) { delivered += n; });
    constexpr std::size_t kBytes = 1 << 20;
    pipe.a->send(kBytes);
    pipe.eq.runUntilCondition([&] { return delivered == kBytes; },
                              pipe.eq.now() + 600 * sim::kSecond);
    EXPECT_EQ(delivered, kBytes) << "reliability under 5% loss";
    EXPECT_GT(pipe.a->stats().retransmissions, 0u);
}

TEST(Tcp, RtoEstimatorTracksRtt)
{
    TcpPipe pipe;
    pipe.delay = 5 * sim::kMillisecond; // 10 ms RTT
    ASSERT_TRUE(pipe.connect());
    std::uint64_t delivered = 0;
    pipe.b->onDeliver([&](std::size_t n) { delivered += n; });
    pipe.a->send(256 * 1024);
    pipe.eq.runUntilCondition([&] { return delivered == 256u * 1024; },
                              pipe.eq.now() + 60 * sim::kSecond);
    EXPECT_GE(pipe.a->currentRto(), 200 * sim::kMillisecond);
    EXPECT_LT(pipe.a->currentRto(), 2 * sim::kSecond);
}

// --- end-to-end over the NIC testbed ------------------------------------

TEST(TcpOverNic, PinnedRingTransfersCleanly)
{
    scenario::EthBed tb({.policy = eth::RxFaultPolicy::Pin});
    ASSERT_TRUE(tb.connect(1));
    auto &cli = tb.client->connection(1);
    auto &srv = tb.server->connection(1);
    std::uint64_t delivered = 0;
    srv.onDeliver([&](std::size_t n) { delivered += n; });
    cli.send(512 * 1024);
    tb.eq.runUntilCondition([&] { return delivered == 512u * 1024; },
                            tb.eq.now() + 60 * sim::kSecond);
    EXPECT_EQ(delivered, 512u * 1024);
    EXPECT_EQ(tb.server->ringStats().rnpfs, 0u);
}

TEST(TcpOverNic, BackupRingSurvivesColdStart)
{
    scenario::EthBed tb({.policy = eth::RxFaultPolicy::BackupRing});
    ASSERT_TRUE(tb.connect(1));
    auto &cli = tb.client->connection(1);
    auto &srv = tb.server->connection(1);
    std::uint64_t delivered = 0;
    srv.onDeliver([&](std::size_t n) { delivered += n; });
    cli.send(512 * 1024);
    tb.eq.runUntilCondition([&] { return delivered == 512u * 1024; },
                            tb.eq.now() + 60 * sim::kSecond);
    EXPECT_EQ(delivered, 512u * 1024);
    EXPECT_GT(tb.server->ringStats().rnpfs, 0u) << "the ring was cold";
    EXPECT_EQ(cli.stats().timeouts, 0u)
        << "no TCP-visible loss with the backup ring";
}

TEST(TcpOverNic, DropPolicyCausesTimeoutsOnColdStart)
{
    scenario::EthBed tb({.policy = eth::RxFaultPolicy::Drop});
    ASSERT_TRUE(tb.connect(1, 300 * sim::kSecond));
    auto &cli = tb.client->connection(1);
    auto &srv = tb.server->connection(1);
    std::uint64_t delivered = 0;
    srv.onDeliver([&](std::size_t n) { delivered += n; });
    cli.send(256 * 1024);
    tb.eq.runUntilCondition([&] { return delivered == 256u * 1024; },
                            tb.eq.now() + 600 * sim::kSecond);
    EXPECT_EQ(delivered, 256u * 1024) << "eventually recovers";
    EXPECT_GT(cli.stats().retransmissions, 0u)
        << "cold-ring drops force TCP retransmissions";
}

TEST(MessageStreamTest, FramesMessagesAcrossSegments)
{
    scenario::EthBed tb({.policy = eth::RxFaultPolicy::Pin});
    ASSERT_TRUE(tb.connect(1));
    auto &cli = tb.client->connection(1);
    auto &srv = tb.server->connection(1);
    MessageStream stream(cli, srv);
    std::vector<std::pair<std::uint64_t, std::size_t>> msgs;
    stream.onMessage([&](std::uint64_t cookie, std::size_t len) {
        msgs.push_back({cookie, len});
    });
    stream.sendMessage(100, 0, 11);
    stream.sendMessage(5000, 0, 22); // spans multiple segments
    stream.sendMessage(64, 0, 33);
    tb.eq.runUntilCondition([&] { return msgs.size() == 3; },
                            tb.eq.now() + 60 * sim::kSecond);
    ASSERT_EQ(msgs.size(), 3u);
    EXPECT_EQ(msgs[0], (std::pair<std::uint64_t, std::size_t>{11, 100}));
    EXPECT_EQ(msgs[1], (std::pair<std::uint64_t, std::size_t>{22, 5000}));
    EXPECT_EQ(msgs[2], (std::pair<std::uint64_t, std::size_t>{33, 64}));
}
