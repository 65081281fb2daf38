/**
 * @file
 * Parameterized property sweeps across module configuration spaces:
 * ring geometries, message sizes, MTUs, loss rates, memory budgets.
 * Each instantiation checks the same invariants (no loss, no
 * reorder, exactly-once, accounting consistency) at a different
 * operating point.
 */

#include <gtest/gtest.h>

#include "app/kv_store.hh"
#include "eth/eth_nic.hh"
#include "ib/queue_pair.hh"
#include "mem/memory_manager.hh"
#include "net/fabric.hh"
#include "payload_pool.hh"
#include "tcp/tcp_connection.hh"

using namespace npf;

namespace {

constexpr std::size_t MiB = 1ull << 20;

} // namespace

// --- Ethernet ring geometry sweep ---------------------------------------

class RingGeometry
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>>
{
};

TEST_P(RingGeometry, ColdStartDeliversEverythingInOrder)
{
    auto [ring_size, bm_size] = GetParam();
    sim::EventQueue eq;
    mem::MemoryManager mm(64 * MiB);
    auto &as = mm.createAddressSpace("u");
    core::NpfController npfc(eq);
    auto ch = npfc.attach(as);
    eth::EthNic nic(eq, npfc), peer(eq, npfc);
    peer.connectTo(nic, net::LinkConfig{12e9, 1000, 38});
    nic.connectTo(peer, net::LinkConfig{12e9, 1000, 38});

    eth::RxRingConfig cfg;
    cfg.size = ring_size;
    cfg.bmSize = bm_size;
    std::vector<std::uint64_t> got;
    mem::VirtAddr bufs = as.allocRegion(ring_size * 4096);
    unsigned ring = nic.createRxRing(
        ch, cfg, [&](const eth::Frame &f) {
            got.push_back(test::payloadValue(f));
            eth::RxRing &r = nic.ring(0);
            if (r.postableSlots() > 0)
                nic.postRxBuffer(0, bufs + (r.tail % cfg.size) * 4096,
                                 4096);
        });
    for (std::size_t i = 0; i < ring_size; ++i)
        nic.postRxBuffer(ring, bufs + i * 4096, 4096);

    // Cold ring + paced arrivals: everything must arrive in order.
    constexpr std::uint64_t kFrames = 100;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
        eq.schedule(i * 500 * sim::kMicrosecond, [&, i] {
            eth::Frame f;
            f.dstRing = ring;
            f.bytes = 1000;
            f.payload = test::payloadPool().acquire(i);
            eth::EthNic *dst = &nic;
            peer.txLink()->send(f.bytes, [dst, f] { dst->receive(f); });
        });
    }
    eq.run();
    ASSERT_EQ(got.size(), kFrames)
        << "ring=" << ring_size << " bm=" << bm_size;
    for (std::uint64_t i = 0; i < kFrames; ++i)
        ASSERT_EQ(got[i], i);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RingGeometry,
    ::testing::Values(std::tuple{8, 4}, std::tuple{8, 8},
                      std::tuple{16, 4}, std::tuple{64, 16},
                      std::tuple{64, 64}, std::tuple{256, 32},
                      std::tuple{512, 64}));

// --- RC message size x MTU sweep -----------------------------------------

class RcGeometry
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>>
{
};

TEST_P(RcGeometry, ColdBuffersExactlyOnceInOrder)
{
    auto [msg_bytes, mtu] = GetParam();
    sim::EventQueue eq;
    net::Fabric fabric(eq, 2,
                       net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                         200});
    mem::MemoryManager mmA(256 * MiB), mmB(256 * MiB);
    auto &asA = mmA.createAddressSpace("A");
    auto &asB = mmB.createAddressSpace("B");
    core::NpfController npfcA(eq), npfcB(eq);
    auto chA = npfcA.attach(asA);
    auto chB = npfcB.attach(asB);
    ib::QpConfig cfg;
    cfg.pathMtu = mtu;
    ib::QueuePair qpA(eq, fabric, 0, npfcA, chA, cfg, 5);
    ib::QueuePair qpB(eq, fabric, 1, npfcB, chB, cfg, 6);
    qpA.connect(qpB);
    qpB.connect(qpA);

    // Both sides completely cold: sender and receiver fault.
    mem::VirtAddr sbuf = asA.allocRegion(msg_bytes * 4);
    mem::VirtAddr rbuf = asB.allocRegion(msg_bytes * 4);
    asA.touch(sbuf, msg_bytes * 4, true); // CPU writes the payload

    std::vector<std::uint64_t> order;
    qpB.onCompletion([&](const ib::Completion &c) {
        if (c.isRecv) {
            EXPECT_EQ(c.bytes, msg_bytes);
            order.push_back(c.wrId);
        }
    });
    for (std::uint64_t i = 0; i < 4; ++i)
        qpB.postRecv({ib::Opcode::Send,
                      rbuf + i * msg_bytes, msg_bytes, 0, i});
    for (std::uint64_t i = 0; i < 4; ++i)
        qpA.postSend({ib::Opcode::Send,
                      sbuf + i * msg_bytes, msg_bytes, 0, i});

    ASSERT_TRUE(eq.runUntilCondition([&] { return order.size() == 4; },
                                     60 * sim::kSecond));
    for (std::uint64_t i = 0; i < 4; ++i)
        ASSERT_EQ(order[i], i);
    EXPECT_GT(qpB.stats().recvNpfs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RcGeometry,
    ::testing::Combine(::testing::Values(512, 4096, 65536, 1048576),
                       ::testing::Values(1024, 4096)));

// --- TCP loss-rate sweep ---------------------------------------------------

class TcpLossSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(TcpLossSweep, ReliabilityHolds)
{
    double loss = GetParam();
    sim::EventQueue eq;
    sim::Rng rng(33);
    std::unique_ptr<tcp::TcpConnection> a, b;
    a = std::make_unique<tcp::TcpConnection>(
        eq, 1, [&](const tcp::Segment &s, mem::VirtAddr) {
            if (s.len > 0 && rng.bernoulli(loss))
                return;
            eq.scheduleAfter(40 * sim::kMicrosecond,
                             [&, s] { b->receiveSegment(s); });
        });
    b = std::make_unique<tcp::TcpConnection>(
        eq, 1, [&](const tcp::Segment &s, mem::VirtAddr) {
            eq.scheduleAfter(40 * sim::kMicrosecond,
                             [&, s] { a->receiveSegment(s); });
        });
    b->listen();
    bool connected = false;
    a->connect([&](bool ok) { connected = ok; });
    ASSERT_TRUE(eq.runUntilCondition([&] { return connected; },
                                     300 * sim::kSecond));
    std::uint64_t delivered = 0;
    b->onDeliver([&](std::size_t n) { delivered += n; });
    constexpr std::size_t kBytes = 256 * 1024;
    a->send(kBytes);
    eq.runUntilCondition([&] { return delivered == kBytes; },
                         eq.now() + 600 * sim::kSecond);
    EXPECT_EQ(delivered, kBytes) << "loss=" << loss;
}

INSTANTIATE_TEST_SUITE_P(Rates, TcpLossSweep,
                         ::testing::Values(0.0, 0.01, 0.03, 0.08, 0.15));

// --- memory budget sweep -----------------------------------------------

class MemoryBudget : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MemoryBudget, AccountingStaysConsistentUnderChurn)
{
    std::size_t budget_mb = GetParam();
    mem::MemoryManager mm(budget_mb * MiB);
    auto &as = mm.createAddressSpace("churn");
    sim::Rng rng(budget_mb);
    mem::VirtAddr region = as.allocRegion(4 * budget_mb * MiB);
    std::size_t pages = 4 * budget_mb * MiB / mem::kPageSize;

    for (int step = 0; step < 20000; ++step) {
        mem::Vpn off = rng.uniformInt(0, pages - 1);
        as.touch(region + off * mem::kPageSize, mem::kPageSize,
                 rng.bernoulli(0.5));
    }
    // Invariants: residency within budget; frame accounting matches.
    EXPECT_LE(as.residentPages(), budget_mb * MiB / mem::kPageSize);
    EXPECT_EQ(mm.physical().usedFrames(), as.residentPages());
    // Every present PTE maps a frame that maps back to it.
    std::size_t checked = 0;
    for (mem::Vpn v = mem::pageOf(region);
         v < mem::pageOf(region) + pages; ++v) {
        const mem::Pte *pte = as.findPte(v);
        if (pte == nullptr || !pte->present)
            continue;
        const mem::Frame &f = mm.physical().frame(pte->pfn);
        ASSERT_EQ(f.owner, as.id());
        ASSERT_EQ(f.vpn, v);
        ++checked;
    }
    EXPECT_EQ(checked, as.residentPages());
}

INSTANTIATE_TEST_SUITE_P(Budgets, MemoryBudget,
                         ::testing::Values(2, 4, 8, 16, 64));

// --- KV store value-size sweep -------------------------------------------

class KvValueSize : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(KvValueSize, LruSemanticsIndependentOfValueSize)
{
    std::size_t value = GetParam();
    mem::MemoryManager mm(256 * MiB);
    auto &as = mm.createAddressSpace("kv");
    std::size_t slot = value + 64;
    app::KvStore kv(as, 20 * slot, value); // exactly 20 items
    ASSERT_EQ(kv.capacityItems(), 20u);
    for (std::uint64_t k = 0; k < 30; ++k)
        kv.set(k);
    // Keys 0..9 were evicted; 10..29 resident.
    for (std::uint64_t k = 0; k < 10; ++k)
        EXPECT_FALSE(kv.get(k).hit) << "value=" << value;
    for (std::uint64_t k = 10; k < 30; ++k)
        EXPECT_TRUE(kv.get(k).hit) << "value=" << value;
}

INSTANTIATE_TEST_SUITE_P(Values, KvValueSize,
                         ::testing::Values(64, 1024, 4096, 20 * 1024,
                                           100 * 1024));

// --- NPF concurrency limit sweep ------------------------------------------

class NpfConcurrency : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(NpfConcurrency, AllFaultsResolveAtAnyLimit)
{
    core::OdpConfig cfg;
    cfg.maxConcurrentNpfs = GetParam();
    sim::EventQueue eq;
    mem::MemoryManager mm(256 * MiB);
    auto &as = mm.createAddressSpace("u");
    core::NpfController npfc(eq, cfg);
    auto ch = npfc.attach(as);
    mem::VirtAddr buf = as.allocRegion(4 * MiB);

    int resolved = 0;
    for (int i = 0; i < 64; ++i) {
        npfc.raiseNpf(ch, buf + std::uint64_t(i) * 16 * mem::kPageSize,
                      16 * mem::kPageSize, true,
                      [&] {
                          EXPECT_TRUE(npfc.resolved().ok);
                          ++resolved;
                      });
    }
    eq.run();
    EXPECT_EQ(resolved, 64);
    EXPECT_TRUE(npfc.checkDma(ch, buf, 64 * 16 * mem::kPageSize).ok);
}

INSTANTIATE_TEST_SUITE_P(Limits, NpfConcurrency,
                         ::testing::Values(1u, 2u, 4u, 16u, 64u));
