/**
 * @file
 * Application-layer edge cases and parameter sweeps: storage block
 * sizes and queue depths, get/set mixes, page-cache/comm-buffer
 * interaction under tight memory.
 */

#include <gtest/gtest.h>

#include "app/memcached.hh"
#include "app/storage.hh"
#include "net/fabric.hh"
#include "scenario/eth_world.hh"

using namespace npf;
using namespace npf::app;

namespace {

constexpr std::size_t MiB = 1ull << 20;
constexpr std::size_t GiB = 1ull << 30;

struct StorageRig
{
    sim::EventQueue eq;
    net::Fabric fabric{eq, 2,
                       net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                         200}};
    mem::MemoryManager tgtMm, iniMm{2 * GiB};
    mem::AddressSpace &tgtAs;
    mem::AddressSpace &iniAs{iniMm.createAddressSpace("fio")};
    core::NpfController tgtNpfc{eq}, iniNpfc{eq};
    core::ChannelId tch{tgtNpfc.attach(tgtAs)};
    core::ChannelId ich{iniNpfc.attach(iniAs)};
    ib::QueuePair qpT, qpI;
    StorageTarget tgt;
    std::shared_ptr<std::deque<IoRequest>> queue;

    StorageRig(std::size_t mem, StorageConfig scfg)
        : tgtMm(mem), tgtAs(tgtMm.createAddressSpace("tgt")),
          qpT(eq, fabric, 0, tgtNpfc, tch),
          qpI(eq, fabric, 1, iniNpfc, ich), tgt(eq, tgtAs, scfg),
          queue(std::make_shared<std::deque<IoRequest>>())
    {
        qpT.connect(qpI);
        qpI.connect(qpT);
        if (tgt.ok())
            tgt.addSession(qpT, queue);
    }
};

} // namespace

class StorageSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>>
{
};

TEST_P(StorageSweep, ReadsCompleteAtAnyBlockSizeAndDepth)
{
    auto [block, qd] = GetParam();
    StorageConfig scfg;
    scfg.lunBytes = 512 * MiB;
    StorageRig rig(4 * GiB, scfg);
    ASSERT_TRUE(rig.tgt.ok());
    FioClient fio(rig.eq, rig.qpI, rig.iniAs, rig.queue, block, qd,
                  scfg.lunBytes, 5);
    fio.start();
    bool ok = rig.eq.runUntilCondition(
        [&] { return fio.completed() >= 50; }, 60 * sim::kSecond);
    EXPECT_TRUE(ok) << "block=" << block << " qd=" << qd;
    EXPECT_EQ(fio.bytesRead(), fio.completed() * block);
}

INSTANTIATE_TEST_SUITE_P(
    Points, StorageSweep,
    ::testing::Combine(::testing::Values(4096, 64 * 1024, 512 * 1024),
                       ::testing::Values(1u, 4u, 32u)));

TEST(StorageEdge, SmallBlocksLeaveChunkTailsUnbacked)
{
    StorageConfig scfg;
    scfg.lunBytes = 256 * MiB;
    StorageRig rig(4 * GiB, scfg);
    FioClient fio(rig.eq, rig.qpI, rig.iniAs, rig.queue, 64 * 1024, 4,
                  scfg.lunBytes, 5);
    fio.start();
    rig.eq.runUntilCondition([&] { return fio.completed() >= 200; },
                             60 * sim::kSecond);
    // 25 chunks x 512 KB virtual, but only 64 KB of each touched;
    // resident comm memory is bounded accordingly (plus cache).
    double cache_bytes = rig.tgt.cache().residentFraction() *
                         double(scfg.lunBytes);
    double comm = double(rig.tgt.residentBytes()) - cache_bytes;
    EXPECT_LT(comm, 25 * 80 * 1024.0 + 2 * MiB)
        << "resident comm memory must track touched bytes, not "
           "chunk size";
}

TEST(StorageEdge, TargetKeepsUpWithManyShallowSessions)
{
    StorageConfig scfg;
    scfg.lunBytes = 256 * MiB;
    sim::EventQueue eq;
    net::Fabric fabric(eq, 2,
                       net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                         200});
    mem::MemoryManager tgtMm(4 * GiB), iniMm(4 * GiB);
    auto &tgtAs = tgtMm.createAddressSpace("tgt");
    auto &iniAs = iniMm.createAddressSpace("fio");
    core::NpfController tnpf(eq), inpf(eq);
    auto tch = tnpf.attach(tgtAs);
    auto ich = inpf.attach(iniAs);
    StorageTarget tgt(eq, tgtAs, scfg);
    std::vector<std::unique_ptr<ib::QueuePair>> qps;
    std::vector<std::unique_ptr<FioClient>> fios;
    for (int s = 0; s < 8; ++s) {
        auto qt = std::make_unique<ib::QueuePair>(eq, fabric, 0, tnpf,
                                                  tch);
        auto qi = std::make_unique<ib::QueuePair>(eq, fabric, 1, inpf,
                                                  ich);
        qt->connect(*qi);
        qi->connect(*qt);
        auto queue = std::make_shared<std::deque<IoRequest>>();
        tgt.addSession(*qt, queue);
        fios.push_back(std::make_unique<FioClient>(
            eq, *qi, iniAs, queue, 64 * 1024, 2, scfg.lunBytes,
            100 + s));
        qps.push_back(std::move(qt));
        qps.push_back(std::move(qi));
    }
    for (auto &f : fios)
        f->start();
    std::uint64_t total = 0;
    bool ok = eq.runUntilCondition(
        [&] {
            total = 0;
            for (auto &f : fios)
                total += f->completed();
            return total >= 800;
        },
        120 * sim::kSecond);
    EXPECT_TRUE(ok);
    // The target may have served IOs whose responses are in flight.
    EXPECT_GE(tgt.iosServed(), total);
}

TEST(MemaslapEdge, SetOnlyAndGetOnlyMixes)
{
    scenario::EthBed tb({.policy = eth::RxFaultPolicy::Pin, .ringSize = 256});
    HostModel host;
    MemaslapConfig cfg;
    cfg.getRatio = 0.0; // set-only
    cfg.keys = 100;
    scenario::MemcachedInstance mc(
        tb, host,
        {.kvBytes = 32 * MiB, .connections = 1, .slap = cfg, .slapSeed = 3});
    ASSERT_EQ(mc.failedConnect, 0u);
    Memaslap &slap = *mc.slap;
    KvStore &kv = mc.kv;
    slap.start();
    tb.eq.runUntilCondition([&] { return slap.transactions() >= 500; },
                            60 * sim::kSecond);
    EXPECT_GE(slap.transactions(), 500u);
    EXPECT_EQ(kv.items(), 100u) << "every key was set";
    // All sets: hit counter reflects overwrites, not gets.
    EXPECT_EQ(kv.hits(), 0u) << "gets never ran";
}
