/**
 * @file
 * HPC substrate edge cases: degenerate cluster sizes, non-power-of-
 * two ranks, registration-cost bookkeeping, and beff determinism.
 */

#include <gtest/gtest.h>

#include "hpc/imb.hh"

using namespace npf;
using namespace npf::hpc;
using core::RegMode;

namespace {

ClusterConfig
cfgOf(unsigned ranks)
{
    ClusterConfig cfg;
    cfg.ranks = ranks;
    cfg.memoryPerRank = 1ull << 30;
    return cfg;
}

} // namespace

TEST(HpcEdge, SingleRankCollectivesCompleteImmediately)
{
    sim::EventQueue eq;
    Cluster c(eq, cfgOf(1), RegMode::Npf);
    BufferPool pool(c, 4096, 2);
    Collectives coll(c, pool);
    int done = 0;
    coll.bcast(4096, 0, [&] { ++done; });
    coll.allreduce(4096, 0, [&] { ++done; });
    coll.alltoall(4096, 0, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 3);
}

TEST(HpcEdge, NonPowerOfTwoRanksStillComplete)
{
    for (unsigned ranks : {3u, 5u, 6u, 7u}) {
        sim::EventQueue eq;
        Cluster c(eq, cfgOf(ranks), RegMode::PinDownCache);
        double secs = runImb(c, ImbBenchmark::Alltoall, 16 * 1024, 5, 2);
        EXPECT_GT(secs, 0.0) << ranks << " ranks";
        secs = runImb(c, ImbBenchmark::Bcast, 16 * 1024, 5, 2);
        EXPECT_GT(secs, 0.0) << ranks << " ranks";
        secs = runImb(c, ImbBenchmark::Allreduce, 16 * 1024, 5, 2);
        EXPECT_GT(secs, 0.0) << ranks << " ranks";
        eq.run();
    }
}

TEST(HpcEdge, PinDownCacheBudgetForcesEvictionTraffic)
{
    sim::EventQueue eq;
    ClusterConfig cfg = cfgOf(2);
    cfg.pinDownCacheBytes = 256 * 1024; // holds two 128 KB buffers
    Cluster c(eq, cfg, RegMode::PinDownCache);
    // Rotate over 8 buffers: every use is a miss after warm-up.
    double secs_small_cache =
        runImb(c, ImbBenchmark::Sendrecv, 128 * 1024, 64, 8);
    eq.run();

    sim::EventQueue eq2;
    ClusterConfig cfg2 = cfgOf(2);
    cfg2.pinDownCacheBytes = 0; // unlimited
    Cluster c2(eq2, cfg2, RegMode::PinDownCache);
    double secs_big_cache =
        runImb(c2, ImbBenchmark::Sendrecv, 128 * 1024, 64, 8);
    eq2.run();

    EXPECT_GT(secs_small_cache, 1.5 * secs_big_cache)
        << "an undersized pin-down cache thrashes (§2.2)";
    EXPECT_GT(c.totalRegOps(), c2.totalRegOps());
}

TEST(HpcEdge, BeffIsDeterministic)
{
    ClusterConfig cfg = cfgOf(4);
    sim::EventQueue eq1, eq2;
    BeffResult a = runBeff(eq1, cfg, RegMode::Npf, 1);
    BeffResult b = runBeff(eq2, cfg, RegMode::Npf, 1);
    EXPECT_DOUBLE_EQ(a.beffMBps, b.beffMBps)
        << "same seed, same fabric, same answer";
}

TEST(HpcEdge, LargeMessagesApproachLineRate)
{
    sim::EventQueue eq;
    Cluster c(eq, cfgOf(2), RegMode::PinDownCache);
    constexpr std::size_t kMsg = 4 * 1024 * 1024;
    constexpr unsigned kIters = 20;
    double secs = runImb(c, ImbBenchmark::Sendrecv, kMsg, kIters, 2);
    // Ring of 2: each rank sends kMsg per iteration, full duplex.
    double gbps = double(kMsg) * kIters * 8 / secs / 1e9;
    EXPECT_GT(gbps, 40.0);
    EXPECT_LT(gbps, 56.0);
}
