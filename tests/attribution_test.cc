/**
 * @file
 * Latency-attribution tests. Unit level: lane accounting (charges,
 * open-block accrual, non-LIFO block ends, parent/root folding, stack
 * overflow tolerance) against a hand-advanced clock. Integration
 * level: a deterministic two-host IB KV-RPC run under memory pressure
 * and synthetic receive faults, asserting the subsystem's central
 * contract — every recorded breakdown's phases sum *exactly* to its
 * end-to-end latency — while both an NPF-bearing and an RNR-bearing
 * request are in the sample set.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "obs/attribution.hh"
#include "scenario/ib_world.hh"
#include "sim/event_queue.hh"

using namespace npf;
using obs::Phase;
using obs::PhaseBreakdown;

namespace {

/** Enable the process-wide attributor on @p eq; restore on exit. */
struct AttrGuard
{
    explicit AttrGuard(sim::EventQueue &eq)
    {
        obs::attributor().setClock(&eq);
        obs::attributor().enable(true);
    }
    ~AttrGuard()
    {
        obs::attributor().enable(false);
        obs::attributor().setClock(nullptr);
    }
};

void
advanceTo(sim::EventQueue &eq, sim::Time t)
{
    eq.schedule(t, [] {});
    eq.run();
}

std::int64_t
phaseNs(const PhaseBreakdown &bd, Phase p)
{
    return bd.ns[static_cast<unsigned>(p)];
}

} // namespace

TEST(Attribution, DisabledEverythingIsANoop)
{
    obs::Attributor &at = obs::attributor();
    at.enable(false);
    EXPECT_EQ(at.rootLane(), -1);
    int lane = at.openLane("nobody");
    EXPECT_EQ(lane, -1);
    at.blockBegin(lane, Phase::Server);
    at.blockEnd(lane, Phase::Server);
    at.charge(lane, Phase::NpfDriver, 1000);
    PhaseBreakdown bd;
    bd.ns[0] = 42; // snapshot must clear stale content
    at.snapshot(lane, bd);
    EXPECT_EQ(bd.sum(), 0);
    EXPECT_EQ(at.laneCount(), 0u);
}

TEST(Attribution, ChargeAndOpenBlockAccrual)
{
    sim::EventQueue eq;
    AttrGuard guard(eq);
    obs::Attributor &at = obs::attributor();
    int lane = at.openLane("session");
    ASSERT_GE(lane, 0);

    at.charge(lane, Phase::Server, 300);
    at.blockBegin(lane, Phase::NpfDriver);
    advanceTo(eq, 500);

    // Mid-block snapshot folds the elapsed open-block time.
    PhaseBreakdown bd;
    at.snapshot(lane, bd);
    EXPECT_EQ(phaseNs(bd, Phase::Server), 300);
    EXPECT_EQ(phaseNs(bd, Phase::NpfDriver), 500);

    advanceTo(eq, 700);
    at.blockEnd(lane, Phase::NpfDriver);
    at.snapshot(lane, bd);
    EXPECT_EQ(phaseNs(bd, Phase::NpfDriver), 700);

    // Time after the block closes accrues to nothing.
    advanceTo(eq, 1000);
    at.snapshot(lane, bd);
    EXPECT_EQ(phaseNs(bd, Phase::NpfDriver), 700);
    EXPECT_EQ(bd.sum(), 1000);
}

TEST(Attribution, NonLifoBlockEndsAreTolerated)
{
    sim::EventQueue eq;
    AttrGuard guard(eq);
    obs::Attributor &at = obs::attributor();
    int lane = at.openLane("session");

    // A (RnrBackoff) opens at 0, B (NpfDriver) nests at 100; A ends
    // first at 250, B at 400 — the two directions of one session can
    // interleave like this. Elapsed time always accrues to the
    // innermost open block: A gets [0,100), B gets [100,400).
    at.blockBegin(lane, Phase::RnrBackoff);
    advanceTo(eq, 100);
    at.blockBegin(lane, Phase::NpfDriver);
    advanceTo(eq, 250);
    at.blockEnd(lane, Phase::RnrBackoff);
    advanceTo(eq, 400);
    at.blockEnd(lane, Phase::NpfDriver);

    PhaseBreakdown bd;
    at.snapshot(lane, bd);
    EXPECT_EQ(phaseNs(bd, Phase::RnrBackoff), 100);
    EXPECT_EQ(phaseNs(bd, Phase::NpfDriver), 300);

    // Unmatched end: a tolerated no-op.
    at.blockEnd(lane, Phase::Retransmit);
    at.snapshot(lane, bd);
    EXPECT_EQ(bd.sum(), 400);
}

TEST(Attribution, SnapshotFoldsParentAndRoot)
{
    sim::EventQueue eq;
    AttrGuard guard(eq);
    obs::Attributor &at = obs::attributor();
    int root = at.rootLane();
    ASSERT_EQ(root, 0);
    int server = at.openLane("server");
    int session = at.openLane("session", server);

    at.charge(root, Phase::NpfDriver, 10);   // host-global stall
    at.charge(server, Phase::Server, 100);   // shared core
    at.charge(session, Phase::RnrBackoff, 1000);

    PhaseBreakdown bd;
    at.snapshot(session, bd);
    EXPECT_EQ(phaseNs(bd, Phase::NpfDriver), 10);
    EXPECT_EQ(phaseNs(bd, Phase::Server), 100);
    EXPECT_EQ(phaseNs(bd, Phase::RnrBackoff), 1000);

    // A root-parented lane folds only itself + root (no double count
    // of the root through the parent link).
    at.snapshot(server, bd);
    EXPECT_EQ(phaseNs(bd, Phase::NpfDriver), 10);
    EXPECT_EQ(phaseNs(bd, Phase::Server), 100);
    EXPECT_EQ(phaseNs(bd, Phase::RnrBackoff), 0);

    // The root snapshot folds only the root.
    at.snapshot(root, bd);
    EXPECT_EQ(bd.sum(), 10);
}

TEST(Attribution, BlockStackOverflowIsDroppedNotFatal)
{
    sim::EventQueue eq;
    AttrGuard guard(eq);
    obs::Attributor &at = obs::attributor();
    int lane = at.openLane("deep");
    for (int i = 0; i < 40; ++i)
        at.blockBegin(lane, Phase::NpfDriver);
    for (int i = 0; i < 40; ++i)
        at.blockEnd(lane, Phase::NpfDriver);
    PhaseBreakdown bd;
    at.snapshot(lane, bd);
    EXPECT_EQ(bd.sum(), 0); // clock never advanced
}

TEST(Attribution, OverflowCountsEachDroppedBlock)
{
    sim::EventQueue eq;
    AttrGuard guard(eq);
    obs::Attributor &at = obs::attributor();
    int lane = at.openLane("deep");
    for (unsigned i = 0; i < obs::Attributor::kMaxDepth; ++i)
        at.blockBegin(lane, Phase::NpfDriver);
    EXPECT_EQ(at.overflowed(lane), 0u);
    at.blockBegin(lane, Phase::NpfDriver);
    EXPECT_EQ(at.overflowed(lane), 1u);
    EXPECT_EQ(at.overflowed(at.rootLane()), 0u);
}

/**
 * Two-host IB KV-RPC under periodic server memory pressure (real send
 * NPFs on GET responses DMA-read from reclaimed item memory) and
 * synthetic receive faults on the client QPs (RNR NACK path). The run
 * is deterministic; the recorder keeps every breakdown (slowK is
 * larger than the completion count can reach).
 */
TEST(AttributionIntegration, IbKvRcPhasesSumExactlyWithNpfAndRnr)
{
    sim::EventQueue eq;
    AttrGuard guard(eq);

    load::PoolConfig pc;
    pc.clients = 8;
    pc.seed = 7;
    pc.workload.arrival.kind = load::ArrivalSpec::Kind::Closed;
    pc.workload.keys.kind = load::KeySpec::Kind::Uniform;
    pc.workload.keys.keys = 64;
    pc.workload.getRatio = 0.9;

    load::RecorderConfig rc;
    rc.warmup = 0;
    rc.duration = 0; // unbounded: keep every completion
    rc.slowK = 1u << 20;
    ib::QpConfig ccfg;
    ccfg.syntheticRnpfProb = 0.05; // client rx faults -> RNR NACKs
    scenario::IbBed bed(eq);
    scenario::KvWorld w(
        bed, pc, rc,
        {.kvBytes = 16ull << 20, .clientQp = ccfg});
    w.connect(2);
    load::ClientPool &pool = w.pool;

    // Periodic reclaim keeps item memory cold so GET responses keep
    // taking real send-side NPFs.
    std::function<void()> squeeze = [&] {
        bed.serverMm.reclaimPages(512);
        if (eq.now() < 80 * sim::kMillisecond)
            eq.scheduleAfter(10 * sim::kMillisecond, squeeze,
                             "test.squeeze");
    };
    eq.scheduleAfter(5 * sim::kMillisecond, squeeze, "test.squeeze");

    pool.start();
    eq.runUntil(100 * sim::kMillisecond);
    pool.stop();

    std::size_t samples = 0;
    bool sawNpf = false, sawRnr = false;
    for (unsigned cls = 0; cls < 2; ++cls) {
        for (const PhaseBreakdown &bd : w.rec.slowSamples(cls)) {
            ++samples;
            ASSERT_EQ(bd.sum(), bd.e2e)
                << "phase sum must equal e2e exactly (class " << cls
                << ")";
            if (phaseNs(bd, Phase::NpfDriver) > 0)
                sawNpf = true;
            if (phaseNs(bd, Phase::RnrBackoff) > 0)
                sawRnr = true;
        }
    }
    EXPECT_GT(samples, 100u);
    for (std::size_t lane = 0; lane < obs::attributor().laneCount(); ++lane)
        EXPECT_EQ(obs::attributor().overflowed(int(lane)), 0u)
            << "lane " << lane << " dropped blocks";
    EXPECT_TRUE(sawNpf) << "no NPF-bearing request in " << samples
                        << " samples";
    EXPECT_TRUE(sawRnr) << "no RNR-bearing request in " << samples
                        << " samples";
    EXPECT_GT(pool.completions(), 0u);
}
