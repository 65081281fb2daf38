/**
 * @file
 * Sharded-engine tests (docs/SHARDING.md): the differential oracle —
 * the same cluster workload partitioned over 1, 2 and 4 shards must
 * produce bit-identical per-rank observables — plus SPSC-ring FIFO
 * properties, boundary-event ordering, and the debug-build
 * owner-thread assertions on pools and the metrics registry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "hpc/cluster.hh"
#include "obs/metrics.hh"
#include "scenario/digest.hh"
#include "scenario/ib_world.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/shard.hh"

using namespace npf;
using npf::scenario::Digest;

// ---------------------------------------------------------------
// SPSC ring properties
// ---------------------------------------------------------------

namespace {

/**
 * Push @p msgs numbered messages through a ring of @p capacity from a
 * producer thread while this thread drains it with popAll(); every
 * message must arrive exactly once, in order, intact.
 */
void
streamThroughRing(std::size_t capacity, std::uint64_t msgs)
{
    sim::SpscRing ring(capacity);

    std::thread producer([&ring, msgs] {
        for (std::uint64_t i = 0; i < msgs; ++i) {
            sim::BoundaryMsg m{};
            m.when = i * 3 + 1; // monotone, like a real sender clock
            m.orderKey = i;
            m.a = i ^ 0xabcdef;
            while (!ring.tryPush(m))
                std::this_thread::yield();
        }
    });

    std::uint64_t next = 0;
    sim::Time lastWhen = 0;
    bool ordered = true, payloadOk = true, monotone = true;
    while (next < msgs) {
        std::size_t got = ring.popAll([&](const sim::BoundaryMsg &m) {
            ordered = ordered && m.orderKey == next;
            payloadOk = payloadOk && m.a == (m.orderKey ^ 0xabcdef);
            monotone = monotone && m.when >= lastWhen;
            lastWhen = m.when;
            ++next;
        });
        if (got == 0)
            std::this_thread::yield();
    }
    producer.join();
    // orderKey == count popped before it: a lost message or a
    // duplicate shifts every later key off by one.
    EXPECT_TRUE(ordered) << "ring lost, duplicated or reordered messages";
    EXPECT_TRUE(payloadOk) << "ring corrupted a payload";
    EXPECT_TRUE(monotone) << "timestamps regressed across the ring";
    EXPECT_EQ(next, msgs);
    EXPECT_EQ(ring.popAll([](const sim::BoundaryMsg &) {}), 0u)
        << "ring invented a message";
}

} // namespace

TEST(SpscRing, FifoUnderConcurrentStress)
{
    // Small capacity so the test exercises wraparound and the full
    // ring (producer-side) path many times over.
    streamThroughRing(64, 200000);
}

TEST(SpscRing, CachedHeadWrapsManyTimesAtCapacityEight)
{
    // The producer re-reads head_ only when its cached copy says the
    // ring is full. At capacity 8, a million messages wrap the ring
    // and refresh that cache well over 100k times.
    streamThroughRing(8, 1000000);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo)
{
    sim::SpscRing ring(100);
    EXPECT_GE(ring.capacity(), 100u);
    EXPECT_EQ(ring.capacity() & (ring.capacity() - 1), 0u);
}

// ---------------------------------------------------------------
// Boundary-event ordering in the event queue
// ---------------------------------------------------------------

TEST(BoundarySchedule, ExecutesInTimestampThenKeyOrder)
{
    sim::EventQueue eq;
    struct Rec
    {
        sim::Time when;
        std::uint64_t key;
        bool boundary;
    };
    std::vector<Rec> order;

    // Deterministically shuffled insertion: an LCG walks a set of
    // (when, key) pairs in scrambled order; execution must come out
    // sorted by (when, key) regardless.
    std::uint64_t lcg = 12345;
    constexpr unsigned kN = 512;
    std::vector<std::pair<sim::Time, std::uint64_t>> pairs;
    for (unsigned i = 0; i < kN; ++i)
        pairs.emplace_back(100 + (i % 17) * 50, i);
    for (unsigned i = kN; i > 1; --i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(pairs[i - 1], pairs[(lcg >> 33) % i]);
    }
    for (auto [when, key] : pairs)
        eq.scheduleBoundary(when, key, [&order, when = when, key = key] {
            order.push_back({when, key, true});
        });
    // Local events at the same ticks must run before same-tick
    // boundary events (the seq-domain split).
    for (unsigned t = 0; t < 17; ++t)
        eq.schedule(100 + t * 50, [&order, t] {
            order.push_back({100 + t * 50, t, false});
        });

    eq.runUntil(10000);
    ASSERT_EQ(order.size(), kN + 17);
    for (std::size_t i = 1; i < order.size(); ++i) {
        const Rec &a = order[i - 1], &b = order[i];
        ASSERT_LE(a.when, b.when) << "timestamp regressed at " << i;
        if (a.when == b.when) {
            // local-before-boundary, then key-ascending boundaries
            ASSERT_TRUE(!(a.boundary && !b.boundary))
                << "boundary ran before a same-tick local event";
            if (a.boundary && b.boundary) {
                ASSERT_LT(a.key, b.key) << "orderKey inversion at " << i;
            }
        }
    }
}

TEST(ShardedEngine, LoopbackAndCrossShardDelivery)
{
    sim::ShardedEngine::Config cfg;
    cfg.shards = 2;
    cfg.lookahead = 100;
    sim::ShardedEngine engine(cfg);

    std::atomic<int> at0{0}, at1{0};
    engine.invokeOn(0, [&] {
        engine.bind(0, 7, [&at0](const sim::BoundaryMsg &m) {
            EXPECT_EQ(m.a, 42u);
            ++at0;
        });
    });
    engine.invokeOn(1, [&] {
        engine.bind(1, 7, [&at1](const sim::BoundaryMsg &m) {
            EXPECT_EQ(m.a, 43u);
            ++at1;
        });
    });

    engine.invokeOn(0, [&] {
        sim::BoundaryMsg m{};
        m.when = 150;
        m.orderKey = 1;
        m.kind = 7;
        m.srcShard = 0;
        m.dstShard = 1;
        m.a = 43;
        engine.post(m); // cross-shard, honors the lookahead floor
        sim::BoundaryMsg l = m;
        l.dstShard = 0;
        l.a = 42;
        l.when = 10;
        engine.post(l); // loopback, no floor
    });
    engine.run(1000);
    EXPECT_EQ(at0.load(), 1);
    EXPECT_EQ(at1.load(), 1);
}

TEST(ShardedEngine, MakesProgressAtMinimalLookahead)
{
    // Regression: clocks used to publish "ran through here", which
    // livelocks at lookahead 1 — runTo = min(until, horizon - 1)
    // could never pass min_j(clock_j), every clock stayed at 0, and
    // run() never returned. Floor-semantics clocks (publish
    // runTo + 1) make one tick of lookahead sufficient: this
    // ping-pong relays a message every single tick, the worst case.
    sim::ShardedEngine::Config cfg;
    cfg.shards = 2;
    cfg.lookahead = 1;
    sim::ShardedEngine engine(cfg);

    constexpr sim::Time kUntil = 4000;
    std::atomic<std::uint64_t> hops{0};
    for (unsigned s = 0; s < 2; ++s) {
        engine.invokeOn(s, [&, s] {
            engine.bind(s, 1, [&, s](const sim::BoundaryMsg &m) {
                ++hops;
                sim::BoundaryMsg next = m;
                next.srcShard = std::uint16_t(s);
                next.dstShard = std::uint16_t(1 - s);
                next.when = m.when + 1; // == now + lookahead
                next.orderKey = m.orderKey + 1;
                if (next.when <= kUntil)
                    engine.post(next);
            });
        });
    }
    engine.invokeOn(0, [&] {
        sim::BoundaryMsg m{};
        m.when = 1;
        m.orderKey = 1;
        m.kind = 1;
        m.srcShard = 0;
        m.dstShard = 1;
        engine.post(m);
    });
    engine.run(kUntil);
    EXPECT_EQ(hops.load(), kUntil) << "one hop per tick, 1..kUntil";
}

TEST(ShardedEngine, MutualBurstThroughFullRingsDoesNotDeadlock)
{
    // Both shards burst far past the ring capacity at each other
    // inside one horizon window. The producers overrun both full
    // rings at once; post() must drain its own inbound rings while
    // spinning, or A blocks pushing to B's full ring while B blocks
    // pushing to A's and neither ever drains.
    sim::ShardedEngine::Config cfg;
    cfg.shards = 2;
    cfg.lookahead = 10;
    cfg.ringCapacity = 4;
    sim::ShardedEngine engine(cfg);

    constexpr unsigned kBurst = 64;
    std::atomic<unsigned> got0{0}, got1{0};
    engine.invokeOn(0, [&] {
        engine.bind(0, 1, [&got0](const sim::BoundaryMsg &) { ++got0; });
    });
    engine.invokeOn(1, [&] {
        engine.bind(1, 1, [&got1](const sim::BoundaryMsg &) { ++got1; });
    });
    for (unsigned s = 0; s < 2; ++s) {
        engine.invokeOn(s, [&, s] {
            engine.queue(s).schedule(1, [&, s] {
                for (unsigned i = 0; i < kBurst; ++i) {
                    sim::BoundaryMsg m{};
                    m.when = engine.queue(s).now() + cfg.lookahead;
                    m.orderKey = (std::uint64_t(s + 1) << 32) | i;
                    m.kind = 1;
                    m.srcShard = std::uint16_t(s);
                    m.dstShard = std::uint16_t(1 - s);
                    m.a = i;
                    engine.post(m);
                }
            });
        });
    }
    engine.run(100);
    EXPECT_EQ(got0.load(), kBurst);
    EXPECT_EQ(got1.load(), kBurst);
}

TEST(ShardedEngine, RoundNeverAdvancesPastOneLookahead)
{
    // Regression: a round used to run to min(until, horizon - 1). A
    // shard one lookahead behind its neighbor then ran two lookaheads
    // while the neighbor blocked, and the shards took turns instead
    // of running together. Each round is now capped at one lookahead
    // past the shard's own floor.
    sim::ShardedEngine::Config cfg;
    cfg.shards = 2;
    cfg.lookahead = 100;
    sim::ShardedEngine engine(cfg);

    constexpr sim::Time kWindow = 400000;
    constexpr sim::Time kStep = 7;
    std::atomic<std::uint64_t> received{0};
    std::uint64_t sent[2] = {0, 0}, due[2] = {0, 0};
    // Busy self-rescheduling chain on each shard; every third hop
    // posts to the neighbor one to two lookaheads ahead.
    std::function<void(unsigned, std::uint64_t)> hop =
        [&](unsigned s, std::uint64_t i) {
            sim::EventQueue &q = engine.queue(s);
            if (i % 3 == 0) {
                sim::BoundaryMsg m{};
                m.when = q.now() + cfg.lookahead + (i % 97);
                m.orderKey = (std::uint64_t(s) << 40) | i;
                m.kind = 1;
                m.srcShard = std::uint16_t(s);
                m.dstShard = std::uint16_t(1 - s);
                engine.post(m);
                ++sent[s];
                due[s] += m.when <= kWindow;
            }
            q.scheduleAfter(kStep, [&hop, s, i] { hop(s, i + 1); });
        };
    for (unsigned s = 0; s < 2; ++s) {
        engine.invokeOn(s, [&, s] {
            engine.bind(s, 1,
                        [&received](const sim::BoundaryMsg &) { ++received; });
            engine.queue(s).schedule(0, [&hop, s] { hop(s, 0); });
        });
    }
    engine.run(kWindow);

    for (unsigned s = 0; s < 2; ++s) {
        const sim::ShardedEngine::SyncStats &st = engine.syncStats(s);
        EXPECT_LE(st.maxAdvance, cfg.lookahead)
            << "shard " << s << " ran past one lookahead in a round";
        EXPECT_GE(st.rounds, kWindow / cfg.lookahead)
            << "shard " << s << " made too few productive rounds";
        EXPECT_GT(st.drained, 0u);
    }
    // Every message due by the deadline ran; none due later did.
    EXPECT_EQ(received.load(), due[0] + due[1]);
    EXPECT_EQ(engine.posted(), sent[0] + sent[1]);
}

TEST(ShardedEngineDeath, LookaheadViolationAborts)
{
    // The lookahead floor is enforced in ALL builds: a violating send
    // clamped into the receiver's past would silently break the
    // determinism contract, so post() aborts instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            sim::ShardedEngine::Config cfg;
            cfg.shards = 2;
            cfg.lookahead = 100;
            sim::ShardedEngine engine(cfg);
            engine.invokeOn(1, [&] {
                engine.bind(1, 1, [](const sim::BoundaryMsg &) {});
            });
            engine.invokeOn(0, [&] {
                sim::BoundaryMsg m{};
                m.when = 99; // sender now() == 0: inside the window
                m.orderKey = 1;
                m.kind = 1;
                m.srcShard = 0;
                m.dstShard = 1;
                engine.post(m);
            });
            engine.run(1000);
        },
        "lookahead window");
}

TEST(EventQueueDeath, BoundaryScheduledInThePastAborts)
{
    // scheduleBoundary never clamps a past delivery to now: that
    // would hide a causality violation as silent nondeterminism.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            sim::EventQueue eq;
            eq.schedule(50, [] {});
            eq.runUntil(50);
            eq.scheduleBoundary(49, 1, [] {});
        },
        "boundary event in the past");
}

// ---------------------------------------------------------------
// Differential oracle: 1 shard vs N shards, bit-identical
// ---------------------------------------------------------------

namespace {

/**
 * Run a fixed ring-exchange workload on @p shards facets and digest
 * every per-rank observable that must not depend on the partition:
 * completion times, delivery order, QP wire counters, NPF counts.
 * (wrIds are facet-local and deliberately excluded.)
 */
std::uint64_t
runPartitioned(unsigned ranks, unsigned shards,
               sim::Time lookahead = net::kFdrFabric.recordLookahead())
{
    sim::ShardedEngine::Config ec;
    ec.shards = shards;
    // Any lookahead <= the cluster fabric's recordLookahead() is
    // legal; smaller just syncs more.
    ec.lookahead = lookahead;
    sim::ShardedEngine engine(ec);

    std::vector<std::unique_ptr<hpc::Cluster>> facets(shards);
    // completions[rank] = times of that rank's sends+recvs, in the
    // order they completed on the owning shard (single-threaded per
    // rank, so no synchronization needed).
    std::vector<std::vector<sim::Time>> completions(ranks);

    for (unsigned s = 0; s < shards; ++s) {
        engine.invokeOn(s, [&, s] {
            hpc::ClusterConfig cfg;
            cfg.ranks = ranks;
            cfg.memoryPerRank = 1ull << 30;
            cfg.engine = &engine;
            cfg.shard = s;
            cfg.shards = shards;
            facets[s] = std::make_unique<hpc::Cluster>(
                engine.queue(s), cfg, core::RegMode::Npf);
        });
    }
    for (unsigned s = 0; s < shards; ++s) {
        engine.invokeOn(s, [&, s] {
            hpc::Cluster &c = *facets[s];
            // Ring exchange, one eager and one rendezvous message per
            // direction, posted up front.
            for (unsigned r = 0; r < ranks; ++r) {
                if (!c.ownsRank(r))
                    continue;
                unsigned next = (r + 1) % ranks;
                unsigned prev = (r + ranks - 1) % ranks;
                for (std::size_t len : {std::size_t(4096),
                                        std::size_t(256 * 1024)}) {
                    mem::VirtAddr sb = c.allocBuffer(r, len);
                    mem::VirtAddr rb = c.allocBuffer(r, len);
                    c.irecv(r, prev, rb, len, [&, r, s] {
                        completions[r].push_back(
                            engine.queue(s).now());
                    });
                    c.isend(r, next, sb, len, [&, r, s] {
                        completions[r].push_back(
                            engine.queue(s).now());
                    });
                }
            }
        });
    }

    engine.run(100 * sim::kMillisecond);

    // Gather per-rank counters first (on the owning threads), then
    // digest strictly in rank order so the digest cannot depend on
    // which shard owned which rank.
    std::vector<std::uint64_t> npfs(ranks), pages(ranks);
    for (unsigned s = 0; s < shards; ++s) {
        engine.invokeOn(s, [&] {
            hpc::Cluster &c = *facets[s];
            for (unsigned r = 0; r < ranks; ++r) {
                if (!c.ownsRank(r))
                    continue;
                npfs[r] = c.npfc(r).stats().npfs;
                pages[r] = c.npfc(r).stats().pagesMapped;
            }
            facets[s].reset(); // die on the thread that built them
        });
    }
    Digest d;
    for (unsigned r = 0; r < ranks; ++r) {
        // 2 sends + 2 recvs per rank must all have completed.
        EXPECT_EQ(completions[r].size(), 4u)
            << "rank " << r << " with " << shards << " shards";
        d.mix(r);
        for (sim::Time t : completions[r])
            d.mix(t);
        d.mix(npfs[r]);
        d.mix(pages[r]);
    }
    return d.h;
}

} // namespace

TEST(ShardDifferential, PartitionCountDoesNotChangeObservables)
{
    const unsigned ranks = 4;
    std::uint64_t one = runPartitioned(ranks, 1);
    std::uint64_t two = runPartitioned(ranks, 2);
    std::uint64_t four = runPartitioned(ranks, 4);
    EXPECT_EQ(one, two) << "2-shard run diverged from the 1-shard oracle";
    EXPECT_EQ(one, four)
        << "4-shard run diverged from the 1-shard oracle";
}

TEST(ShardDifferential, ReplayIsBitIdentical)
{
    std::uint64_t a = runPartitioned(4, 2);
    std::uint64_t b = runPartitioned(4, 2);
    EXPECT_EQ(a, b) << "same partition, same seed, different digest";
}

TEST(ShardDifferential, LookaheadDoesNotChangeObservables)
{
    // Lookahead only sets how far shards run between syncs; any legal
    // value must produce the same simulation. A divergence here means
    // the horizon math executed an event it should not have.
    std::uint64_t coarse = runPartitioned(4, 2); // the fabric's bound
    std::uint64_t fine = runPartitioned(4, 2, 100);
    EXPECT_EQ(coarse, fine)
        << "lookahead changed the simulation's observables";
}

TEST(ShardDifferential, StreamWorldFabricBoundsShardScaleLookahead)
{
    // shard_scale runs its engine at StreamWorld::kFabric's record
    // lookahead; the fabric each shard's world builds must allow it,
    // or the sharded run stops matching the 1-shard run.
    const sim::Time lookahead =
        scenario::StreamWorld::kFabric.recordLookahead();
    sim::ShardedEngine::Config ec;
    ec.shards = 2;
    ec.lookahead = lookahead;
    sim::ShardedEngine engine(ec);
    for (unsigned s = 0; s < ec.shards; ++s) {
        engine.invokeOn(s, [&, s] {
            scenario::StreamWorld w(engine.queue(s), engine, s, ec.shards);
            EXPECT_EQ(w.fabric->recordLookahead(), lookahead);
        });
    }
}

// ---------------------------------------------------------------
// Debug-build ownership assertions
// ---------------------------------------------------------------

#ifndef NDEBUG

TEST(OwnerAssertDeath, PoolUseFromForeignThreadAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            sim::Pool<int> pool;
            std::thread([&pool] { (void)pool.create(7); }).join();
        },
        "non-owner");
}

TEST(OwnerAssertDeath, RegistryMutationFromForeignThreadAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            obs::Registry reg;
            static std::uint64_t v = 0;
            std::thread([&reg] { reg.addCounter("x", &v); }).join();
        },
        "non-owner");
}

TEST(OwnerAssert, RebindMovesOwnership)
{
    sim::Pool<int> pool;
    std::thread([&pool] {
        pool.rebindOwner();
        auto h = pool.create(1);
        EXPECT_EQ(*pool.get(h), 1);
        pool.release(h);
        pool.rebindOwner(); // hand back is the worker's job too --
    }).join();
    // -- but this rebind ran on the worker; take it back here.
    pool.rebindOwner();
    auto h = pool.create(2);
    EXPECT_EQ(*pool.get(h), 2);
    pool.release(h);
}

#endif // !NDEBUG
