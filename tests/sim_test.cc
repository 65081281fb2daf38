/**
 * @file
 * Unit tests for the discrete-event core: queue ordering, time
 * semantics, cancellation, statistics containers, RNG determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "heap_event_queue.hh"
#include "sim/delegate.hh"
#include "sim/event_queue.hh"
#include "sim/histogram.hh"
#include "sim/random.hh"
#include "sim/series.hh"

using namespace npf;

TEST(EventQueue, StartsAtZero)
{
    sim::EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PastSchedulingClampsToNow)
{
    sim::EventQueue eq;
    sim::Time seen = 12345;
    eq.schedule(100, [&] {
        eq.schedule(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 100u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    sim::EventQueue eq;
    bool ran = false;
    sim::EventId id = eq.schedule(10, [&] { ran = true; });
    eq.cancel(id);
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterRun)
{
    sim::EventQueue eq;
    int runs = 0;
    sim::EventId id = eq.schedule(10, [&] { ++runs; });
    eq.run();
    eq.cancel(id); // already ran: no-op
    eq.cancel(id);
    eq.schedule(20, [&] { ++runs; });
    eq.run();
    EXPECT_EQ(runs, 2);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    sim::EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(21, [&] { ++count; });
    eq.runUntil(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 20u);
    eq.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    sim::EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            eq.scheduleAfter(1, chain);
    };
    eq.scheduleAfter(1, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilConditionStopsEarly)
{
    sim::EventQueue eq;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        eq.schedule(sim::Time(i), [&] { ++count; });
    bool ok = eq.runUntilCondition([&] { return count == 4; },
                                   1000);
    EXPECT_TRUE(ok);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.now(), 4u);
}

TEST(Time, Conversions)
{
    EXPECT_EQ(sim::fromMicroseconds(1.0), sim::kMicrosecond);
    EXPECT_EQ(sim::fromSeconds(1.0), sim::kSecond);
    EXPECT_DOUBLE_EQ(sim::toSeconds(sim::kSecond), 1.0);
    EXPECT_DOUBLE_EQ(sim::toMicroseconds(1500), 1.5);
}

/**
 * Seeded oracle: log-uniform samples over six decades against an
 * exact sorted-vector nearest-rank reference. Every percentile is a
 * bucket midpoint, so it must sit within the 256-sub-bucket bound
 * (0.2% relative) of the exact one; count/sum/min/max are exact, and
 * merging two histograms equals one fed both streams.
 */
TEST(Histogram, PercentilesNearestRank)
{
    sim::Rng rng(42);
    sim::Histogram a, b, both;
    std::vector<double> exact;
    double sum = 0;
    for (int i = 0; i < 50000; ++i) {
        double v = std::pow(10.0, rng.uniform(-1.0, 5.0));
        (i % 3 == 0 ? a : b).record(v);
        both.record(v);
        exact.push_back(v);
        sum += v;
    }
    std::sort(exact.begin(), exact.end());
    std::vector<double> ps = {99.9};
    for (int p = 0; p <= 100; ++p)
        ps.push_back(p);
    for (double p : ps) {
        std::size_t rank = std::max<std::size_t>(
            1, std::size_t(std::ceil(p / 100.0 * double(exact.size()))));
        double want = exact[rank - 1];
        EXPECT_NEAR(both.percentile(p), want, want * 0.002) << "p" << p;
    }
    EXPECT_EQ(both.count(), exact.size());
    EXPECT_DOUBLE_EQ(both.sum(), sum);
    EXPECT_DOUBLE_EQ(both.min(), exact.front());
    EXPECT_DOUBLE_EQ(both.max(), exact.back());

    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_DOUBLE_EQ(a.min(), both.min());
    EXPECT_DOUBLE_EQ(a.max(), both.max());
    EXPECT_NEAR(a.sum(), both.sum(), both.sum() * 1e-12);
    for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), both.percentile(p)) << "p" << p;
}

TEST(Histogram, EmptyIsSafe)
{
    sim::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, RecordAfterQueryStaysSorted)
{
    sim::Histogram h;
    h.record(5);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
    h.record(1);
    h.record(9);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
}

TEST(RateSeries, BucketsAndRates)
{
    sim::RateSeries s(sim::kSecond);
    s.record(0);
    s.record(sim::kSecond / 2);
    s.record(3 * sim::kSecond + 1);
    EXPECT_EQ(s.buckets(), 4u);
    EXPECT_DOUBLE_EQ(s.rate(0), 2.0);
    EXPECT_DOUBLE_EQ(s.rate(1), 0.0);
    EXPECT_DOUBLE_EQ(s.rate(3), 1.0);
    EXPECT_DOUBLE_EQ(s.total(), 3.0);
}

TEST(EventQueue, CancelOfExecutedIdDoesNotLeak)
{
    // Regression: cancelling an id that already ran used to park the
    // id in the cancelled set forever (nothing ever reaped it), so
    // long retransmit-timer workloads leaked memory and live() went
    // wrong. Executed ids must be ignored outright.
    sim::EventQueue eq;
    for (int i = 0; i < 1000; ++i) {
        sim::EventId id = eq.schedule(eq.now() + 1, [] {});
        eq.run();
        eq.cancel(id); // already executed: must be a no-op
    }
    EXPECT_EQ(eq.stats().cancelled, 0u);
    EXPECT_EQ(eq.live(), 0u);
}

TEST(EventQueue, CancelReclaimsEntryImmediately)
{
    // The ladder engine unlinks a cancelled entry in O(1) and recycles
    // its slot on the spot, so live() drops at once (the old heap
    // engine kept cancelled entries queued until they bubbled to the
    // top).
    sim::EventQueue eq;
    sim::EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    eq.schedule(30, [] {});
    EXPECT_EQ(eq.live(), 3u);
    eq.cancel(a);
    EXPECT_EQ(eq.live(), 2u);
    EXPECT_EQ(eq.stats().cancelled, 1u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(eq.stats().executed, 2u);
    EXPECT_EQ(eq.stats().cancelled, 1u);
    EXPECT_EQ(eq.live(), 0u);
}

TEST(EventQueue, RunUntilReapsCancelledTop)
{
    // Regression: a cancelled event at the top of the heap must not
    // make runUntil() believe the next live event is inside the
    // window.
    sim::EventQueue eq;
    bool b_ran = false;
    sim::EventId a = eq.schedule(5, [] {});
    eq.schedule(100, [&] { b_ran = true; });
    eq.cancel(a);
    eq.runUntil(10);
    EXPECT_FALSE(b_ran);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.stats().cancelled, 1u);
    eq.run();
    EXPECT_TRUE(b_ran);
}

TEST(EventQueue, DoubleCancelCountsOnce)
{
    sim::EventQueue eq;
    sim::EventId id = eq.schedule(10, [] {});
    eq.cancel(id);
    eq.cancel(id);
    EXPECT_EQ(eq.stats().cancelled, 1u);
    eq.run();
    EXPECT_EQ(eq.stats().executed, 0u);
    EXPECT_EQ(eq.stats().cancelled, 1u);
}

namespace {

/** Executions counted for site text @p site ("" = unlabeled). */
std::uint64_t
siteCount(const sim::EventQueue &eq, const std::string &site)
{
    std::uint64_t n = 0;
    for (const auto &[label, sp] : eq.siteProfiles())
        if (label == site)
            n += sp.count;
    return n;
}

} // namespace

TEST(EventQueue, SiteCountsSeeSiteLabels)
{
    sim::EventQueue eq;
    eq.enableSiteCounts(true);
    eq.schedule(1, [] {}, "tx");
    eq.schedule(2, [] {}, "tx");
    eq.schedule(3, [] {}, "rx");
    eq.schedule(4, [] {});
    eq.run();
    EXPECT_EQ(siteCount(eq, "tx"), 2u);
    EXPECT_EQ(siteCount(eq, "rx"), 1u);
    EXPECT_EQ(siteCount(eq, ""), 1u);
    for (const auto &[label, sp] : eq.siteProfiles())
        EXPECT_EQ(sp.wallNs, 0u) << "counting alone reads no clock";
    eq.enableSiteCounts(false);
    eq.schedule(5, [] {});
    eq.run();
    EXPECT_EQ(siteCount(eq, ""), 1u);
}

TEST(Histogram, ClearResets)
{
    sim::Histogram h;
    h.record(3);
    h.record(7);
    h.clear();
    EXPECT_TRUE(h.empty());
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.record(4);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Histogram, ExtremePercentiles)
{
    sim::Histogram h;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        h.record(v);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    // p <= 0 is the lowest sample's bucket midpoint; p >= 100 is the
    // exact maximum.
    EXPECT_NEAR(h.percentile(0), 2.0, 2.0 * 0.002);
    EXPECT_DOUBLE_EQ(h.percentile(-5), h.percentile(0));
    EXPECT_DOUBLE_EQ(h.percentile(100), 9.0);
    EXPECT_DOUBLE_EQ(h.percentile(250), 9.0);
}

TEST(RateSeries, OutOfRangeAndWeightedCounts)
{
    sim::RateSeries s(sim::kMillisecond);
    s.record(0, 5.0);
    s.record(2 * sim::kMillisecond + 1, 2.5);
    EXPECT_EQ(s.buckets(), 3u);
    EXPECT_DOUBLE_EQ(s.count(0), 5.0);
    EXPECT_DOUBLE_EQ(s.count(1), 0.0);
    EXPECT_DOUBLE_EQ(s.count(2), 2.5);
    EXPECT_DOUBLE_EQ(s.count(99), 0.0); // beyond range: 0, no grow
    EXPECT_DOUBLE_EQ(s.rate(99), 0.0);
    EXPECT_EQ(s.buckets(), 3u);
    EXPECT_EQ(s.bucketStart(2), 2 * sim::kMillisecond);
    EXPECT_DOUBLE_EQ(s.total(), 7.5);
}

TEST(Rng, DeterministicForSameSeed)
{
    sim::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, BernoulliEdges)
{
    sim::Rng r(1);
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

TEST(Rng, UniformIntBounds)
{
    sim::Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(3, 9);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 9u);
    }
}

TEST(EventQueue, ScheduleAfterSaturatesAtEndOfTime)
{
    // Regression: now_ + delay on unsigned Time wrapped for "never"
    // sentinel delays (e.g. ~0ull), got clamped to now(), and fired
    // immediately. The sum must saturate at kTimeMax instead.
    sim::EventQueue eq;
    bool never_fired = false;
    eq.schedule(100, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 100u);
    eq.scheduleAfter(sim::kTimeMax, [&] { never_fired = true; });
    eq.scheduleAfter(sim::kTimeMax - 50, [&] { never_fired = true; });
    eq.runUntil(1000 * sim::kSecond);
    EXPECT_FALSE(never_fired) << "a sentinel delay wrapped and fired";
    EXPECT_EQ(eq.now(), 1000 * sim::kSecond);
    // The sentinels still exist at the far horizon; a full drain
    // executes them at the end of time, not before.
    eq.run();
    EXPECT_TRUE(never_fired);
    EXPECT_EQ(eq.now(), sim::kTimeMax);
}

TEST(Time, SaturatingAdd)
{
    EXPECT_EQ(sim::saturatingAdd(0, 5), 5u);
    EXPECT_EQ(sim::saturatingAdd(10, sim::kTimeMax - 10), sim::kTimeMax);
    EXPECT_EQ(sim::saturatingAdd(11, sim::kTimeMax - 10), sim::kTimeMax);
    EXPECT_EQ(sim::saturatingAdd(sim::kTimeMax, sim::kTimeMax),
              sim::kTimeMax);
}

TEST(EventQueue, RunUntilConditionClampsClockLikeRunUntil)
{
    // Regression: runUntilCondition() returned without advancing
    // now() to the deadline when the predicate never fired, so a
    // caller alternating it with runUntil() saw a stalled clock and
    // re-ran already-elapsed windows.
    sim::EventQueue eq;
    int count = 0;
    eq.schedule(5, [&] { ++count; });
    bool ok = eq.runUntilCondition([&] { return count >= 2; }, 100);
    EXPECT_FALSE(ok);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 100u) << "failed wait must clamp like runUntil";

    // Mixed-call sequence: each window advances the clock exactly
    // once; no window is observed twice.
    eq.schedule(150, [&] { ++count; });
    eq.runUntil(200);
    EXPECT_EQ(eq.now(), 200u);
    ok = eq.runUntilCondition([&] { return false; }, 300);
    EXPECT_FALSE(ok);
    EXPECT_EQ(eq.now(), 300u);
    eq.runUntil(400);
    EXPECT_EQ(eq.now(), 400u);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunUntilConditionDoesNotClampOnSuccess)
{
    sim::EventQueue eq;
    int count = 0;
    for (int i = 1; i <= 5; ++i)
        eq.schedule(sim::Time(i * 10), [&] { ++count; });
    bool ok = eq.runUntilCondition([&] { return count == 2; }, 1000);
    EXPECT_TRUE(ok);
    EXPECT_EQ(eq.now(), 20u) << "success stops at the satisfying event";
    // An immediately-true predicate runs nothing and moves nothing.
    ok = eq.runUntilCondition([] { return true; }, 500);
    EXPECT_TRUE(ok);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, CallbackStoppingSiteCountsIsHonouredSameStep)
{
    // A callback that finishes an obs::Session mid-run turns site
    // counting off; the engine re-reads the flag after the callback,
    // so neither that event nor a later one is counted.
    sim::EventQueue eq;
    eq.enableSiteCounts(true);
    eq.schedule(5, [] {}, "before");
    eq.schedule(10, [&] { eq.enableSiteCounts(false); }, "stop");
    eq.schedule(20, [] {}, "after");
    eq.run();
    EXPECT_EQ(siteCount(eq, "before"), 1u);
    EXPECT_EQ(siteCount(eq, "stop"), 0u);
    EXPECT_EQ(siteCount(eq, "after"), 0u);
}

TEST(EventQueue, CallbackStartingSiteCountsSeesItSameStep)
{
    // The flip side of the re-read contract: counting turned on from
    // inside a callback counts that very event.
    sim::EventQueue eq;
    eq.schedule(10, [&] { eq.enableSiteCounts(true); }, "start");
    eq.schedule(20, [] {}, "start");
    eq.run();
    EXPECT_EQ(siteCount(eq, "start"), 2u)
        << "the starting event and the one after";
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsRejected)
{
    // Generation stamps: cancelling a stale handle whose slab slot
    // was recycled must not touch the new occupant.
    sim::EventQueue eq;
    bool first = false, second = false;
    sim::EventId a = eq.schedule(10, [&] { first = true; });
    eq.cancel(a); // frees the slot
    sim::EventId b = eq.schedule(20, [&] { second = true; });
    EXPECT_NE(a, b);
    eq.cancel(a); // stale: same slot, older generation
    eq.run();
    EXPECT_FALSE(first);
    EXPECT_TRUE(second);
    EXPECT_EQ(eq.stats().cancelled, 1u);
    EXPECT_EQ(eq.stats().executed, 1u);
}

TEST(EventQueue, WheelLevelsExecuteInOrderAcrossHugeSpans)
{
    // One event per wheel level: nanoseconds apart through days and
    // centuries apart. The first one scheduled anchors the idle wheel
    // at 0 (an idle queue re-anchors at its next event), so the rest,
    // scheduled latest first, file by their distance from 0.
    sim::EventQueue eq;
    std::vector<sim::Time> fired;
    const sim::Time whens[] = {
        3,                             // imminent window
        500,                           // imminent window
        40 * sim::kMicrosecond,        // level 0
        9 * sim::kMillisecond,         // level 1
        3 * sim::kSecond,              // level 2
        20 * 60 * sim::kSecond,        // level 3
        40 * 3600 * sim::kSecond,      // level 4 (hours)
        300ull * 86400 * sim::kSecond, // level 5 (days)
        (sim::Time(1) << 62) + 12345,  // level 6: past levels 0-5
        (sim::Time(3) << 62) + 7,      // level 6, its last slot
        sim::kTimeMax,                 // level 6: "never"
    };
    constexpr int n = sizeof(whens) / sizeof(whens[0]);
    auto record = [&fired, &eq] { fired.push_back(eq.now()); };
    eq.schedule(whens[0], record);
    for (int i = n - 1; i > 0; --i)
        eq.schedule(whens[i], record);
    eq.run();
    ASSERT_EQ(fired.size(), std::size_t(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(fired[i], whens[i]);
}

TEST(EventQueue, SameTickFifoSurvivesCascading)
{
    // Events landing on one far-future tick from different distances
    // (some direct, some rescheduled closer to the tick) must still
    // run in schedule order once the tick arrives.
    sim::EventQueue eq;
    const sim::Time tick = 2 * sim::kSecond + 37;
    std::vector<int> order;
    eq.schedule(tick, [&] { order.push_back(0); }); // via coarse level
    eq.schedule(sim::kSecond, [&eq, &order, tick] {
        // Scheduled mid-flight from a nearer vantage point: later
        // sequence number, so it must run after event 0.
        eq.schedule(tick, [&order] { order.push_back(1); });
    });
    eq.schedule(tick, [&] { order.push_back(2); });
    eq.run();
    // Sequence order is 0, 2 (scheduled immediately), then 1
    // (scheduled at t=1s).
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
    EXPECT_EQ(eq.now(), tick);
}

TEST(EventQueue, TimerRestartPatternRecyclesSlots)
{
    // The cancel-heavy hot pattern: arm a far-out retransmit timer,
    // cancel it, re-arm. Slots must recycle through the free list
    // instead of accumulating dead entries.
    sim::EventQueue eq;
    sim::EventId timer = sim::kInvalidEvent;
    for (int i = 0; i < 100000; ++i) {
        eq.cancel(timer);
        timer = eq.scheduleAfter(200 * sim::kMillisecond, [] {});
        EXPECT_EQ(eq.live(), 1u);
    }
    EXPECT_EQ(eq.stats().cancelled, 99999u);
    eq.run();
    EXPECT_EQ(eq.stats().executed, 1u);
}

TEST(EventQueue, CancelFromInsideCallbacks)
{
    sim::EventQueue eq;
    bool victim_ran = false;
    sim::EventId victim =
        eq.schedule(50, [&] { victim_ran = true; });
    eq.schedule(10, [&] { eq.cancel(victim); });
    // Also cancel an event sitting in the same imminent window.
    bool near_ran = false;
    sim::EventId near_id = eq.schedule(12, [&] { near_ran = true; });
    eq.schedule(11, [&] { eq.cancel(near_id); });
    eq.run();
    EXPECT_FALSE(victim_ran);
    EXPECT_FALSE(near_ran);
    EXPECT_EQ(eq.stats().cancelled, 2u);
}

TEST(Delegate, InlineStorageForSmallCaptures)
{
    int hits = 0;
    auto small = [&hits] { ++hits; };
    sim::Delegate d(small);
    ASSERT_TRUE(bool(d));
    d();
    d();
    EXPECT_EQ(hits, 2);
    sim::Delegate moved(std::move(d));
    moved();
    EXPECT_EQ(hits, 3);
}

TEST(Delegate, DestroysCapturesExactlyOnce)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        sim::Delegate d([token] { (void)*token; });
        token.reset();
        EXPECT_FALSE(watch.expired()) << "capture keeps it alive";
        d();
        sim::Delegate d2(std::move(d));
        sim::Delegate d3;
        d3 = std::move(d2);
        d3();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired()) << "capture destroyed with delegate";
}

TEST(Delegate, CopyAssignReplacesExisting)
{
    int a = 0, b = 0;
    sim::Delegate da([&a] { ++a; });
    sim::Delegate db([&b] { ++b; });
    da = db;
    da();
    db();
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 2);
    da = sim::Delegate();
    EXPECT_FALSE(bool(da));
}

TEST(EventQueue, HotPathClosuresStayInline)
{
    // The fattest real per-packet closure shape in the tree (an
    // ib::QueuePair-style packet of ~80 bytes plus a peer pointer)
    // must fit the delegate's inline buffer; shrinking the buffer
    // below it fails to compile here.
    struct PacketLike
    {
        int type, op;
        std::uint64_t a, b, c, d, e, f, g;
        bool x, y;
    };
    struct Peer
    {
        std::uint64_t taken = 0;
        void take(PacketLike p) { taken += p.g; }
    };
    Peer sink;
    Peer *peer = &sink;
    PacketLike pkt{};
    pkt.g = 7;
    sim::EventQueue eq;
    eq.schedule(1, [peer, pkt] { peer->take(pkt); });
    eq.run();
    EXPECT_EQ(sink.taken, 7u);
}

namespace {

/**
 * A callable that counts its copies and moves, and records how many
 * had happened by the time it ran.
 */
struct Counted
{
    static inline int copies = 0;
    static inline int moves = 0;
    int *ranAfter; ///< copies + moves seen by the call, -1 if not run

    explicit Counted(int *ran_after) : ranAfter(ran_after) {}
    Counted(const Counted &o) : ranAfter(o.ranAfter) { ++copies; }
    Counted(Counted &&o) noexcept : ranAfter(o.ranAfter) { ++moves; }
    Counted &operator=(const Counted &) = delete;
    Counted &operator=(Counted &&) = delete;

    void operator()() { *ranAfter = copies + moves; }

    static void reset() { copies = moves = 0; }
};

} // namespace

TEST(Delegate, BuildsAnRvalueWithOneMoveAndAnLvalueWithOneCopy)
{
    int ran = -1;
    {
        Counted::reset();
        sim::Delegate d(Counted{&ran});
        EXPECT_EQ(Counted::moves, 1);
        EXPECT_EQ(Counted::copies, 0);
        d();
        EXPECT_EQ(ran, 1);
    }
    {
        Counted c(&ran);
        Counted::reset();
        sim::Delegate d(c);
        EXPECT_EQ(Counted::copies, 1);
        EXPECT_EQ(Counted::moves, 0);
        sim::Delegate e;
        e.assign(Counted{&ran});
        EXPECT_EQ(Counted::copies, 1);
        EXPECT_EQ(Counted::moves, 1);
        e.assign(c);
        EXPECT_EQ(Counted::copies, 2);
        EXPECT_EQ(Counted::moves, 1);
    }
}

TEST(EventQueue, BuildsEachCallableOnceAndRunsItInPlace)
{
    sim::EventQueue eq;
    int ran = -1;
    Counted::reset();
    eq.schedule(10, Counted{&ran});
    eq.run();
    EXPECT_EQ(ran, 1) << "one move into the entry, none after it";
    EXPECT_EQ(Counted::moves, 1);
    EXPECT_EQ(Counted::copies, 0);

    Counted c(&ran);
    Counted::reset();
    eq.scheduleAfter(10, c);
    eq.run();
    EXPECT_EQ(ran, 1) << "one copy into the entry, nothing after it";
    EXPECT_EQ(Counted::copies, 1);
    EXPECT_EQ(Counted::moves, 0);

    Counted b(&ran);
    Counted::reset();
    eq.scheduleBoundary(eq.now() + 10, 1, std::move(b));
    eq.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(Counted::copies, 0);
    EXPECT_EQ(Counted::moves, 1);
}

TEST(EventQueue, CallbackCancellingItselfRunsOnce)
{
    sim::EventQueue eq;
    int runs = 0;
    sim::EventId self = sim::kInvalidEvent;
    self = eq.schedule(10, [&] {
        ++runs;
        eq.cancel(self);
        eq.cancel(self);
    });
    int later = 0;
    eq.schedule(20, [&] { ++later; });
    eq.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(later, 1);
    EXPECT_EQ(eq.stats().cancelled, 0u);
    EXPECT_EQ(eq.stats().executed, 2u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CaptureSurvivesSlabGrowthUnderItsCallback)
{
    sim::EventQueue eq;
    std::array<std::uint64_t, 9> pattern{};
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = 0x9e3779b97f4a7c15ull * (i + 1);
    const std::uint32_t burst = 3 * sim::EventQueue::kChunkEntries;
    int fired = 0;
    bool intact = false;
    auto grow = [q = &eq, pattern, burst, &fired, &intact] {
        for (std::uint32_t i = 0; i < burst; ++i)
            q->scheduleAfter(i, [&fired] { ++fired; });
        intact = true;
        for (std::size_t i = 0; i < pattern.size(); ++i)
            intact = intact && pattern[i] == 0x9e3779b97f4a7c15ull * (i + 1);
    };
    static_assert(sizeof(pattern) + sizeof(&eq) == 80);
    eq.schedule(5, std::move(grow));
    eq.run();
    EXPECT_TRUE(intact) << "the running entry moved under its callback";
    EXPECT_EQ(fired, int(burst));
}

namespace {

/**
 * A capture whose destructor schedules an event, so the engine must
 * not hand the entry being released to that event before the
 * destructor returns: the canary, first in the capture where the
 * scheduled closure would land, must read intact afterwards. A move
 * disarms the source, so only the last owner schedules.
 */
template <typename Q>
struct ScheduleOnDestroy
{
    static constexpr std::uint64_t kCanary = 0x5ca1ab1edeadbeefull;
    std::uint64_t canary = kCanary;
    Q *q;
    std::vector<std::pair<sim::Time, int>> *log;
    int tag;
    bool armed = true;

    ScheduleOnDestroy(Q *queue, std::vector<std::pair<sim::Time, int>> *l,
                      int t)
        : q(queue), log(l), tag(t)
    {
    }
    ScheduleOnDestroy(const ScheduleOnDestroy &) = default;
    ScheduleOnDestroy(ScheduleOnDestroy &&o) noexcept
        : q(o.q), log(o.log), tag(o.tag), armed(std::exchange(o.armed, false))
    {
    }

    ~ScheduleOnDestroy()
    {
        if (!armed)
            return;
        auto *l = log;
        Q *queue = q;
        int t = tag + 1000;
        q->schedule(q->now(), [l, queue, t] {
            l->emplace_back(queue->now(), t);
        });
        if (canary != kCanary)
            l->emplace_back(queue->now(), -1);
    }

    void
    operator()()
    {
        log->emplace_back(q->now(), tag);
        auto *l = log;
        Q *queue = q;
        int t = tag + 500;
        q->scheduleAfter(3, [l, queue, t] {
            l->emplace_back(queue->now(), t);
        });
    }
};

template <typename Q>
std::vector<std::pair<sim::Time, int>>
destructorScheduleOrder()
{
    Q q;
    std::vector<std::pair<sim::Time, int>> log;
    for (int i = 0; i < 6; ++i) {
        q.schedule(sim::Time(10 + 3 * (i % 3)),
                   ScheduleOnDestroy<Q>(&q, &log, i));
        q.schedule(sim::Time(10 + 3 * (i % 2)), [&log, &q, i] {
            log.emplace_back(q.now(), 100 + i);
        });
    }
    q.run();
    return log;
}

} // namespace

TEST(EventQueue, EventScheduledByCaptureDestructorRunsInOracleOrder)
{
    auto got = destructorScheduleOrder<sim::EventQueue>();
    auto want = destructorScheduleOrder<simtest::HeapEventQueue>();
    EXPECT_EQ(got.size(), 24u);
    EXPECT_EQ(got, want);
}

TEST(Rng, LognormalJitterMedianNearOne)
{
    sim::Rng r(11);
    double sum_log = 0;
    for (int i = 0; i < 20000; ++i)
        sum_log += std::log(r.lognormalJitter(0.1));
    EXPECT_NEAR(sum_log / 20000, 0.0, 0.01);
}
