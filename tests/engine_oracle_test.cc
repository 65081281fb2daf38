/**
 * @file
 * Randomized differential test: the ladder-queue sim::EventQueue
 * versus the retained binary-heap engine (tests/heap_event_queue.hh).
 *
 * The determinism contract says the rewrite is *unobservable* through
 * the public API: for any interleaving of schedule / scheduleAfter /
 * cancel / runUntil / runUntilCondition, both engines must execute
 * the same events in the same global order at the same timestamps,
 * and agree on now() and the final Stats. This test throws N seeded
 * random op streams at both engines side by side and demands exactly
 * that.
 *
 * Handles differ between engines (the heap numbers events densely,
 * the ladder packs slab index + generation), so cancellation targets
 * are chosen by birth order and mapped through parallel id vectors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "heap_event_queue.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"

using namespace npf;

namespace {

/** One executed-event record; both engines must produce equal logs. */
struct Exec
{
    sim::Time when;
    std::uint64_t birth; ///< birth-order index of the event

    bool operator==(const Exec &o) const
    {
        return when == o.when && birth == o.birth;
    }
};

/**
 * Drives both engines through one seeded op stream and checks them
 * against each other after every run-ish op and at the end.
 */
class DifferentialHarness
{
  public:
    explicit DifferentialHarness(std::uint32_t seed) : rng_(seed) {}

    void
    run(int ops)
    {
        for (int i = 0; i < ops; ++i) {
            switch (pick({30, 20, 20, 12, 10, 8})) {
              case 0:
                doSchedule();
                break;
              case 1:
                doScheduleAfter();
                break;
              case 2:
                doCancel();
                break;
              case 3:
                doRunUntil();
                break;
              case 4:
                doRunUntilCondition();
                break;
              case 5:
                doStepBurst();
                break;
            }
            checkClocks();
        }
        // Drain both completely; afterwards every stat must agree,
        // including the lazily-reaped cancellation count.
        ladder_.run();
        oracle_.run();
        checkClocks();
        checkLogs();
        checkFinalStats();
    }

  private:
    /** Weighted choice; weights need not sum to anything special. */
    int
    pick(std::initializer_list<int> weights)
    {
        int total = 0;
        for (int w : weights)
            total += w;
        int r = std::uniform_int_distribution<int>(0, total - 1)(rng_);
        int idx = 0;
        for (int w : weights) {
            if (r < w)
                return idx;
            r -= w;
            ++idx;
        }
        return idx - 1;
    }

    sim::Time
    randomDelay()
    {
        // Mix of horizons so events land in the imminent window,
        // every wheel level, level 6 (beyond 2^62 ns) included.
        switch (pick({30, 30, 20, 10, 6, 4})) {
          case 0: // well inside one 16.4 us window / immediate
            return std::uniform_int_distribution<sim::Time>(0, 63)(rng_);
          case 1: // near future: level 0-1
            return std::uniform_int_distribution<sim::Time>(
                64, 1 << 20)(rng_);
          case 2: // mid: level 1-3
            return std::uniform_int_distribution<sim::Time>(
                1 << 20, sim::Time(1) << 36)(rng_);
          case 3: // far: level 3-5
            return std::uniform_int_distribution<sim::Time>(
                sim::Time(1) << 36, sim::Time(1) << 53)(rng_);
          case 4: // beyond levels 0-5's 2^62 ns span: level 6
            return std::uniform_int_distribution<sim::Time>(
                sim::Time(1) << 62, sim::Time(1) << 63)(rng_);
          default: // sentinel-ish: exercises saturation
            return sim::kTimeMax -
                   std::uniform_int_distribution<sim::Time>(0, 100)(rng_);
        }
    }

    void
    doSchedule()
    {
        std::uint64_t birth = births_++;
        sim::Time when =
            sim::saturatingAdd(ladder_.now(), randomDelay());
        idsNew_.push_back(ladder_.schedule(
            when, [this, birth] { logNew_.push_back({ladder_.now(), birth}); },
            "diff.sched"));
        idsOld_.push_back(oracle_.schedule(
            when, [this, birth] { logOld_.push_back({oracle_.now(), birth}); },
            "diff.sched"));
    }

    void
    doScheduleAfter()
    {
        std::uint64_t birth = births_++;
        sim::Time delay = randomDelay();
        idsNew_.push_back(ladder_.scheduleAfter(
            delay,
            [this, birth] { logNew_.push_back({ladder_.now(), birth}); },
            "diff.after"));
        idsOld_.push_back(oracle_.scheduleAfter(
            delay,
            [this, birth] { logOld_.push_back({oracle_.now(), birth}); },
            "diff.after"));
    }

    void
    doCancel()
    {
        if (births_ == 0)
            return;
        // Bias toward recent events so cancels often hit still-live
        // entries (the interesting case) but sometimes hit executed
        // or already-cancelled ones (the no-op case).
        std::uint64_t target =
            births_ - 1 -
            std::min<std::uint64_t>(
                births_ - 1,
                std::uniform_int_distribution<std::uint64_t>(0, 40)(rng_));
        ladder_.cancel(idsNew_[target]);
        oracle_.cancel(idsOld_[target]);
    }

    void
    doRunUntil()
    {
        sim::Time until =
            sim::saturatingAdd(ladder_.now(), randomDelay());
        ladder_.runUntil(until);
        oracle_.runUntil(until);
        checkLogs();
    }

    void
    doRunUntilCondition()
    {
        sim::Time deadline =
            sim::saturatingAdd(ladder_.now(), randomDelay());
        // Fire until a fixed number of further events have executed;
        // expressed over each engine's own log so both predicates are
        // observationally identical.
        std::size_t goalNew = logNew_.size() + 3;
        std::size_t goalOld = logOld_.size() + 3;
        bool okNew = ladder_.runUntilCondition(
            [&] { return logNew_.size() >= goalNew; }, deadline);
        bool okOld = oracle_.runUntilCondition(
            [&] { return logOld_.size() >= goalOld; }, deadline);
        EXPECT_EQ(okNew, okOld);
        checkLogs();
    }

    void
    doStepBurst()
    {
        int n = std::uniform_int_distribution<int>(1, 5)(rng_);
        for (int i = 0; i < n; ++i) {
            bool a = ladder_.step();
            bool b = oracle_.step();
            ASSERT_EQ(a, b) << "one engine ran dry before the other";
            if (!a)
                break;
        }
        checkLogs();
    }

    void
    checkClocks()
    {
        ASSERT_EQ(ladder_.now(), oracle_.now());
        // live() must agree at all times: both count exactly the
        // events that can still fire. (The oracle's pending()/empty()
        // differ mid-run: the heap reaps cancelled entries lazily, the
        // ladder reclaims them at cancel time, so compare the ladder's
        // emptiness against the oracle's *live* emptiness.)
        ASSERT_EQ(ladder_.live(), oracle_.live());
        ASSERT_EQ(ladder_.empty(), oracle_.live() == 0);
    }

    void
    checkLogs()
    {
        std::size_t from = check_;
        check_ = std::min(logNew_.size(), logOld_.size());
        for (std::size_t i = from; i < check_; ++i) {
            ASSERT_EQ(logNew_[i].when, logOld_[i].when) << "entry " << i;
            ASSERT_EQ(logNew_[i].birth, logOld_[i].birth) << "entry " << i;
        }
        ASSERT_EQ(logNew_.size(), logOld_.size());
    }

    void
    checkFinalStats()
    {
        const auto &sn = ladder_.stats();
        const auto &so = oracle_.stats();
        EXPECT_EQ(sn.scheduled, so.scheduled);
        EXPECT_EQ(sn.executed, so.executed);
        EXPECT_EQ(sn.cancelled, so.cancelled);
        // After a full drain the heap has reaped everything it ever
        // cancelled, so its lazy counts converge to the ladder's eager
        // ones.
        EXPECT_EQ(sn.cancelled, so.cancelledReaped);
        EXPECT_EQ(ladder_.live(), 0u);
        EXPECT_EQ(oracle_.pending(), 0u);
    }

    std::mt19937 rng_;
    sim::EventQueue ladder_;
    simtest::HeapEventQueue oracle_;
    std::vector<sim::EventId> idsNew_;
    std::vector<simtest::HeapEventQueue::EventId> idsOld_;
    std::vector<Exec> logNew_, logOld_;
    std::size_t check_ = 0;
    std::uint64_t births_ = 0;
};

} // namespace

TEST(EngineOracle, RandomInterleavingsMatchHeapEngine)
{
    for (std::uint32_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        DifferentialHarness h(seed);
        h.run(600);
    }
}

TEST(EngineOracle, CancelStormMatchesHeapEngine)
{
    // Degenerate mix: almost everything scheduled gets cancelled,
    // stressing slot reuse + generation stamps against the oracle.
    for (std::uint32_t seed = 100; seed <= 106; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        std::mt19937 rng(seed);
        sim::EventQueue ladder;
        simtest::HeapEventQueue oracle;
        std::vector<sim::Time> firedNew, firedOld;
        std::vector<sim::EventId> idsNew;
        std::vector<simtest::HeapEventQueue::EventId> idsOld;
        for (int round = 0; round < 200; ++round) {
            for (int i = 0; i < 20; ++i) {
                sim::Time d = std::uniform_int_distribution<sim::Time>(
                    1, 1 << 22)(rng);
                idsNew.push_back(ladder.scheduleAfter(d, [&] {
                    firedNew.push_back(ladder.now());
                }));
                idsOld.push_back(oracle.scheduleAfter(d, [&] {
                    firedOld.push_back(oracle.now());
                }));
            }
            // Cancel 90% of this round's batch.
            for (std::size_t i = idsNew.size() - 20; i < idsNew.size();
                 ++i) {
                if (std::uniform_int_distribution<int>(0, 9)(rng) == 0)
                    continue;
                ladder.cancel(idsNew[i]);
                oracle.cancel(idsOld[i]);
            }
            sim::Time until = sim::saturatingAdd(
                ladder.now(),
                std::uniform_int_distribution<sim::Time>(0, 1 << 21)(rng));
            ladder.runUntil(until);
            oracle.runUntil(until);
            ASSERT_EQ(ladder.now(), oracle.now());
            ASSERT_EQ(firedNew, firedOld) << "round " << round;
        }
        ladder.run();
        oracle.run();
        EXPECT_EQ(firedNew, firedOld);
        EXPECT_EQ(ladder.stats().executed, oracle.stats().executed);
        EXPECT_EQ(ladder.stats().cancelled,
                  oracle.stats().cancelledReaped);
    }
}

namespace {

/**
 * One engine plus the record of what it did. Events are named by
 * birth order; a callback may schedule one child whose delay was drawn
 * when the parent was scheduled, so both engines see identical work.
 */
template <typename Engine, typename Id>
struct Side
{
    static constexpr sim::Time kNoChild = ~sim::Time(0);

    Engine eq;
    std::vector<Id> ids; ///< by birth
    std::vector<Exec> log;

    void
    add(sim::Time delay, sim::Time childDelay)
    {
        std::uint64_t birth = ids.size();
        ids.emplace_back();
        ids[birth] = eq.scheduleAfter(delay, [this, birth, childDelay] {
            log.push_back({eq.now(), birth});
            if (childDelay != kNoChild)
                add(childDelay, kNoChild);
        });
    }

    void
    addBoundary(sim::Time when, std::uint64_t key)
    {
        std::uint64_t birth = ids.size();
        ids.emplace_back();
        ids[birth] = eq.scheduleBoundary(
            when, key, [this, birth] { log.push_back({eq.now(), birth}); });
    }
};

} // namespace

/**
 * Density case for the 16.4 us imminent window: bursts of events with
 * 0-20 us delays, so dozens share one level-0 slot and many cross into
 * the next; self-rescheduling children; cancels that hit events
 * already drained into the imminent heap; boundary deliveries whose
 * order keys disagree with their schedule order; and runUntil limits
 * that fall mid-slot. Every executed event, clock and live count must
 * match the heap engine.
 */
TEST(EngineOracle, DenseImminentWindowMatchesHeapEngine)
{
    constexpr sim::Time kMaxDelay = 20 * sim::kMicrosecond;
    for (std::uint32_t seed = 200; seed <= 215; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        std::mt19937 rng(seed);
        auto draw = [&](sim::Time hi) {
            return std::uniform_int_distribution<sim::Time>(0, hi)(rng);
        };
        Side<sim::EventQueue, sim::EventId> ladder;
        Side<simtest::HeapEventQueue, simtest::HeapEventQueue::EventId>
            oracle;
        std::uint64_t boundaries = 0;
        std::size_t checked = 0;
        for (int op = 0; op < 400; ++op) {
            switch (draw(5)) {
              case 0:
              case 1: { // a burst into the next ~20 us
                sim::Time n = 1 + draw(40);
                for (sim::Time i = 0; i < n; ++i) {
                    sim::Time d = draw(kMaxDelay);
                    sim::Time child = draw(3) == 0
                                          ? draw(kMaxDelay)
                                          : ladder.kNoChild;
                    ladder.add(d, child);
                    oracle.add(d, child);
                }
                break;
              }
              case 2: { // boundary deliveries; keys scramble the order
                sim::Time n = 1 + draw(8);
                for (sim::Time i = 0; i < n; ++i) {
                    sim::Time when = ladder.eq.now() + draw(kMaxDelay);
                    // Odd multiplier: a bijection on 62-bit keys.
                    std::uint64_t key =
                        (++boundaries * 0x9e3779b97f4a7c15ull) &
                        ((std::uint64_t(1) << 62) - 1);
                    ladder.addBoundary(when, key);
                    oracle.addBoundary(when, key);
                }
                break;
              }
              case 3: { // cancel recent events, often already drained
                ASSERT_EQ(ladder.ids.size(), oracle.ids.size());
                sim::Time n = 1 + draw(6);
                for (sim::Time i = 0; i < n && !ladder.ids.empty(); ++i) {
                    std::size_t back = std::min<std::size_t>(
                        ladder.ids.size() - 1, draw(60));
                    std::size_t target = ladder.ids.size() - 1 - back;
                    ladder.eq.cancel(ladder.ids[target]);
                    oracle.eq.cancel(oracle.ids[target]);
                }
                break;
              }
              case 4: { // a limit that usually falls mid-slot
                sim::Time until = ladder.eq.now() + draw(kMaxDelay / 2);
                ladder.eq.runUntil(until);
                oracle.eq.runUntil(until);
                break;
              }
              default: { // a few single steps
                sim::Time n = 1 + draw(4);
                for (sim::Time i = 0; i < n; ++i)
                    ASSERT_EQ(ladder.eq.step(), oracle.eq.step());
                break;
              }
            }
            ASSERT_EQ(ladder.eq.now(), oracle.eq.now()) << "op " << op;
            ASSERT_EQ(ladder.eq.live(), oracle.eq.live()) << "op " << op;
            ASSERT_EQ(ladder.log.size(), oracle.log.size()) << "op " << op;
            for (; checked < ladder.log.size(); ++checked)
                ASSERT_EQ(ladder.log[checked], oracle.log[checked])
                    << "entry " << checked;
        }
        ladder.eq.run();
        oracle.eq.run();
        EXPECT_EQ(ladder.log, oracle.log);
        EXPECT_EQ(ladder.eq.stats().executed, oracle.eq.stats().executed);
        EXPECT_EQ(ladder.eq.stats().cancelled, oracle.eq.stats().cancelled);
        EXPECT_EQ(ladder.eq.stats().cancelled,
                  oracle.eq.stats().cancelledReaped);
    }
}
