/**
 * @file
 * The pre-ladder binary-heap event engine, retained verbatim as a
 * differential-test oracle and microbenchmark baseline.
 *
 * This is the exact implementation sim::EventQueue shipped with
 * before the timer-wheel rewrite — std::priority_queue of
 * std::function entries plus live_/cancelled_ unordered_sets — with
 * only the two *semantic* fixes that PR also made (saturating
 * scheduleAfter, runUntilCondition deadline clamp) applied, so the
 * randomized differential test in engine_oracle_test.cc can demand
 * bit-identical execution order, timestamps, and final Stats from
 * both engines. The one later addition is scheduleBoundary(), which
 * files a sort key in the even seq domain exactly as the contract in
 * docs/ENGINE.md states, so the oracle can also check boundary
 * deliveries. Do not "optimize" this file: its value is being the
 * slow, obviously-correct reference.
 */

#ifndef NPF_TESTS_HEAP_EVENT_QUEUE_HH
#define NPF_TESTS_HEAP_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/time.hh"

namespace npf::simtest {

using sim::Time;

class HeapEventQueue
{
  public:
    using EventId = std::uint64_t;
    static constexpr EventId kInvalidEvent = 0;
    using Callback = std::function<void()>;

    struct Stats
    {
        std::uint64_t scheduled = 0;
        std::uint64_t executed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t cancelledReaped = 0;
    };

    HeapEventQueue() = default;
    HeapEventQueue(const HeapEventQueue &) = delete;
    HeapEventQueue &operator=(const HeapEventQueue &) = delete;

    Time now() const { return now_; }

    EventId
    schedule(Time when, Callback cb, const char *site = nullptr)
    {
        if (when < now_)
            when = now_;
        EventId id = nextId_++;
        heap_.push(Entry{when, (id << 1) | 1, id, std::move(cb), site});
        live_.insert(id);
        ++stats_.scheduled;
        return id;
    }

    /** Same-tick order: after every local event, then by @p orderKey. */
    EventId
    scheduleBoundary(Time when, std::uint64_t orderKey, Callback cb,
                     const char *site = nullptr)
    {
        EventId id = nextId_++;
        heap_.push(Entry{when, (orderKey << 1) | (std::uint64_t(1) << 63),
                         id, std::move(cb), site});
        live_.insert(id);
        ++stats_.scheduled;
        return id;
    }

    EventId
    scheduleAfter(Time delay, Callback cb, const char *site = nullptr)
    {
        return schedule(sim::saturatingAdd(now_, delay), std::move(cb),
                        site);
    }

    void
    cancel(EventId id)
    {
        if (id == kInvalidEvent || live_.find(id) == live_.end())
            return;
        if (cancelled_.insert(id).second)
            ++stats_.cancelled;
    }

    std::size_t pending() const { return heap_.size(); }
    std::size_t live() const { return heap_.size() - cancelled_.size(); }
    bool empty() const { return heap_.empty(); }
    const Stats &stats() const { return stats_; }

    bool
    step()
    {
        reapCancelledTop();
        if (heap_.empty())
            return false;
        Entry e = std::move(const_cast<Entry &>(heap_.top()));
        heap_.pop();
        live_.erase(e.id);
        now_ = e.when;
        ++stats_.executed;
        e.cb();
        return true;
    }

    void
    runUntil(Time until)
    {
        for (;;) {
            reapCancelledTop();
            if (heap_.empty() || heap_.top().when > until)
                break;
            if (!step())
                break;
        }
        if (now_ < until)
            now_ = until;
    }

    void
    run()
    {
        while (step()) {
        }
    }

    bool
    runUntilCondition(const std::function<bool()> &predicate, Time deadline)
    {
        if (predicate())
            return true;
        for (;;) {
            reapCancelledTop();
            if (heap_.empty() || heap_.top().when > deadline)
                break;
            if (!step())
                break;
            if (predicate())
                return true;
        }
        if (predicate())
            return true;
        if (now_ < deadline)
            now_ = deadline;
        return false;
    }

  private:
    struct Entry
    {
        Time when;
        std::uint64_t seq; ///< same-tick order key
        EventId id;
        Callback cb;
        const char *site = nullptr;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    void
    reapCancelledTop()
    {
        while (!heap_.empty()) {
            auto it = cancelled_.find(heap_.top().id);
            if (it == cancelled_.end())
                return;
            live_.erase(heap_.top().id);
            cancelled_.erase(it);
            ++stats_.cancelledReaped;
            heap_.pop();
        }
    }

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    std::unordered_set<EventId> live_;
    std::unordered_set<EventId> cancelled_;
    Time now_ = 0;
    EventId nextId_ = 1;
    Stats stats_;
};

} // namespace npf::simtest

#endif // NPF_TESTS_HEAP_EVENT_QUEUE_HH
