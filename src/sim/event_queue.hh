/**
 * @file
 * The discrete-event engine at the heart of npfsim.
 *
 * Every model in the library (NICs, IOMMU, TCP timers, application
 * workloads) advances time exclusively by scheduling callbacks on a
 * shared EventQueue. Events scheduled for the same tick execute in
 * FIFO order of scheduling, which makes runs fully deterministic.
 *
 * Internals: a hierarchical timer wheel (seven levels, 16.4 us finest
 * granularity, the coarsest covering every 64-bit time), slab-allocated
 * intrusive entries recycled through a free list, and
 * generation-stamped handles for O(1) cancellation.
 * The imminent 16.4 us window is drained through a binary heap so
 * the determinism contract — global (time, schedule-sequence) order —
 * is preserved bit-identically against the old binary-heap engine
 * (kept as tests/heap_event_queue.hh and proven equivalent by
 * tests/engine_oracle_test.cc). docs/ENGINE.md has the full design.
 *
 * Each slab entry holds one event's callable, inline in its
 * sim::Delegate: a callable that does not fit is a compile error, so
 * scheduling never allocates for the callable. An entry goes free ->
 * queued (schedule() builds the callable in it, once) -> running
 * (stepBounded() calls it there) -> free (the callable is destroyed
 * after the call returns); cancel() takes a queued entry through the
 * same release. The slab is a table of fixed 256-entry chunks, so
 * entries never move while it grows, not even under a running
 * callback. A chunk's entries are constructed one by one as the
 * slab's high-water mark reaches them: a queue that never holds many
 * events pays neither the set-up time nor the resident pages of a
 * whole constructed chunk.
 */

#ifndef NPF_SIM_EVENT_QUEUE_HH
#define NPF_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/delegate.hh"
#include "sim/time.hh"

namespace npf::sim {

/**
 * Opaque handle identifying a scheduled event, usable to cancel it.
 * Encodes slab index (low 32 bits, biased by one so the handle is
 * never zero) and a per-slot generation stamp (high 32 bits), so a
 * stale handle — the event ran, was cancelled, or its slot was
 * recycled — can be rejected in O(1) without any lookup table.
 */
using EventId = std::uint64_t;

/** EventId value that never names a live event. */
constexpr EventId kInvalidEvent = 0;

/**
 * Deterministic discrete-event queue.
 *
 * Not thread safe; a simulation runs on a single thread. Event
 * callbacks may schedule further events (including at the current
 * time, which run after all previously scheduled same-tick events).
 */
class EventQueue
{
  public:
    /** Hot-path callable, held inline (see sim/delegate.hh). */
    using Callback = Delegate;

    /** Lifetime counters, exported by the observability layer. */
    struct Stats
    {
        std::uint64_t scheduled = 0; ///< schedule() calls
        std::uint64_t executed = 0;  ///< callbacks actually run
        std::uint64_t cancelled = 0; ///< cancel() calls that hit a live
                                     ///< event (reclaimed on the spot)
    };

    /**
     * Per-schedule-site accounting: executions while site counting
     * (enableSiteCounts()) or the event-loop profiler (enableProfile())
     * is on, and, under the profiler only, wall and sim time. Keyed by
     * the site string literal's address — distinct literals with
     * identical text are merged at export time, not here, to keep the
     * hot path to one hash of a pointer. simLagNs is the events' queue
     * residency (execution time minus schedule time): high values mean
     * a site schedules far ahead, not that the loop is slow.
     */
    struct SiteProfile
    {
        std::uint64_t count = 0;
        std::uint64_t wallNs = 0;
        std::uint64_t maxWallNs = 0;
        std::uint64_t simLagNs = 0;
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        for (std::uint32_t i = 0; i < built_; ++i)
            entry(i).~Entry();
        for (Entry *chunk : chunks_)
            ::operator delete(static_cast<void *>(chunk));
    }

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * Scheduling in the past is clamped to now().
     * @p cb is any void() callable, built once in its slab entry (one
     * move of an rvalue, one copy of an lvalue), or a Callback, which
     * is moved or copied in.
     * @p site optionally labels the scheduling call site (a string
     * literal) for per-site metrics; it is not owned by the queue.
     * @return a handle that can be passed to cancel().
     */
    template <typename F>
    EventId
    schedule(Time when, F &&cb, const char *site = nullptr)
    {
        if (when < now_)
            when = now_;
        // Local events live in the odd seq domain; boundary injections
        // (scheduleBoundary) take the even domain. Relative order among
        // local events is unchanged, so single-queue runs execute
        // bit-identically to the pre-split engine.
        return insert(when, (nextSeq_++ << 1) | 1, std::forward<F>(cb),
                      site);
    }

    /**
     * Schedule @p cb to run @p delay after the current time. The sum
     * saturates at the end of time, so a "never" sentinel delay stays
     * in the far future instead of wrapping around and firing now.
     */
    template <typename F>
    EventId
    scheduleAfter(Time delay, F &&cb, const char *site = nullptr)
    {
        return schedule(saturatingAdd(now_, delay), std::forward<F>(cb),
                        site);
    }

    /**
     * Schedule a boundary-message delivery with an explicit same-tick
     * order key instead of the queue's own schedule-sequence counter.
     * Shards use this to make cross-shard deliveries sort identically
     * no matter *when* (in wall-clock terms) the message was drained
     * from its ring: two runs that inject the same messages at the
     * same simulated times execute in the same order even if one run
     * staged them earlier than the other. Keys live in the even seq
     * domain (top bit forced on) so they can never collide with local
     * events and always sort *after* same-tick local work — a stable
     * convention that holds for any shard count — and a given
     * (when, orderKey) pair must be unique per queue.
     */
    template <typename F>
    EventId
    scheduleBoundary(Time when, std::uint64_t orderKey, F &&cb,
                     const char *site = nullptr)
    {
        // A boundary delivery in the past is a causality violation —
        // the conservative protocol guarantees every cross-shard
        // message is drained before the receiver runs past it, and a
        // loopback post in the past is a sender bug. Clamping here
        // would turn either into silent nondeterminism between shard
        // counts, so fail loudly in all builds.
        if (when < now_) {
            std::fprintf(stderr,
                         "EventQueue: boundary event in the past: "
                         "when %llu < now %llu (orderKey %llu%s%s)\n",
                         static_cast<unsigned long long>(when),
                         static_cast<unsigned long long>(now_),
                         static_cast<unsigned long long>(orderKey),
                         site ? ", site " : "", site ? site : "");
            std::abort();
        }
        return insert(when, (orderKey << 1) | (std::uint64_t(1) << 63),
                      std::forward<F>(cb), site);
    }

    /**
     * Cancel a previously scheduled event in O(1): the entry is
     * unlinked from its wheel bucket and its slot recycled
     * immediately. Cancelling an event that already ran (or was
     * already cancelled) is a harmless no-op — the generation stamp
     * in the handle no longer matches, so stale ids are rejected
     * outright and cannot accumulate.
     */
    void
    cancel(EventId id)
    {
        std::uint32_t idx = static_cast<std::uint32_t>(id);
        if (idx == 0 || idx > built_)
            return;
        --idx; // ids are slab index + 1
        Entry &e = entry(idx);
        if (e.gen != static_cast<std::uint32_t>(id >> 32))
            return; // running, executed, cancelled, or slot recycled
        if (e.bucket != kBucketCurrent)
            unlink(idx);
        ++e.gen; // released like an entry that ran
        e.bucket = kBucketRunning;
        ++stats_.cancelled;
        --liveCount_;
        freeSlot(idx); // may run capture destructors; keep last
    }

    /**
     * Number of scheduled events that will actually execute: cancel()
     * reclaims an entry on the spot, so nothing dead stays queued.
     */
    std::size_t live() const { return liveCount_; }

    /** True when nothing is left to run. */
    bool empty() const { return liveCount_ == 0; }

    const Stats &stats() const { return stats_; }

    /**
     * Count executions per schedule site into siteProfiles(), without
     * reading the clock (obs::Session's `event_sites`). Re-read after
     * every callback, so a callback that turns it on or off is
     * honoured within that same step.
     */
    void enableSiteCounts(bool on) { countSites_ = on; }

    /**
     * Event-loop profiler: per-schedule-site execution counts, wall
     * time (host clock; excluded from simulation state so determinism
     * is untouched) and sim-time queue residency. Off by default; with
     * neither it nor site counting on, the cost is two branches per
     * executed event.
     */
    void enableProfile(bool on) { profile_ = on; }
    void clearProfile() { siteProfiles_.clear(); }
    const std::unordered_map<const char *, SiteProfile> &
    siteProfiles() const
    {
        return siteProfiles_;
    }

    /**
     * Run a single event, advancing time to it.
     * @return false when the queue is empty.
     */
    bool
    step()
    {
        return stepBounded(kTimeMax) == Bounded::Ran;
    }

    /** Run all events up to and including time @p until. */
    void
    runUntil(Time until)
    {
        // Single-scan drain: each iteration validates the heap top
        // once and either executes it or stops. Peeking at the next
        // time before each step() would validate (and potentially
        // ghost-pop / advance) twice per event, doubling the wheel
        // work exactly where burst arrivals batch up.
        while (stepBounded(until) == Bounded::Ran) {
        }
        if (now_ < until)
            now_ = until;
    }

    /** Run until the queue drains completely. */
    void
    run()
    {
        while (step()) {
        }
    }

    /**
     * Run until @p predicate becomes true (checked after each event),
     * the queue drains, or @p deadline passes. On failure the clock is
     * clamped to @p deadline, exactly like runUntil(), so callers
     * alternating the two never observe a stalled clock.
     * @return true if the predicate was satisfied.
     */
    bool
    runUntilCondition(const std::function<bool()> &predicate, Time deadline)
    {
        if (predicate())
            return true;
        while (stepBounded(deadline) == Bounded::Ran) {
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
    /**
     * The one insertion body behind schedule() and scheduleBoundary():
     * build @p cb in a free entry and file it at (@p when, @p seq),
     * @p when >= now().
     */
    template <typename F>
    EventId
    insert(Time when, std::uint64_t seq, F &&cb, const char *site)
    {
        // Idle queue: re-anchor the wheels at the new event, in either
        // direction — forward so a long quiet gap does not file it into
        // a coarse level, backward so a queue parked at the far future
        // (a drained "never" sentinel) recovers. Only ghost heap items
        // can remain, and those are skipped by generation.
        if (liveCount_ == 0) {
            base_ = when & ~Time(kSlotSpan0 - 1);
            curWindowEnd_ = saturatingAdd(base_, kSlotSpan0);
            wheelMin_ = kTimeMax;
        }
        std::uint32_t idx = allocSlot();
        Entry &e = entry(idx);
        e.when = when;
        e.seq = seq;
        e.cb.assign(std::forward<F>(cb));
        e.site = site;
        e.schedAt = now_;
        EventId id = makeId(idx, e.gen);
        place(idx, when);
        ++liveCount_;
        ++stats_.scheduled;
        return id;
    }

    /** stepBounded() outcomes. */
    enum class Bounded { Ran, Beyond, Empty };

    /**
     * Execute the next event if its time is <= @p limit. The heart of
     * step()/runUntil()/runUntilCondition(): one top validation per
     * executed event.
     */
    Bounded
    stepBounded(Time limit)
    {
        for (;;) {
            while (!curHeap_.empty()) {
                HeapItem top = curHeap_.front();
                Entry &e = entry(top.idx);
                if (e.gen != top.gen || e.bucket != kBucketCurrent) {
                    popHeap(); // ghost of a cancelled/recycled entry
                    continue;
                }
                if (!trustTop(top.when))
                    break; // something earlier may sit in the wheels
                if (top.when > limit)
                    return Bounded::Beyond;
                popHeap();
                // Run the callback in its own entry, which stays put
                // however far the slab grows under it. The stale
                // generation makes a re-entrant cancel() of this id a
                // no-op, and a running entry is not on the free list.
                ++e.gen;
                e.bucket = kBucketRunning;
                --liveCount_;
                now_ = top.when;
                ++stats_.executed;
                const char *site = e.site;
                if (profile_) {
                    auto t0 = std::chrono::steady_clock::now();
                    e.cb();
                    auto wall = std::chrono::duration_cast<
                        std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0);
                    SiteProfile &sp =
                        siteProfiles_[site != nullptr ? site : ""];
                    ++sp.count;
                    std::uint64_t w =
                        static_cast<std::uint64_t>(wall.count());
                    sp.wallNs += w;
                    sp.maxWallNs = std::max(sp.maxWallNs, w);
                    sp.simLagNs += now_ - e.schedAt;
                } else {
                    e.cb();
                    if (countSites_) // re-read: cb may have flipped it
                        ++siteProfiles_[site != nullptr ? site : ""].count;
                }
                freeSlot(top.idx);
                return Bounded::Ran;
            }
            if (!advance())
                return Bounded::Empty;
        }
    }

  public:
    // --- geometry -------------------------------------------------------
    //
    // Seven wheel levels of 256 slots; level L slots are 2^(14+8L) ns
    // wide. Level 0 resolves 16.4 us buckets, and levels 0-5 span
    // 2^62 ns (~146 years) ahead of base_. Level 6's slots are 2^62 ns
    // wide, so its four reachable slots cover every 64-bit time at or
    // after base_: it takes whatever the finer levels do not, kTimeMax
    // "never" timers included.
    //
    // Why 16.4 us: packet events sit a few hundred ns apart, so with
    // 64 ns slots advance() rescanned all six levels for nearly every
    // event; a 16.4 us slot drains ~50 of them per scan into curHeap_,
    // which orders them exactly. Much wider slots only deepen the heap.
    static constexpr unsigned kLevels = 7;
    static constexpr unsigned kSlotBits = 8;
    static constexpr unsigned kSlots = 1u << kSlotBits;   // 256
    static constexpr unsigned kShift0 = 14;               // 16.4 us
    static constexpr Time kSlotSpan0 = Time(1) << kShift0;

    static constexpr unsigned
    levelShift(unsigned level)
    {
        return kShift0 + kSlotBits * level;
    }

    // Bucket ids: wheels first, then the special pseudo-buckets.
    static constexpr std::uint32_t kBucketCurrent = kLevels * kSlots;
    static constexpr std::uint32_t kBucketRunning = kBucketCurrent + 1;
    static constexpr std::uint32_t kBucketFree = kBucketCurrent + 2;
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Slab entries per chunk; a chunk is allocated whole, built lazily. */
    static constexpr unsigned kChunkBits = 8;
    static constexpr std::uint32_t kChunkEntries = 1u << kChunkBits; // 256

    /** One slab slot: an intrusive doubly-linked list node. */
    struct Entry
    {
        Time when = 0;
        std::uint64_t seq = 0; ///< schedule order, same-tick FIFO key
        Callback cb;
        const char *site = nullptr;
        Time schedAt = 0;      ///< now() at schedule, for the profiler
        std::uint32_t gen = 1;  ///< bumped as the event runs or is
                                ///< cancelled (stale-id check)
        std::uint32_t next = kNil;
        std::uint32_t prev = kNil;
        std::uint32_t bucket = kBucketFree;
    };

    struct BucketList
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    /** curHeap_ item; (when, seq) orders the imminent window. */
    struct HeapItem
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t idx;
        std::uint32_t gen;
    };

    static EventId
    makeId(std::uint32_t idx, std::uint32_t gen)
    {
        return (EventId(gen) << 32) | (idx + 1);
    }

    Entry &
    entry(std::uint32_t idx)
    {
        return chunks_[idx >> kChunkBits][idx & (kChunkEntries - 1)];
    }

    /**
     * A free entry: the free list's head, else the next entry past the
     * high-water mark, constructed now (its chunk allocated first if
     * the mark sits on a chunk boundary).
     */
    std::uint32_t
    allocSlot()
    {
        if (freeHead_ != kNil) {
            std::uint32_t idx = freeHead_;
            freeHead_ = entry(idx).next;
            return idx;
        }
        static_assert(alignof(Entry) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
        if ((built_ & (kChunkEntries - 1)) == 0)
            chunks_.push_back(static_cast<Entry *>(
                ::operator new(sizeof(Entry) * kChunkEntries)));
        ::new (static_cast<void *>(&entry(built_))) Entry();
        return built_++;
    }

    /**
     * Recycle a running entry, its handle already stale: destroy the
     * callable in place, then push the entry on the free list. Capture
     * destructors may re-enter schedule()/cancel(); the entry is off
     * the free list until they return, and entries never move.
     */
    void
    freeSlot(std::uint32_t idx)
    {
        Entry &e = entry(idx);
        e.cb.reset();
        e.bucket = kBucketFree;
        e.prev = kNil;
        e.next = freeHead_;
        freeHead_ = idx;
    }

    void
    linkTail(std::uint32_t bucketIdx, std::uint32_t idx)
    {
        BucketList &b = buckets_[bucketIdx];
        Entry &e = entry(idx);
        e.bucket = bucketIdx;
        e.next = kNil;
        e.prev = b.tail;
        if (b.tail == kNil)
            b.head = idx;
        else
            entry(b.tail).next = idx;
        b.tail = idx;
        setBit(bucketIdx / kSlots, bucketIdx % kSlots);
    }

    void
    unlink(std::uint32_t idx)
    {
        Entry &e = entry(idx);
        BucketList &b = buckets_[e.bucket];
        if (e.prev == kNil)
            b.head = e.next;
        else
            entry(e.prev).next = e.next;
        if (e.next == kNil)
            b.tail = e.prev;
        else
            entry(e.next).prev = e.prev;
        if (b.head == kNil)
            clearBit(e.bucket / kSlots, e.bucket % kSlots);
    }

    // --- occupancy bitmaps (256 bits per level) -------------------------

    void
    setBit(unsigned level, unsigned slot)
    {
        occ_[level][slot >> 6] |= std::uint64_t(1) << (slot & 63);
    }

    void
    clearBit(unsigned level, unsigned slot)
    {
        occ_[level][slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
    }

    /**
     * Circular distance (0..255) from bit @p start to the first set
     * bit in a 256-bit map, or -1 when the map is empty.
     */
    static int
    findCircular(const std::uint64_t *occ, unsigned start)
    {
        unsigned w0 = start >> 6, b0 = start & 63;
        std::uint64_t m = occ[w0] & (~std::uint64_t(0) << b0);
        if (m)
            return int((unsigned(__builtin_ctzll(m)) + (w0 << 6) - start) &
                       (kSlots - 1));
        for (unsigned i = 1; i < 4; ++i) {
            unsigned w = (w0 + i) & 3;
            if (occ[w])
                return int((unsigned(__builtin_ctzll(occ[w])) + (w << 6) -
                            start) &
                           (kSlots - 1));
        }
        m = occ[w0] & ((std::uint64_t(1) << b0) - 1);
        if (m)
            return int((unsigned(__builtin_ctzll(m)) + (w0 << 6) - start) &
                       (kSlots - 1));
        return -1;
    }

    // --- placement ------------------------------------------------------

    /**
     * File event @p idx (when = @p when) into the structure that owns
     * its time range: the imminent-window heap, or the finest wheel
     * level whose 256-slot window (anchored at base_) reaches it.
     * Every queued time is at or after base_, so level 6 takes
     * whatever levels 0-5 do not.
     */
    void
    place(std::uint32_t idx, Time when)
    {
        if (when < curWindowEnd_) {
            Entry &e = entry(idx);
            e.bucket = kBucketCurrent;
            pushHeap(HeapItem{when, e.seq, idx, e.gen});
            return;
        }
        unsigned level = 0;
        unsigned sh = kShift0;
        while (level + 1 < kLevels && (when >> sh) - (base_ >> sh) >= kSlots)
            sh = levelShift(++level);
        if (when < wheelMin_)
            wheelMin_ = when;
        linkTail(level * kSlots + unsigned((when >> sh) & (kSlots - 1)), idx);
    }

    // --- advancement ----------------------------------------------------

    /**
     * Make the earliest pending events available in curHeap_ by
     * cascading wheel buckets until the imminent window holds the
     * global minimum. Returns false when nothing is queued anywhere.
     */
    bool
    advance()
    {
        for (;;) {
            // Earliest occupied bucket per level; min start wins,
            // ties go to the coarsest level so its contents merge
            // down before anything beneath them drains.
            int bestLevel = -1;
            Time bestStart = 0;
            std::uint64_t bestAbs = 0;
            for (unsigned level = 0; level < kLevels; ++level) {
                unsigned sh = levelShift(level);
                std::uint64_t cursor = base_ >> sh;
                int k = findCircular(occ_[level].data(),
                                     unsigned(cursor & (kSlots - 1)));
                if (k < 0)
                    continue;
                std::uint64_t abs = cursor + std::uint64_t(k);
                Time start = Time(abs) << sh;
                if (bestLevel < 0 || start < bestStart ||
                    (start == bestStart && level > unsigned(bestLevel))) {
                    bestLevel = int(level);
                    bestStart = start;
                    bestAbs = abs;
                }
            }
            // Every wheel event's time is at least its slot's start,
            // so the earliest candidate start is an exact lower bound;
            // refresh the (possibly stale-low) cache with it.
            wheelMin_ = bestLevel >= 0 ? bestStart : kTimeMax;

            if (!curHeap_.empty() &&
                (bestLevel < 0 || bestStart >= curWindowEnd_))
                return true; // imminent window already holds the min

            if (bestLevel < 0)
                return false; // nothing queued anywhere

            base_ = bestStart;
            // Saturate: a window anchored in the last slot of time
            // must not wrap curWindowEnd_ to zero, or place() would
            // misfile every subsequent event.
            curWindowEnd_ = saturatingAdd(bestStart, kSlotSpan0);
            std::uint32_t bucketIdx =
                unsigned(bestLevel) * kSlots +
                unsigned(bestAbs & (kSlots - 1));
            if (bestLevel == 0) {
                moveBucketToCurrent(bucketIdx);
                return true;
            }
            cascade(bucketIdx);
        }
    }

    /** Spill a level-0 bucket into the imminent-window heap. */
    void
    moveBucketToCurrent(std::uint32_t bucketIdx)
    {
        std::uint32_t idx = detachBucket(bucketIdx);
        while (idx != kNil) {
            Entry &e = entry(idx);
            std::uint32_t next = e.next;
            e.bucket = kBucketCurrent;
            pushHeap(HeapItem{e.when, e.seq, idx, e.gen});
            idx = next;
        }
    }

    /** Redistribute a coarse bucket across the finer levels. */
    void
    cascade(std::uint32_t bucketIdx)
    {
        std::uint32_t idx = detachBucket(bucketIdx);
        while (idx != kNil) {
            Entry &e = entry(idx);
            std::uint32_t next = e.next;
            place(idx, e.when);
            idx = next;
        }
    }

    /** Unhook a bucket's whole chain, clearing its occupancy bit. */
    std::uint32_t
    detachBucket(std::uint32_t bucketIdx)
    {
        BucketList &b = buckets_[bucketIdx];
        std::uint32_t head = b.head;
        b.head = b.tail = kNil;
        clearBit(bucketIdx / kSlots, bucketIdx % kSlots);
        return head;
    }

    // --- imminent-window heap ------------------------------------------

    struct HeapGreater
    {
        bool
        operator()(const HeapItem &a, const HeapItem &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void
    pushHeap(HeapItem item)
    {
        curHeap_.push_back(item);
        std::push_heap(curHeap_.begin(), curHeap_.end(), HeapGreater{});
    }

    void
    popHeap()
    {
        std::pop_heap(curHeap_.begin(), curHeap_.end(), HeapGreater{});
        curHeap_.pop_back();
    }

    /**
     * True when the imminent-window heap's top is provably the global
     * minimum. Normally every curHeap_ entry precedes everything in
     * the wheels by construction, but that invariant can lapse at the
     * very end of the time axis (a window anchored at kTimeMax cannot
     * extend past it), so the hot path re-checks against a
     * conservative lower bound — never too high, so a stale value
     * costs an advance() rescan, never a misordered event.
     */
    bool
    trustTop(Time when) const
    {
        return when <= wheelMin_;
    }

    std::vector<Entry *> chunks_;  ///< kChunkEntries entries each
    std::uint32_t built_ = 0;      ///< entries constructed so far
    std::uint32_t freeHead_ = kNil;
    std::array<BucketList, kLevels * kSlots> buckets_{};
    std::array<std::array<std::uint64_t, 4>, kLevels> occ_{};
    std::vector<HeapItem> curHeap_;
    Time base_ = 0;                  ///< start of the imminent window
    Time curWindowEnd_ = kSlotSpan0; ///< events below this live in curHeap_
    Time wheelMin_ = kTimeMax;       ///< conservative (never too high)
    std::size_t liveCount_ = 0;
    Time now_ = 0;
    std::uint64_t nextSeq_ = 1;
    Stats stats_;
    bool countSites_ = false;
    bool profile_ = false;
    std::unordered_map<const char *, SiteProfile> siteProfiles_;
};

} // namespace npf::sim

#endif // NPF_SIM_EVENT_QUEUE_HH
