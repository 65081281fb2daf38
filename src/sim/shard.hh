/**
 * @file
 * Sharded conservative parallel simulation core.
 *
 * The world is partitioned into N shards; each shard owns a private
 * sim::EventQueue (and private pools — sim::Pool asserts ownership in
 * debug builds) and runs on its own worker thread. The ONLY coupling
 * between shards is the explicit, timestamped BoundaryMsg: a
 * trivially-copyable record carried over single-producer/single-
 * consumer rings, one ring per directed shard pair, alloc-free in
 * steady state.
 *
 * Synchronization is conservative null-message/lower-bound-timestamp
 * (the SimBricks recipe): every boundary message must be stamped at
 * least `lookahead` past the sender's current time — physically,
 * lookahead is the minimum link latency between any two hosts in
 * different shards, so a packet leaving shard A at time t cannot
 * affect shard B before t + lookahead. Each shard publishes a clock
 * that is a *floor on its future executions*: it will never again run
 * an event at a time below its published clock (after running through
 * time T it publishes T + 1). Each worker repeatedly
 *
 *   1. loads every neighbor's published clock (acquire),
 *   2. drains its inbound rings into its event queue,
 *   3. executes events through
 *      `runTo = min(until, horizon - 1, clock + lookahead - 1)`, where
 *      `horizon = min_j(clock_j + lookahead)` is the safe horizon and
 *      `clock` its own floor,
 *   4. publishes its own new floor `runTo + 1` (release),
 *   5. if that floor did not move, waits for a neighbor's clock to.
 *
 * The floor semantics make step 3 safe AND live for any lookahead
 * >= 1: every message still in flight from shard j was (or will be)
 * sent while j executes at some t >= clock_j, so it is stamped
 * `when >= clock_j + lookahead` — strictly beyond the horizon — and
 * running through horizon - 1 then publishing `horizon` always makes
 * progress. (A "ran through here" clock, by contrast, livelocks at
 * lookahead == 1: no shard could ever pass min_j(clock_j).) The
 * load-then-drain order closes the race: a sender pushes a message
 * into the ring *before* the release-store of the clock value that
 * made it possible, so once a receiver has acquire-loaded clock C
 * from shard j, every message from j stamped below C + lookahead is
 * already visible in the ring.
 *
 * The `clock + lookahead - 1` cap keeps the shards in step. Without
 * it a shard that is behind by one lookahead may run two in one
 * round (its horizon is the leader's clock + lookahead), during which
 * the leader, now behind, is blocked; then the roles swap. The shards
 * leapfrog instead of running concurrently. Capped, every round
 * advances each shard by at most one lookahead, so neighbors advance
 * together and the wait in step 5 is short. It is a spin on the
 * neighbors' clocks with a CPU pause, not a yield per round; it ends
 * when the horizon moves past the one this round used, when an
 * inbound ring is half full (a blocked sender must be drained), or
 * when every shard has finished. After a bounded number of polls it
 * yields between polls instead. The bound adapts per shard between
 * two constants: it halves after a wait that outlasted it and doubles
 * after one that did not, so a run with fewer CPUs than shards (or
 * under TSan), where spinning only delays the neighbor it waits for,
 * soon yields almost at once.
 *
 * Determinism: delivered messages are injected with
 * EventQueue::scheduleBoundary(when, orderKey), whose (when, key)
 * priority is independent of *wall-clock* drain timing — two replays
 * (or a 1-shard and an N-shard run using the same record path)
 * execute every shard's events in exactly the same order. With
 * shards == 1 no threads are spawned and run() degenerates to a plain
 * runUntil(), reducing bit-identically to the single-queue engine.
 */

#ifndef NPF_SIM_SHARD_HH
#define NPF_SIM_SHARD_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/time.hh"

namespace npf::sim {

/**
 * One timestamped message crossing a shard boundary. Trivially
 * copyable by construction: closures do not cross shards, records do.
 * The fixed scalar fields cover the common wire cases (node ids,
 * byte counts); anything richer travels as a POD payload via
 * store()/load().
 */
struct BoundaryMsg
{
    static constexpr std::size_t kPayloadBytes = 96;

    Time when = 0;             ///< delivery time at the destination
    std::uint64_t orderKey = 0;///< same-tick tie-break, globally unique
    std::uint32_t kind = 0;    ///< receiver dispatch key (see bind())
    std::uint16_t srcShard = 0;
    std::uint16_t dstShard = 0;
    std::uint64_t a = 0;       ///< scalar args, meaning is kind-private
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::uint64_t d = 0;
    std::uint32_t payloadLen = 0;
    unsigned char payload[kPayloadBytes] = {};

    /** Serialize a POD into the payload bytes. */
    template <typename T>
    void
    store(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "only PODs cross shard boundaries");
        static_assert(sizeof(T) <= kPayloadBytes, "grow kPayloadBytes");
        std::memcpy(payload, &v, sizeof(T));
        payloadLen = sizeof(T);
    }

    /** Deserialize the payload back into a POD. */
    template <typename T>
    T
    load() const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= kPayloadBytes);
        T v;
        std::memcpy(&v, payload, sizeof(T));
        return v;
    }
};

static_assert(std::is_trivially_copyable_v<BoundaryMsg>);

/**
 * Fixed-capacity single-producer/single-consumer ring of
 * BoundaryMsg. Lock-free, alloc-free after construction; the
 * producer spins when full — backpressure, never loss. Each side
 * writes one cursor and caches or batches its reads of the other:
 * the producer re-reads `head_` only when its cached copy says the
 * ring is full, and the consumer takes every visible message with
 * one `head_` store (popAll).
 */
class SpscRing
{
  public:
    /** @param capacity rounded up to a power of two. */
    explicit SpscRing(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    /** Producer side. @return false (and push nothing) when full. */
    bool
    tryPush(const BoundaryMsg &m)
    {
        std::uint64_t t = tail_.load(std::memory_order_relaxed);
        if (t - headCache_ > mask_) {
            headCache_ = head_.load(std::memory_order_acquire);
            if (t - headCache_ > mask_)
                return false; // full
        }
        slots_[t & mask_] = m;
        tail_.store(t + 1, std::memory_order_release);
        return true;
    }

    /**
     * Consumer side: call @p fn on every message visible now, in FIFO
     * order, then free their slots with one store. @p fn must not pop
     * from this ring. @return the number of messages taken.
     */
    template <typename F>
    std::size_t
    popAll(F &&fn)
    {
        std::uint64_t h = head_.load(std::memory_order_relaxed);
        std::uint64_t t = tail_.load(std::memory_order_acquire);
        for (std::uint64_t i = h; i != t; ++i)
            fn(slots_[i & mask_]);
        if (t != h)
            head_.store(t, std::memory_order_release);
        return std::size_t(t - h);
    }

    std::size_t capacity() const { return mask_ + 1; }

    /** Messages waiting. Consumer side. */
    std::size_t
    size() const
    {
        return std::size_t(tail_.load(std::memory_order_acquire) -
                           head_.load(std::memory_order_relaxed));
    }

  private:
    std::size_t mask_ = 0;
    std::vector<BoundaryMsg> slots_;
    /// Consumer cursor (next pop). Separate cache lines: the producer
    /// and consumer each write one cursor and only read the other.
    alignas(64) std::atomic<std::uint64_t> head_{0};
    alignas(64) std::atomic<std::uint64_t> tail_{0}; ///< next push
    std::uint64_t headCache_ = 0; ///< producer's last view of head_
};

/**
 * N event queues, N worker threads, conservative sync. See the file
 * comment for the protocol. Construction, world setup (invokeOn),
 * run(), and stats reads all happen on the controlling thread; only
 * the bodies passed to invokeOn and the simulation callbacks execute
 * on shard workers.
 */
class ShardedEngine
{
  public:
    /**
     * One shard's synchronization counters, cumulative over run()
     * calls. Written by the shard's worker; read them between runs.
     */
    struct SyncStats
    {
        /// Rounds that advanced the shard's floor.
        std::uint64_t rounds = 0;
        /// Rounds that could not advance and waited on a neighbor.
        std::uint64_t blockedWaits = 0;
        /// Boundary messages drained from the inbound rings.
        std::uint64_t drained = 0;
        /// Failed pushes into a full outbound ring.
        std::uint64_t fullRingSpins = 0;
        /// Largest floor advance in one round (<= lookahead).
        Time maxAdvance = 0;
    };

    /** Called on the destination shard's thread to deliver one
     *  boundary message at exactly msg.when. */
    using Handler = std::function<void(const BoundaryMsg &)>;

    struct Config
    {
        unsigned shards = 1;
        /**
         * Minimum cross-shard latency: every post()ed message must
         * satisfy `when >= sender now + lookahead`. Larger lookahead
         * means longer lock-free stretches per shard; it must never
         * exceed the true minimum cross-shard link latency.
         */
        Time lookahead = 1;
        /** Per-directed-pair ring capacity (messages). */
        std::size_t ringCapacity = 4096;
    };

    explicit ShardedEngine(Config cfg);
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    unsigned shards() const { return unsigned(shards_.size()); }
    Time lookahead() const { return cfg_.lookahead; }

    /** Shard @p s's private queue. Touch it only from shard s (or
     *  between runs, from the controlling thread). */
    EventQueue &queue(unsigned s) { return *shards_[s]->eq; }

    /**
     * Execute @p fn on shard @p s's worker thread and wait for it.
     * World construction and teardown go through here so thread_local
     * singletons (obs registry, pooled slabs) and pool owners land on
     * the owning thread. Runs inline when the engine is single-shard.
     */
    void invokeOn(unsigned s, const std::function<void()> &fn);

    /**
     * Register the handler for messages of @p kind arriving at shard
     * @p s. Call during setup (typically from within invokeOn), never
     * while run() is in flight.
     */
    void bind(unsigned s, std::uint32_t kind, Handler h);

    /**
     * Send a boundary message. Must be called on the srcShard's
     * thread; `m.when >= queue(srcShard).now() + lookahead` is
     * enforced (abort, in all builds) for cross-shard sends — a
     * violation would silently break determinism, so it is never
     * tolerated. Loopback (src == dst) schedules directly with no
     * latency floor.
     */
    void post(const BoundaryMsg &m);

    /**
     * Run every shard up to and including @p until (simulated time),
     * in parallel, then return with all shards quiescent at `until`.
     * Callable repeatedly with nondecreasing deadlines.
     */
    void run(Time until);

    /** Total boundary messages posted so far (all shards). */
    std::uint64_t posted() const;

    /** Shard @p s's sync counters (see SyncStats). */
    const SyncStats &syncStats(unsigned s) const
    {
        return shards_[s]->sync;
    }

  private:
    struct Shard
    {
        unsigned id = 0;
        /// Parks delivered messages while they wait in the queue
        /// (a BoundaryMsg does not fit a Delegate's inline buffer).
        /// Declared before eq so queue teardown can still release
        /// into it.
        Pool<BoundaryMsg> msgPool{"sim::Shard.msg"};
        /// unique_ptr so the engine dtor can destroy it *on the
        /// worker thread*: undelivered event closures hold PoolRefs
        /// into that thread's thread-local pools (fabric record
        /// parking, state too big for a Delegate), and release asserts
        /// thread ownership in debug builds.
        std::unique_ptr<EventQueue> eq = std::make_unique<EventQueue>();
        /// Published floor on future executions: this shard will
        /// never again run an event at a time below `clock`. On a
        /// cache line of its own: waiting neighbors poll it, and the
        /// worker's counters must not share its line.
        alignas(64) std::atomic<Time> clock{0};
        alignas(64) std::vector<std::unique_ptr<SpscRing>> in; ///< [srcShard]
        std::unordered_map<std::uint32_t, Handler> handlers;
        std::uint64_t posted = 0;
        SyncStats sync;

        // Job mailbox (controlling thread <-> worker).
        std::mutex mu;
        std::condition_variable cv;
        int job = 0; ///< 0 idle, 1 invoke, 2 run, 3 exit
        const std::function<void()> *fn = nullptr;
        Time until = 0;
        bool done = false;
        std::thread th;
    };

    void workerLoop(Shard &s);
    void runShard(Shard &s, Time until);
    /** Pop everything available and inject it into s.eq. */
    void drainInto(Shard &s);
    /** Safe horizon for @p s: min over neighbors of clock + lookahead. */
    Time horizonFor(const Shard &s) const;
    /** Wait until the horizon moves off @p horizon, an inbound ring
     *  is half full, or every shard has finished: spin for up to
     *  @p spinLimit polls, then yield between polls. Adapts
     *  @p spinLimit to how long the wait took. */
    void waitForNeighbors(const Shard &s, Time horizon,
                          unsigned &spinLimit) const;
    /** scheduleBoundary the dispatch of @p m on shard @p s. */
    void deliver(Shard &s, const BoundaryMsg &m);
    void startJob(Shard &s, int job, const std::function<void()> *fn,
                  Time until);
    void waitJob(Shard &s);

    Config cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;
    bool threaded_ = false;
    Time lastRunUntil_ = 0;
    /// Shards that reached `until` in the current run(). Finished
    /// shards keep draining their inbound rings until every shard is
    /// done, so a neighbor spinning on a full ring into a finished
    /// shard cannot hang.
    std::atomic<std::size_t> runDone_{0};
};

} // namespace npf::sim

#endif // NPF_SIM_SHARD_HH
