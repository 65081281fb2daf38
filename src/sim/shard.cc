#include "sim/shard.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "sim/thread_owned.hh"

namespace npf::sim {

namespace {

/// Bounds on the number of polls a waiting shard makes with a CPU
/// pause between them before it yields the CPU instead. The upper
/// bound is about 20-50 us on a Xeon with a 21 ns pause: ten times
/// what one lookahead round takes when every shard has its own core.
/// Each shard adapts its own limit between the two (see
/// waitForNeighbors), so that with fewer CPUs than shards, where
/// spinning only delays the neighbor it waits for, it soon yields
/// almost at once.
constexpr unsigned kMinSpins = 16;
constexpr unsigned kMaxSpins = 1024;

/** Back off once in a wait loop: pause for the first @p limit polls,
 *  yield after. */
void
relax(unsigned spins, unsigned limit = kMaxSpins)
{
    if (spins < limit) {
#if defined(__x86_64__) || defined(__i386__)
        _mm_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    } else {
        std::this_thread::yield();
    }
}

} // namespace

ShardedEngine::ShardedEngine(Config cfg) : cfg_(cfg)
{
    if (cfg_.shards == 0)
        cfg_.shards = 1;
    if (cfg_.lookahead == 0)
        cfg_.lookahead = 1; // conservative sync needs strictly
                            // positive lookahead to make progress;
                            // 1 suffices because published clocks are
                            // floors on *future* work (see runShard)
    threaded_ = cfg_.shards > 1;
    shards_.reserve(cfg_.shards);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        auto sh = std::make_unique<Shard>();
        sh->id = s;
        sh->in.resize(cfg_.shards);
        for (unsigned src = 0; src < cfg_.shards; ++src)
            if (src != s)
                sh->in[src] =
                    std::make_unique<SpscRing>(cfg_.ringCapacity);
        shards_.push_back(std::move(sh));
    }
    if (threaded_) {
        for (auto &sh : shards_)
            sh->th = std::thread([this, p = sh.get()] { workerLoop(*p); });
        // Hand each shard's message pool to its worker: debug builds
        // assert pool ownership, and deliveries acquire from it on
        // the worker thread.
        for (auto &sh : shards_) {
            Pool<BoundaryMsg> *pool = &sh->msgPool;
            invokeOn(sh->id, [pool] { pool->rebindOwner(); });
        }
    }
}

ShardedEngine::~ShardedEngine()
{
    if (threaded_) {
        for (auto &sh : shards_) {
            // Destroy the queue on its worker: undelivered event
            // closures hold PoolRefs into that thread's thread-local
            // pools (fabric record parking, oversized delegate
            // captures), and release asserts thread ownership in
            // debug builds.
            invokeOn(sh->id, [&sh] { sh->eq.reset(); });
            startJob(*sh, 3, nullptr, 0);
            waitJob(*sh);
            sh->th.join();
        }
    }
}

void
ShardedEngine::startJob(Shard &s, int job, const std::function<void()> *fn,
                        Time until)
{
    std::lock_guard<std::mutex> lk(s.mu);
    s.job = job;
    s.fn = fn;
    s.until = until;
    s.done = false;
    s.cv.notify_all();
}

void
ShardedEngine::waitJob(Shard &s)
{
    std::unique_lock<std::mutex> lk(s.mu);
    s.cv.wait(lk, [&s] { return s.done; });
}

void
ShardedEngine::workerLoop(Shard &s)
{
    for (;;) {
        int job;
        const std::function<void()> *fn;
        Time until;
        {
            std::unique_lock<std::mutex> lk(s.mu);
            s.cv.wait(lk, [&s] { return s.job != 0; });
            job = s.job;
            fn = s.fn;
            until = s.until;
            s.job = 0;
        }
        if (job == 1)
            (*fn)();
        else if (job == 2)
            runShard(s, until);
        else if (job == 3)
            // The worlds and the queue died on this thread already;
            // free the per-thread pools and registries they used.
            releaseThreadOwned();
        {
            std::lock_guard<std::mutex> lk(s.mu);
            s.done = true;
            s.cv.notify_all();
        }
        if (job == 3)
            return;
    }
}

void
ShardedEngine::invokeOn(unsigned s, const std::function<void()> &fn)
{
    Shard &sh = *shards_[s];
    if (!threaded_) {
        fn();
        return;
    }
    if (std::this_thread::get_id() == sh.th.get_id()) {
        fn(); // already on the owning worker (nested use)
        return;
    }
    startJob(sh, 1, &fn, 0);
    waitJob(sh);
}

void
ShardedEngine::bind(unsigned s, std::uint32_t kind, Handler h)
{
    Shard &sh = *shards_[s];
    auto [it, fresh] = sh.handlers.emplace(kind, std::move(h));
    if (!fresh) {
        std::fprintf(stderr,
                     "ShardedEngine: duplicate handler kind %u on "
                     "shard %u\n",
                     kind, s);
        std::abort();
    }
}

void
ShardedEngine::deliver(Shard &s, const BoundaryMsg &m)
{
    auto it = s.handlers.find(m.kind);
    if (it == s.handlers.end()) {
        std::fprintf(stderr,
                     "ShardedEngine: no handler for kind %u on shard "
                     "%u (srcShard %u, when %llu)\n",
                     m.kind, unsigned(m.dstShard), unsigned(m.srcShard),
                     static_cast<unsigned long long>(m.when));
        std::abort();
    }
    // Handler address is stable: unordered_map never moves nodes.
    const Handler *h = &it->second;
    PoolRef ref = s.msgPool.acquire(m);
    s.eq->scheduleBoundary(
        m.when, m.orderKey,
        [h, ref = std::move(ref)] { (*h)(*ref.as<BoundaryMsg>()); },
        "shard::boundary");
}

void
ShardedEngine::post(const BoundaryMsg &m)
{
    Shard &src = *shards_[m.srcShard];
    Shard &dst = *shards_[m.dstShard];
    ++src.posted;
    if (&src == &dst) {
        deliver(dst, m);
        return;
    }
    // The lookahead floor is THE safety invariant of the conservative
    // protocol; a violation in a release build would otherwise decay
    // into silent nondeterminism between shard counts (the delivery
    // would be clamped into the receiver's past), so check it in all
    // builds.
    if (m.when < saturatingAdd(src.eq->now(), cfg_.lookahead)) {
        std::fprintf(stderr,
                     "ShardedEngine: boundary message inside the "
                     "lookahead window: when %llu < now %llu + "
                     "lookahead %llu (kind %u, shard %u -> %u)\n",
                     static_cast<unsigned long long>(m.when),
                     static_cast<unsigned long long>(src.eq->now()),
                     static_cast<unsigned long long>(cfg_.lookahead),
                     m.kind, unsigned(m.srcShard), unsigned(m.dstShard));
        std::abort();
    }
    SpscRing &ring = *dst.in[m.srcShard];
    // Full ring = backpressure: the sender stalls (its clock stops
    // advancing) until the receiver drains. While waiting, drain our
    // own inbound rings: if two shards burst into each other's full
    // rings inside one horizon window, each is popping exactly the
    // ring the other is spinning on, so the cycle cannot deadlock.
    // (Drained messages are future events by the lookahead invariant;
    // they are scheduled, never executed, from here.)
    for (unsigned spins = 0; !ring.tryPush(m); ++spins) {
        ++src.sync.fullRingSpins;
        drainInto(src);
        relax(spins);
    }
}

void
ShardedEngine::drainInto(Shard &s)
{
    for (auto &ring : s.in)
        if (ring)
            s.sync.drained += ring->popAll(
                [this, &s](const BoundaryMsg &m) { deliver(s, m); });
}

Time
ShardedEngine::horizonFor(const Shard &s) const
{
    Time horizon = kTimeMax; // exclusive
    for (const auto &other : shards_)
        if (other.get() != &s)
            horizon = std::min(
                horizon,
                saturatingAdd(other->clock.load(std::memory_order_acquire),
                              cfg_.lookahead));
    return horizon;
}

void
ShardedEngine::waitForNeighbors(const Shard &s, Time horizon,
                                unsigned &spinLimit) const
{
    auto ready = [&] {
        if (horizonFor(s) != horizon ||
            runDone_.load(std::memory_order_acquire) == shards_.size())
            return true;
        for (const auto &ring : s.in)
            if (ring && ring->size() * 2 >= ring->capacity())
                return true; // a sender may be blocked on it: drain
        return false;
    };
    unsigned spins = 0;
    while (!ready())
        relax(spins++, spinLimit);
    // A wait that outlasted the spin suggests the neighbor is not
    // running (it shares our CPU): spin less next time. One that ended
    // while spinning suggests it is: spin more.
    if (spins > spinLimit)
        spinLimit = std::max(kMinSpins, spinLimit / 2);
    else
        spinLimit = std::min(kMaxSpins, spinLimit * 2);
}

void
ShardedEngine::runShard(Shard &s, Time until)
{
    const Time lookahead = cfg_.lookahead;
    bool finished = false;
    unsigned spinLimit = kMaxSpins;
    for (;;) {
        // Load clocks BEFORE draining: once clock_j = C is observed,
        // every message from j sent below C is already in the ring
        // (push happens-before the clock release-store), and every
        // message still in flight has when >= C + lookahead.
        Time horizon = horizonFor(s);
        drainInto(s);
        if (finished) {
            // Ran through `until`, but keep draining: a neighbor may
            // still be spinning on a full ring into us while it
            // executes its own final window.
            if (runDone_.load(std::memory_order_acquire) ==
                shards_.size())
                return;
            waitForNeighbors(s, horizon, spinLimit);
            continue;
        }
        // clock_j is a floor on j's FUTURE executions (it never again
        // runs an event below clock_j), so every in-flight message
        // from j has when >= clock_j + lookahead = horizon_j: times
        // strictly below horizon are safe. Running through horizon-1
        // and publishing horizon-1 + 1 is what makes lookahead == 1
        // sufficient for progress — the old "ran through here" clock
        // pinned every shard at min_j(clock_j) and livelocked there.
        // The third bound caps the round at one lookahead past our
        // own floor: without it a shard behind by one lookahead runs
        // two while its neighbor blocks, and the two leapfrog.
        Time prev = s.clock.load(std::memory_order_relaxed);
        Time runTo = std::min(
            {until, horizon - 1, saturatingAdd(prev, lookahead - 1)});
        s.eq->runUntil(runTo);
        Time next = saturatingAdd(runTo, 1);
        s.clock.store(next, std::memory_order_release);
        if (next > prev) {
            ++s.sync.rounds;
            s.sync.maxAdvance = std::max(s.sync.maxAdvance, next - prev);
        }
        if (runTo == until && horizon > until) {
            // Every message with when <= until is accounted for.
            finished = true;
            runDone_.fetch_add(1, std::memory_order_acq_rel);
            continue;
        }
        if (next <= prev) {
            // Blocked on a neighbor: wait for the horizon this round
            // used to move.
            ++s.sync.blockedWaits;
            waitForNeighbors(s, horizon, spinLimit);
        }
    }
}

void
ShardedEngine::run(Time until)
{
    assert(until >= lastRunUntil_ && "run() deadlines must not go back");
    lastRunUntil_ = until;
    if (!threaded_) {
        Shard &s = *shards_[0];
        s.eq->runUntil(until);
        s.clock.store(saturatingAdd(until, 1),
                      std::memory_order_release);
        return;
    }
    runDone_.store(0, std::memory_order_relaxed);
    for (auto &sh : shards_)
        startJob(*sh, 2, nullptr, until);
    for (auto &sh : shards_)
        waitJob(*sh);
}

std::uint64_t
ShardedEngine::posted() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards_)
        n += sh->posted;
    return n;
}

} // namespace npf::sim
