/**
 * @file
 * Event-engine microbenchmark: the ladder-queue sim::EventQueue
 * against the retained binary-heap engine (tests/heap_event_queue.hh)
 * on four workloads:
 *
 *   schedule_drain  schedule a large batch at random offsets, drain
 *   cancel_heavy    the timer-restart pattern (arm a far-out timer,
 *                   do a little work, cancel, re-arm) that made the
 *                   old engine's lazily-reaped heap balloon
 *   mixed           a live population with interleaved schedule /
 *                   execute / cancel, shaped like NIC + RTO traffic
 *   packet_path     256 self-rescheduling packet chains, 100 ns - 5 us
 *                   hops in 16-hop RPCs, each hop restarting a far
 *                   timer: the event density of a packet-level run, so
 *                   the level-0 wheel geometry shows up here
 *
 * Also replays mixed and packet_path twice each on the new engine and
 * compares order-sensitive digests of the execution sequence, so the
 * CI smoke run (scripts/check.sh tier 5) gates the determinism
 * contract; the cancel_heavy >= 3x speedup over the heap is soft.
 *
 * Emits BENCH_engine.json (override with --json=FILE).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hh"
#include "bench/report.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"
#include "tests/heap_event_queue.hh"

using namespace npf;
using npf::bench::secondsSince;

namespace {

/**
 * Stand-in for the simulator's per-packet delivery closures (an
 * ib::Packet or eth::Frame plus a peer pointer, ~80 bytes): big
 * enough to defeat std::function's small-buffer optimization, small
 * enough for the event queue's inline Delegate storage.
 */
struct PacketLike
{
    std::uint64_t seq, key, a, b, c, d, e;
    std::uint32_t len, flags;
};

/** Schedule @p n packet deliveries at now + U(1us, 10ms), drain. */
template <typename Engine>
std::uint64_t
scheduleDrain(Engine &eq, std::uint64_t n, std::uint32_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<sim::Time> d(sim::kMicrosecond,
                                               10 * sim::kMillisecond);
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        PacketLike pkt{};
        pkt.seq = i;
        eq.scheduleAfter(d(rng), [&sink, pkt] { sink += pkt.seq; });
    }
    eq.run();
    return 2 * n; // one schedule + one execution per event
}

/**
 * The timer-restart pattern: every packet re-arms the connection's
 * retransmit, delayed-ack, and idle-sweep timers (the tcp.rto /
 * ib.retransmit / load sweep trio), cancelling the previous
 * generation. Almost every timer dies unfired; the old engine kept
 * each corpse in its heap until simulated time passed its deadline,
 * so the structure ballooned with dead entries that every push and
 * pop still had to sift around.
 */
template <typename Engine>
std::uint64_t
cancelHeavy(Engine &eq, std::uint64_t n)
{
    static constexpr sim::Time kHorizon[3] = {
        50 * sim::kMillisecond,  // delayed ack
        200 * sim::kMillisecond, // retransmit
        sim::kSecond,            // idle sweep
    };
    std::uint64_t sink = 0;
    decltype(eq.schedule(0, [] {})) timers[3] = {};
    for (auto &t : timers)
        t = eq.scheduleAfter(kHorizon[0], [&sink] { ++sink; });
    for (std::uint64_t i = 0; i < n; ++i) {
        PacketLike pkt{};
        pkt.seq = i;
        eq.scheduleAfter(sim::kMicrosecond,
                         [&sink, pkt] { sink += pkt.seq; });
        eq.step();
        for (unsigned t = 0; t < 3; ++t) {
            eq.cancel(timers[t]);
            timers[t] =
                eq.scheduleAfter(kHorizon[t], [&sink] { ++sink; });
        }
    }
    eq.run();
    return 8 * n; // schedule + execute + 3 x (cancel + re-arm)
}

/**
 * Mixed traffic against a standing population: 60% schedule, 25%
 * execute-next, 15% cancel a recent event. Returns an order-sensitive
 * digest via @p digest so a replay can prove determinism.
 */
template <typename Engine>
std::uint64_t
mixed(Engine &eq, std::uint64_t n, std::uint32_t seed,
      std::uint64_t *digest = nullptr)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<sim::Time> delay(100, sim::kMillisecond);
    std::uint64_t h = 1469598103934665603ull; // FNV offset basis
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    std::vector<decltype(eq.schedule(0, [] {}))> recent;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t r = rng() % 100;
        if (r < 60) { // schedule a packet delivery
            PacketLike pkt{};
            pkt.seq = i;
            auto id = eq.scheduleAfter(
                delay(rng),
                [&mix, &eq, pkt] { mix(eq.now() ^ pkt.seq); });
            if (recent.size() < 4096)
                recent.push_back(id);
        } else if (r < 85) { // execute next
            eq.step();
        } else if (!recent.empty()) { // cancel a recent event
            std::size_t k = rng() % recent.size();
            eq.cancel(recent[k]);
            recent[k] = recent.back();
            recent.pop_back();
        }
    }
    eq.run();
    if (digest)
        *digest = h;
    return n + eq.stats().executed;
}

/**
 * State of the packet_path workload: @p chains clients, each a packet
 * hop that reschedules itself 100 ns - 5 us later and, like an RC
 * sender, cancels and re-arms its 200 ms retransmit timer on every
 * hop, until the chains have rescheduled @p hops times between them.
 * After every 16 hops (one RPC) a client idles 0.25 - 2.25 ms, so 256
 * chains put an event every ~300 ns of simulated time, the density of
 * a packet-level run (perfbench ib_kv_openloop: 200k RPCs/s, ~16
 * events each). Back-to-back hops would be 30x denser than that.
 */
template <typename Engine>
class PacketPath
{
  public:
    using Id = decltype(std::declval<Engine &>().schedule(0, [] {}));

    PacketPath(Engine &eq, std::uint64_t hops, std::uint32_t seed)
        : eq_(eq), hopsLeft_(hops), rng_(seed)
    {
    }

    /** Runs the workload; returns the operation count. */
    std::uint64_t
    run(unsigned chains)
    {
        timers_.resize(chains);
        for (unsigned c = 0; c < chains; ++c) {
            timers_[c] = eq_.scheduleAfter(kRto, [] {});
            PacketLike pkt{};
            pkt.key = c;
            scheduleHop(pkt);
        }
        eq_.run();
        return 4 * hops_; // execute + re-schedule + cancel + re-arm
    }

    /** Order-sensitive digest of every hop's (time, chain, seq). */
    std::uint64_t digest() const { return digest_; }

  private:
    static constexpr sim::Time kRto = 200 * sim::kMillisecond;
    static constexpr std::uint64_t kHopsPerRpc = 16;

    void
    scheduleHop(PacketLike pkt)
    {
        sim::Time delay = pkt.seq % kHopsPerRpc == 0 ? thinkDelay_(rng_)
                                                     : hopDelay_(rng_);
        eq_.scheduleAfter(delay, [this, pkt] { hop(pkt); });
    }

    void
    hop(PacketLike pkt)
    {
        ++hops_;
        digest_ = (digest_ ^ (eq_.now() * 31 + pkt.key * 7 + pkt.seq)) *
                  1099511628211ull;
        std::size_t c = pkt.key;
        eq_.cancel(timers_[c]);
        timers_[c] = eq_.scheduleAfter(kRto, [] {});
        if (hopsLeft_ == 0)
            return;
        --hopsLeft_;
        ++pkt.seq;
        scheduleHop(pkt);
    }

    Engine &eq_;
    std::uint64_t hopsLeft_;
    std::mt19937_64 rng_;
    std::uniform_int_distribution<sim::Time> hopDelay_{100,
                                                       5 * sim::kMicrosecond};
    std::uniform_int_distribution<sim::Time> thinkDelay_{
        250 * sim::kMicrosecond, 2250 * sim::kMicrosecond};
    std::vector<Id> timers_;
    std::uint64_t hops_ = 0;
    std::uint64_t digest_ = 1469598103934665603ull; // FNV offset basis
};

/** Seconds @p fn takes on a fresh @p Engine, its construction and
 *  teardown included; @p ops gets fn's operation count. */
template <typename Engine, typename Fn>
double
timed(Fn fn, std::uint64_t *ops)
{
    auto t0 = std::chrono::steady_clock::now();
    *ops = [&] {
        Engine eq;
        return fn(eq);
    }();
    return secondsSince(t0);
}

/**
 * Times @p fn on the ladder engine and then on the heap oracle,
 * prints and records both runs and returns the ladder's speedup.
 */
template <typename Fn>
double
compare(bench::Report &rep, const char *workload, Fn fn)
{
    std::uint64_t ops[2] = {};
    const double secs[2] = {timed<sim::EventQueue>(fn, &ops[0]),
                            timed<simtest::HeapEventQueue>(fn, &ops[1])};
    const char *engines[2] = {"ladder", "heap"};
    double opsPerSec[2] = {};
    for (int e = 0; e < 2; ++e) {
        opsPerSec[e] = double(ops[e]) / secs[e];
        std::printf("  %-16s %-8s %12llu ops  %8.3f s  %12.0f ops/s\n",
                    workload, engines[e],
                    static_cast<unsigned long long>(ops[e]), secs[e],
                    opsPerSec[e]);
        rep.row("results").set("workload", workload)
            .set("engine", engines[e]).set("ops", ops[e])
            .set("seconds", secs[e]).set("ops_per_sec", opsPerSec[e]);
    }
    double speedup = opsPerSec[0] / opsPerSec[1];
    std::printf("  %-16s speedup %.2fx\n", workload, speedup);
    std::fflush(stdout);
    rep.row("speedup_vs_heap").set("workload", workload)
        .set("speedup", speedup);
    return speedup;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json = "BENCH_engine.json";
    bool smoke = false;
    bench::parseFlagsOrExit(argc, argv, bench::timingFlags(&json, &smoke));
    const std::uint64_t scale = smoke ? 8 : 1; // CI: sizes / 8

    const std::uint64_t kDrainN = 1'000'000 / scale;
    const std::uint64_t kCancelN = 500'000 / scale;
    const std::uint64_t kMixedN = 1'000'000 / scale;
    const std::uint64_t kPacketHops = 1'000'000 / scale;
    constexpr unsigned kChains = 256;

    std::printf("engine_speed: ladder EventQueue vs binary-heap "
                "oracle\n");

    bench::Report rep("engine_speed", json);
    rep.params.set("smoke", smoke);
    compare(rep, "schedule_drain",
            [&](auto &eq) { return scheduleDrain(eq, kDrainN, 7); });
    rep.gate("cancel_heavy_speedup",
             compare(rep, "cancel_heavy",
                     [&](auto &eq) { return cancelHeavy(eq, kCancelN); }),
             bench::Cmp::Ge, 3.0, bench::Severity::Soft);
    compare(rep, "mixed", [&](auto &eq) { return mixed(eq, kMixedN, 11); });
    compare(rep, "packet_path", [&](auto &eq) {
        return PacketPath(eq, kPacketHops, 13).run(kChains);
    });

    // Determinism replay: the same op stream twice through the new
    // engine must execute in the identical order.
    std::uint64_t d1 = 0, d2 = 0, p1 = 0, p2 = 0;
    {
        sim::EventQueue a, b;
        mixed(a, kMixedN / 4, 23, &d1);
        mixed(b, kMixedN / 4, 23, &d2);
    }
    {
        sim::EventQueue a, b;
        PacketPath pa(a, kPacketHops / 4, 29), pb(b, kPacketHops / 4, 29);
        pa.run(kChains);
        pb.run(kChains);
        p1 = pa.digest();
        p2 = pb.digest();
    }
    std::printf("  replay digests: mixed %s, packet_path %s\n",
                bench::hex64(d1).c_str(), bench::hex64(p1).c_str());
    rep.values.set("replay_digest_mixed", bench::hex64(d1))
        .set("replay_digest_packet_path", bench::hex64(p1));
    rep.gate("replay_mismatches", unsigned(d1 != d2) + unsigned(p1 != p2),
             bench::Cmp::Eq, 0);
    return rep.finish();
}
