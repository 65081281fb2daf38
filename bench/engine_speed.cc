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
 * CI smoke run (scripts/check.sh tier 5) exercises the determinism
 * contract.
 *
 * Emits BENCH_engine.json (override with --json=FILE).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hh"
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

struct Result
{
    const char *workload;
    const char *engine;
    std::uint64_t ops;
    double seconds;

    double opsPerSec() const { return double(ops) / seconds; }
};

template <typename Fn>
Result
timed(const char *workload, const char *engine, Fn fn)
{
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t ops = fn();
    Result r{workload, engine, ops, secondsSince(t0)};
    std::printf("  %-16s %-8s %12llu ops  %8.3f s  %12.0f ops/s\n",
                r.workload, r.engine,
                static_cast<unsigned long long>(r.ops), r.seconds,
                r.opsPerSec());
    std::fflush(stdout);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json = "BENCH_engine.json";
    bool smoke = false;
    bench::parseFlagsOrExit(argc, argv, bench::timingFlags(&json, &smoke));
    const char *json_path = json.c_str();
    const std::uint64_t scale = smoke ? 8 : 1; // CI: sizes / 8

    const std::uint64_t kDrainN = 1'000'000 / scale;
    const std::uint64_t kCancelN = 500'000 / scale;
    const std::uint64_t kMixedN = 1'000'000 / scale;
    const std::uint64_t kPacketHops = 1'000'000 / scale;
    constexpr unsigned kChains = 256;

    std::printf("engine_speed: ladder EventQueue vs binary-heap "
                "oracle\n");

    std::vector<Result> results;
    auto ladder = [&](auto fn) {
        sim::EventQueue eq;
        return fn(eq);
    };
    auto heap = [&](auto fn) {
        simtest::HeapEventQueue eq;
        return fn(eq);
    };

    results.push_back(timed("schedule_drain", "ladder", [&] {
        return ladder([&](auto &eq) { return scheduleDrain(eq, kDrainN, 7); });
    }));
    results.push_back(timed("schedule_drain", "heap", [&] {
        return heap([&](auto &eq) { return scheduleDrain(eq, kDrainN, 7); });
    }));
    results.push_back(timed("cancel_heavy", "ladder", [&] {
        return ladder([&](auto &eq) { return cancelHeavy(eq, kCancelN); });
    }));
    results.push_back(timed("cancel_heavy", "heap", [&] {
        return heap([&](auto &eq) { return cancelHeavy(eq, kCancelN); });
    }));
    results.push_back(timed("mixed", "ladder", [&] {
        return ladder([&](auto &eq) { return mixed(eq, kMixedN, 11); });
    }));
    results.push_back(timed("mixed", "heap", [&] {
        return heap([&](auto &eq) { return mixed(eq, kMixedN, 11); });
    }));
    auto packetPath = [&](auto &eq) {
        return PacketPath(eq, kPacketHops, 13).run(kChains);
    };
    results.push_back(timed("packet_path", "ladder",
                            [&] { return ladder(packetPath); }));
    results.push_back(timed("packet_path", "heap",
                            [&] { return heap(packetPath); }));

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
    bool deterministic = d1 == d2 && p1 == p2;
    std::printf("  determinism replay: %s (digests mixed %016llx, "
                "packet_path %016llx)\n",
                deterministic ? "ok" : "MISMATCH",
                static_cast<unsigned long long>(d1),
                static_cast<unsigned long long>(p1));

    std::FILE *js = std::fopen(json_path, "w");
    if (!js) {
        std::perror("fopen BENCH_engine.json");
        return 1;
    }
    std::fprintf(js, "{\n  \"bench\": \"engine_speed\",\n");
    std::fprintf(js, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        std::fprintf(js,
                     "    {\"workload\": \"%s\", \"engine\": \"%s\", "
                     "\"ops\": %llu, \"seconds\": %.6f, "
                     "\"ops_per_sec\": %.0f}%s\n",
                     r.workload, r.engine,
                     static_cast<unsigned long long>(r.ops), r.seconds,
                     r.opsPerSec(), i + 1 < results.size() ? "," : "");
    }
    std::fprintf(js, "  ],\n  \"speedup_vs_heap\": {\n");
    bool meets = true;
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        double speedup =
            results[i].opsPerSec() / results[i + 1].opsPerSec();
        if (std::strcmp(results[i].workload, "cancel_heavy") == 0)
            meets = speedup >= 3.0;
        std::printf("  %-16s speedup %.2fx\n", results[i].workload,
                    speedup);
        std::fprintf(js, "    \"%s\": %.2f%s\n", results[i].workload,
                     speedup, i + 3 < results.size() ? "," : "");
    }
    std::fprintf(js, "  },\n  \"determinism_replay\": \"%s\"\n}\n",
                 deterministic ? "ok" : "mismatch");
    std::fclose(js);
    std::printf("  wrote %s\n", json_path);

    if (!deterministic)
        return 1;
    if (!meets) {
        std::printf("  WARNING: cancel_heavy speedup below 3x target\n");
        return 2;
    }
    return 0;
}
