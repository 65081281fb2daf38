/**
 * @file
 * Scaling gate for the sharded simulation core (docs/SHARDING.md).
 *
 * A configuration with S shards builds S KV-RPC worlds — 1M+ logical
 * clients and the offered rate, split evenly — plus a ring of
 * cross-shard RC streams riding the fabric record plane, so the
 * shards genuinely couple through BoundaryMsgs rather than running
 * embarrassingly parallel. The bench runs S = 1 and S = --shards=N,
 * so the two runs do not simulate the same work: the 1-shard run is
 * one world with every client at the full rate and a loopback stream
 * (docs/SHARDING.md). It reports wall-clock events/sec for each, the
 * N-shard run's per-shard sync counters (ShardedEngine::SyncStats),
 * replays the N-shard run to prove per-seed bit-identical
 * determinism (gate replay_mismatches), and writes BENCH_shard.json.
 *
 * The >=3x speedup gate (speedup_vs_1shard) is only meaningful with
 * real cores under the worker threads: below 4 hardware threads, or
 * with --no-speed-gate, it is not recorded (scaling_gate says why),
 * and the JSON keeps the honest measured numbers either way.
 *
 *   shard_scale [--shards=N] [--clients=N] [--rate=R] [--endpoints=N]
 *               [--warmup=D] [--duration=D] [--seed=N] [--json=FILE]
 *               [--no-speed-gate]
 */

#include <cinttypes>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "bench/report.hh"
#include "scenario/digest.hh"
#include "scenario/ib_world.hh"

using namespace npf;
using namespace npf::app;
using namespace npf::bench;
using namespace npf::scenario;

namespace {

/** One shard's worlds: the cross-shard stream ring's endpoint and a
 *  private KV world (server, clients and fabric all intra-shard on
 *  the closure plane), exactly the load_sweep IB stack. */
struct ShardWorld
{
    std::unique_ptr<StreamWorld> stream;
    std::unique_ptr<IbBed> bed;
    std::unique_ptr<KvWorld> kv;
};

struct RunResult
{
    std::uint64_t events = 0; ///< executed, summed over shards
    double seconds = 0;       ///< wall clock around engine.run()
    std::uint64_t completions = 0;
    std::uint64_t streamMsgs = 0;
    std::uint64_t digest = 0;
    /// Per shard; all zero on 1 shard, which runs no sync protocol.
    std::vector<sim::ShardedEngine::SyncStats> sync;
};

RunResult
runConfig(const ShardArgs &a, unsigned shards)
{
    sim::ShardedEngine::Config ec;
    ec.shards = shards;
    // The stream fabric's bound, the widest legal horizon.
    ec.lookahead = StreamWorld::kFabric.recordLookahead();
    sim::ShardedEngine engine(ec);

    std::vector<ShardWorld> worlds(shards);
    for (unsigned s = 0; s < shards; ++s) {
        engine.invokeOn(s, [&, s] {
            load::PoolConfig pc;
            pc.clients = a.clients / shards;
            // Distinct per-shard streams; identical on every replay.
            pc.seed = a.seed * 0x9e37 + s;
            std::string err;
            auto spec = load::WorkloadSpec::parse(
                "keys=zipf:n=10k,theta=0.99;get=0.9", &err);
            pc.workload = *spec;
            pc.workload.arrival.kind = load::ArrivalSpec::Kind::Poisson;
            pc.workload.arrival.ratePerSec = a.rate / shards;
            unsigned eps = a.endpoints / shards;
            if (eps == 0)
                eps = 1;
            ShardWorld &w = worlds[s];
            w.stream = std::make_unique<StreamWorld>(engine.queue(s),
                                                     engine, s, shards);
            w.bed = std::make_unique<IbBed>(engine.queue(s));
            w.kv = std::make_unique<KvWorld>(
                *w.bed, pc, load::RecorderConfig{a.warmup, a.duration},
                KvWorld::Options{.kvBytes = 512ull << 20});
            w.kv->connect(eps);
            w.kv->pool.start();
        });
    }

    auto t0 = std::chrono::steady_clock::now();
    engine.run(a.warmup + a.duration);

    RunResult r;
    r.seconds = secondsSince(t0);
    for (unsigned s = 0; s < shards; ++s)
        r.sync.push_back(engine.syncStats(s));
    Digest d;
    for (unsigned s = 0; s < shards; ++s) {
        engine.invokeOn(s, [&, s] {
            ShardWorld &w = worlds[s];
            w.kv->pool.stop();
            w.stream->stopped = true;

            const sim::EventQueue::Stats &es = engine.queue(s).stats();
            r.events += es.executed;
            r.completions += w.kv->pool.completions();
            r.streamMsgs += w.stream->received;

            d.mix(s);
            d.mix(engine.queue(s).now());
            d.mix(es.executed);
            d.mix(es.scheduled);
            d.mix(w.kv->pool.completions());
            d.mix(w.kv->pool.timeouts());
            d.mix(w.kv->pool.retries());
            d.mix(w.kv->rec.completions(0));
            d.mix(w.kv->rec.completions(1));
            d.mix(w.bed->serverNpfc.stats().npfs);
            d.mix(w.bed->clientNpfcs[0].stats().npfs);
            d.mix(w.stream->sent);
            d.mix(w.stream->received);
            d.mix(w.stream->tx->stats().dataPacketsSent);
            d.mix(w.stream->tx->stats().bytesDelivered);
            d.mix(w.stream->rx->stats().messagesDelivered);
            d.mix(w.stream->npfc.stats().npfs);
            // Worlds die on the thread that built them, before the
            // engine joins its workers.
            w.kv.reset();
            w.bed.reset();
            w.stream.reset();
        });
    }
    r.digest = d.h;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    ShardArgs a;
    parseFlagsOrExit(argc, argv, shardScaleFlags(a));
    unsigned cpus = std::thread::hardware_concurrency();

    header("shard_scale: sharded engine scaling gate");
    row("clients=%" PRIu64 " rate=%.0f/s endpoints=%u warmup+duration="
        "%.0fms cpus=%u",
        a.clients, a.rate, a.endpoints,
        sim::toSeconds(a.warmup + a.duration) * 1e3, cpus);
    row("%7s %12s %9s %14s %12s %10s", "shards", "events", "wall[s]",
        "events/s", "kv-compl", "stream-msg");

    Report rep("shard_scale", a.json);
    rep.params.set("clients", a.clients).set("cpus", cpus);
    // Prints a run's row and records it; returns its events/s.
    auto result = [&rep](const RunResult &r) {
        double evs = double(r.events) / r.seconds;
        row("%7zu %12" PRIu64 " %9.3f %14.0f %12" PRIu64 " %10" PRIu64,
            r.sync.size(), r.events, r.seconds, evs, r.completions,
            r.streamMsgs);
        rep.row("results").set("shards", r.sync.size())
            .set("events", r.events).set("seconds", r.seconds)
            .set("events_per_sec", evs).set("kv_completions", r.completions)
            .set("stream_msgs", r.streamMsgs).set("digest", hex64(r.digest));
        return evs;
    };
    RunResult r1 = runConfig(a, 1);
    double ev1 = result(r1);
    RunResult rn = runConfig(a, a.shards);
    double evn = result(rn);

    row("%7s %10s %10s %10s %11s %14s", "shard", "rounds", "blocked",
        "drained", "full-spins", "max-advance[ns]");
    for (unsigned s = 0; s < a.shards; ++s) {
        const sim::ShardedEngine::SyncStats &st = rn.sync[s];
        row("%7u %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %11" PRIu64
            " %14" PRIu64,
            s, st.rounds, st.blockedWaits, st.drained, st.fullRingSpins,
            std::uint64_t(st.maxAdvance));
        rep.row("sync").set("shard", s).set("rounds", st.rounds)
            .set("blocked_waits", st.blockedWaits).set("drained", st.drained)
            .set("full_ring_spins", st.fullRingSpins)
            .set("max_advance_ns", st.maxAdvance);
    }

    // Replay the parallel configuration: conservative sync must make
    // the N-shard run a pure function of the seed, thread timing be
    // damned.
    RunResult rr = runConfig(a, a.shards);
    row("replay digest %s vs %s", hex64(rr.digest).c_str(),
        hex64(rn.digest).c_str());

    double speedup = evn / ev1;
    const char *verdict;
    if (cpus < 4)
        verdict = "insufficient_cores";
    else if (speedup >= 3.0)
        verdict = "pass";
    else
        verdict = "fail";
    row("speedup %ux vs 1: %.2fx  (scaling_gate >=3x: %s)", a.shards,
        speedup, verdict);

    rep.values.set("speedup_vs_1shard", speedup).set("scaling_gate", verdict);
    rep.gate("replay_mismatches", unsigned(rr.digest != rn.digest),
             Cmp::Eq, 0);
    if (!a.noSpeedGate && cpus >= 4)
        rep.gate("speedup_vs_1shard", speedup, Cmp::Ge, 3.0);
    return rep.finish();
}
