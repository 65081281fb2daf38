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
 * determinism, and writes BENCH_shard.json.
 *
 * The >=3x speedup gate is only meaningful with real cores under the
 * worker threads: when hardware_concurrency() < 4 the verdict is
 * recorded as "insufficient_cores" (informational) instead of
 * failing, and the JSON keeps the honest measured numbers either way.
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
    // Must not exceed the stream fabric's recordLookahead()
    // (2000 ns propagation + 500 ns switch = 2500 ns).
    ec.lookahead = 2500;
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

    RunResult r1 = runConfig(a, 1);
    double ev1 = double(r1.events) / r1.seconds;
    row("%7u %12" PRIu64 " %9.3f %14.0f %12" PRIu64 " %10" PRIu64, 1u,
        r1.events, r1.seconds, ev1, r1.completions, r1.streamMsgs);

    RunResult rn = runConfig(a, a.shards);
    double evn = double(rn.events) / rn.seconds;
    row("%7u %12" PRIu64 " %9.3f %14.0f %12" PRIu64 " %10" PRIu64,
        a.shards, rn.events, rn.seconds, evn, rn.completions,
        rn.streamMsgs);

    row("%7s %10s %10s %10s %11s %14s", "shard", "rounds", "blocked",
        "drained", "full-spins", "max-advance[ns]");
    for (unsigned s = 0; s < a.shards; ++s) {
        const sim::ShardedEngine::SyncStats &st = rn.sync[s];
        row("%7u %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %11" PRIu64
            " %14" PRIu64,
            s, st.rounds, st.blockedWaits, st.drained, st.fullRingSpins,
            std::uint64_t(st.maxAdvance));
    }

    // Replay the parallel configuration: conservative sync must make
    // the N-shard run a pure function of the seed, thread timing be
    // damned.
    RunResult rr = runConfig(a, a.shards);
    bool deterministic = rr.digest == rn.digest;
    row("replay digest %016" PRIx64 " vs %016" PRIx64 " : %s",
        rr.digest, rn.digest, deterministic ? "identical" : "MISMATCH");

    double speedup = evn / ev1;
    const char *verdict;
    if (cpus < 4)
        verdict = "insufficient_cores";
    else if (speedup >= 3.0)
        verdict = "pass";
    else
        verdict = "fail";
    row("speedup %ux vs 1: %.2fx  (gate >=3x: %s)", a.shards, speedup,
        verdict);

    FILE *f = std::fopen(a.json.c_str(), "w");
    if (!f) {
        std::perror("fopen BENCH_shard.json");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"shard_scale\",\n");
    std::fprintf(f, "  \"clients\": %" PRIu64 ",\n", a.clients);
    std::fprintf(f, "  \"cpus\": %u,\n", cpus);
    std::fprintf(f, "  \"results\": [\n");
    std::fprintf(f,
                 "    {\"shards\": 1, \"events\": %" PRIu64
                 ", \"seconds\": %.6f, \"events_per_sec\": %.0f, "
                 "\"digest\": \"%016" PRIx64 "\"},\n",
                 r1.events, r1.seconds, ev1, r1.digest);
    std::fprintf(f,
                 "    {\"shards\": %u, \"events\": %" PRIu64
                 ", \"seconds\": %.6f, \"events_per_sec\": %.0f, "
                 "\"digest\": \"%016" PRIx64 "\",\n     \"sync\": [",
                 a.shards, rn.events, rn.seconds, evn, rn.digest);
    for (unsigned s = 0; s < a.shards; ++s) {
        const sim::ShardedEngine::SyncStats &st = rn.sync[s];
        std::fprintf(f,
                     "%s\n      {\"shard\": %u, \"rounds\": %" PRIu64
                     ", \"blocked_waits\": %" PRIu64
                     ", \"drained\": %" PRIu64
                     ", \"full_ring_spins\": %" PRIu64
                     ", \"max_advance_ns\": %" PRIu64 "}",
                     s == 0 ? "" : ",", s, st.rounds, st.blockedWaits,
                     st.drained, st.fullRingSpins,
                     std::uint64_t(st.maxAdvance));
    }
    std::fprintf(f, "]}\n");
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"speedup_vs_1shard\": %.2f,\n", speedup);
    std::fprintf(f, "  \"determinism_replay\": \"%s\",\n",
                 deterministic ? "ok" : "mismatch");
    std::fprintf(f, "  \"scaling_gate\": \"%s\"\n}\n", verdict);
    std::fclose(f);
    row("wrote %s", a.json.c_str());

    if (!deterministic)
        return 1;
    if (!a.noSpeedGate && cpus >= 4 && speedup < 3.0)
        return 1;
    return 0;
}
