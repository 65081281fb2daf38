/**
 * @file
 * Whole-stack allocation gate and throughput bench for the pooled
 * packet/WR lifecycle: proves the slab/generation-handle refactor
 * actually removed steady-state heap traffic, end to end, not just
 * in the unit-tested corners.
 *
 * Three scenarios, each an end-to-end testbed warmed past its
 * startup transient and then measured with a counting global
 * operator new (src/scenario/alloc_counter.hh):
 *
 *  - eth_pin:     fig04-class memcached + memaslap over the TCP/
 *                 Ethernet bed with pinned rx buffers — the pure
 *                 fast path (no NPFs at all).
 *  - eth_backup:  the same workload on the backup-ring policy from a
 *                 cold ring — warmup absorbs the rNPF storm, the
 *                 measure window runs warm (tab05's non-overcommitted
 *                 row).
 *  - ib_openloop: load_sweep-class open-loop KV-RPC over IB RC
 *                 QueuePairs with the load::Recorder attached —
 *                 exercises the WR/Completion pools, the flat
 *                 in-flight rings, and the recorder's pre-reserved
 *                 histograms.
 *
 * Every scenario asserts steady_allocs == 0 over its measure window
 * (greppable "stack_steady_allocs[...]=N PASS|FAIL" lines; scripts/
 * check.sh tier 7 asserts them) and reports throughput plus the
 * simulated-seconds-per-wall-second ratio. Emits BENCH_stack.json
 * (--json=FILE overrides); --smoke shrinks the windows for CI.
 * Exit 1 = steady-state allocation detected (a real regression,
 * never noise).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "bench/common.hh"
#include "scenario/alloc_counter.hh"
#include "scenario/ib_world.hh"

using namespace npf;
using namespace npf::app;
using namespace npf::bench;
using namespace npf::scenario;

namespace {

// STACK_BENCH_TRACE=1 additionally buckets measure-window allocations
// by call stack and dumps the offenders at exit (symbolize the
// addresses with addr2line) — the tool that localizes a gate
// regression to its source line.
bool g_traceWanted = false;

struct ScenarioResult
{
    const char *name = "";
    std::uint64_t warmupAllocs = 0; ///< informational: startup cost
    std::uint64_t steadyAllocs = 0; ///< the gate: must be 0
    std::uint64_t events = 0;       ///< simulator callbacks in measure
    std::uint64_t ops = 0;          ///< transactions in measure
    double simSeconds = 0;
    double wallSeconds = 0;
};

void
report(const ScenarioResult &r)
{
    row("  %-12s %9.2f sim-s  %8.2f wall-s  %6.1fx  %9.0f ev/s  "
        "%8.0f ops/s",
        r.name, r.simSeconds, r.wallSeconds,
        r.simSeconds / r.wallSeconds, double(r.events) / r.wallSeconds,
        double(r.ops) / r.simSeconds);
    std::printf("stack_steady_allocs[%s]=%llu %s  (warmup_allocs=%llu)\n",
                r.name, static_cast<unsigned long long>(r.steadyAllocs),
                r.steadyAllocs == 0 ? "PASS" : "FAIL",
                static_cast<unsigned long long>(r.warmupAllocs));
    std::fflush(stdout);
}

/**
 * fig04/tab05-class closed-loop memcached over the Ethernet bed.
 * Pin: all-warm fast path. BackupRing from a cold ring: the warmup
 * window absorbs the rNPF transient, steady state is fault-free
 * (the non-overcommitted configuration — pages stay resident).
 */
ScenarioResult
runEthMemaslap(const char *name, eth::RxFaultPolicy policy,
               std::size_t ring, sim::Time warm, sim::Time meas)
{
    ScenarioResult r;
    r.name = name;
    std::uint64_t allocs0 = allocCount();

    EthBed bed({.policy = policy, .ringSize = ring});
    HostModel host;
    // Preload the whole working set: steady-state SETs overwrite in
    // place, so the KvStore's map/LRU nodes never churn.
    MemcachedInstance mc(bed, host,
                         {.preloadKeys = 2000,
                          .slap = MemaslapConfig{0.9, 2000, 4, 64}});
    requireConnected(mc);
    Memaslap &slap = *mc.slap;
    slap.start();

    bed.eq.runUntil(bed.eq.now() + warm);
    r.warmupAllocs = allocCount() - allocs0;

    traceAllocSites(g_traceWanted);
    std::uint64_t before = allocCount();
    std::uint64_t ops0 = slap.transactions();
    std::uint64_t ev0 = bed.eq.stats().executed;
    auto t0 = std::chrono::steady_clock::now();
    bed.eq.runUntil(bed.eq.now() + meas);
    traceAllocSites(false);
    r.wallSeconds = secondsSince(t0);
    r.steadyAllocs = allocCount() - before;
    r.ops = slap.transactions() - ops0;
    r.events = bed.eq.stats().executed - ev0;
    r.simSeconds = sim::toSeconds(meas);
    return r;
}

/**
 * load_sweep-class open-loop KV-RPC over IB RC: Poisson arrivals
 * multiplexed over four QPs, latency into a load::Recorder whose
 * histogram windows are pre-reserved before the measure window opens.
 */
ScenarioResult
runIbOpenLoop(sim::Time warm, sim::Time meas)
{
    ScenarioResult r;
    r.name = "ib_openloop";
    std::uint64_t allocs0 = allocCount();

    load::PoolConfig pc;
    pc.clients = 256;
    pc.seed = 1;
    pc.workload.arrival.kind = load::ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = 120e3;
    pc.workload.keys.kind = load::KeySpec::Kind::Uniform;
    pc.workload.keys.keys = 2000;
    pc.workload.getRatio = 0.9;

    sim::EventQueue eq;
    IbBed bed(eq);
    // Histogram bucket windows must exist before the first in-window
    // completion, or the gate counts their growth.
    KvWorld w(bed, pc, load::RecorderConfig{warm, meas},
              {.reserveHistograms = true});
    w.connect(4);
    load::ClientPool &pool = w.pool;
    pool.start();

    eq.runUntil(warm);
    r.warmupAllocs = allocCount() - allocs0;

    traceAllocSites(g_traceWanted);
    std::uint64_t before = allocCount();
    std::uint64_t ops0 = pool.completions();
    std::uint64_t ev0 = eq.stats().executed;
    auto t0 = std::chrono::steady_clock::now();
    eq.runUntil(warm + meas);
    traceAllocSites(false);
    r.wallSeconds = secondsSince(t0);
    r.steadyAllocs = allocCount() - before;
    r.ops = pool.completions() - ops0;
    r.events = eq.stats().executed - ev0;
    r.simSeconds = sim::toSeconds(meas);
    pool.stop();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json = "BENCH_stack.json";
    bool smoke = false;
    parseFlagsOrExit(argc, argv, timingFlags(&json, &smoke));
    const char *json_path = json.c_str();

    g_traceWanted = std::getenv("STACK_BENCH_TRACE") != nullptr;

    const sim::Time warm =
        smoke ? 500 * sim::kMillisecond : 2 * sim::kSecond;
    const sim::Time meas = smoke ? sim::kSecond : 5 * sim::kSecond;

    header("stack_bench: steady-state allocation gate, end to end");
    row("  %-12s %9s        %8s        %6s  %9s       %8s", "scenario",
        "sim", "wall", "ratio", "events", "thruput");

    ScenarioResult res[3];
    res[0] = runEthMemaslap("eth_pin", eth::RxFaultPolicy::Pin, 256,
                            warm, meas);
    report(res[0]);
    res[1] = runEthMemaslap("eth_backup", eth::RxFaultPolicy::BackupRing,
                            64, warm, meas);
    report(res[1]);
    res[2] = runIbOpenLoop(warm, meas);
    report(res[2]);

    bool ok = true;
    for (const ScenarioResult &r : res)
        ok = ok && r.steadyAllocs == 0;
    if (g_traceWanted)
        dumpAllocSites();

    std::FILE *js = std::fopen(json_path, "w");
    if (!js) {
        std::perror("fopen BENCH_stack.json");
        return 1;
    }
    std::fprintf(js, "{\n  \"bench\": \"stack_bench\",\n");
    std::fprintf(js, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(js, "  \"scenarios\": [\n");
    for (int i = 0; i < 3; ++i) {
        const ScenarioResult &r = res[i];
        std::fprintf(js,
                     "    {\"name\": \"%s\", \"steady_allocs\": %llu, "
                     "\"warmup_allocs\": %llu, \"events\": %llu, "
                     "\"ops\": %llu, \"sim_seconds\": %.3f, "
                     "\"wall_seconds\": %.3f, \"events_per_sec\": %.0f, "
                     "\"ops_per_sim_sec\": %.0f}%s\n",
                     r.name,
                     static_cast<unsigned long long>(r.steadyAllocs),
                     static_cast<unsigned long long>(r.warmupAllocs),
                     static_cast<unsigned long long>(r.events),
                     static_cast<unsigned long long>(r.ops),
                     r.simSeconds, r.wallSeconds,
                     double(r.events) / r.wallSeconds,
                     double(r.ops) / r.simSeconds, i < 2 ? "," : "");
    }
    std::fprintf(js, "  ],\n");
    std::fprintf(js, "  \"allocs_ok\": %s\n}\n", ok ? "true" : "false");
    std::fclose(js);
    std::printf("  wrote %s\n", json_path);

    return ok ? 0 : 1;
}
