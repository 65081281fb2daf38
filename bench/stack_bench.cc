/**
 * @file
 * Whole-stack allocation gate and throughput bench for the pooled
 * packet/WR lifecycle: proves the slab/generation-handle refactor
 * actually removed steady-state heap traffic, end to end, not just
 * in the unit-tested corners.
 *
 * Five scenarios, each an end-to-end testbed warmed past its
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
 *  - eth_backup_reclaim: eth_backup with a periodic reclaim squeeze on
 *                 the server host, so rx buffers keep going cold and
 *                 the window parks frames on the backup ring and
 *                 resolves their rNPFs (asserts eth.backup_parked > 0).
 *  - ib_npf_reclaim: ib_openloop with the same squeeze on the server
 *                 host, so zero-copy replies keep raising send-side
 *                 NPFs, queued and merged in the controller (asserts
 *                 core.npfs > 0).
 *
 * Every scenario asserts steady_allocs == 0 over its measure window
 * (greppable "stack_steady_allocs[...]=N PASS|FAIL" lines; scripts/
 * check.sh tier 7 asserts them) and reports throughput plus the
 * simulated-seconds-per-wall-second ratio. Emits BENCH_stack.json
 * (--json=FILE overrides); --smoke shrinks the windows for CI.
 * Exit 1 = steady-state allocation detected, or a squeezed window
 * that raised no fault (a real regression, never noise).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "bench/common.hh"
#include "eth/backup_ring.hh"
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

/// The reclaim squeeze of the *_reclaim scenarios' measure windows.
/// Their warm-ups squeeze twice as hard, so the grow-only buffers
/// (event slab, QP and NIC rings) reach their high-water marks before
/// the window opens, as the recorder's histograms are reserved.
constexpr std::size_t kSqueezePages = 64;
constexpr sim::Time kSqueezePeriod = 10 * sim::kMillisecond;

struct ScenarioResult
{
    const char *name = "";
    std::uint64_t warmupAllocs = 0; ///< informational: startup cost
    std::uint64_t steadyAllocs = 0; ///< the gate: must be 0
    std::uint64_t events = 0;       ///< simulator callbacks in measure
    std::uint64_t ops = 0;          ///< transactions in measure
    double simSeconds = 0;
    double wallSeconds = 0;
    /// The squeezed scenarios' fault work in the window, which must be
    /// non-zero: a window without it gates nothing on the fault path.
    const char *faultCounter = nullptr;
    std::uint64_t faults = 0;

    bool ok() const
    {
        return steadyAllocs == 0 && (faultCounter == nullptr || faults > 0);
    }
};

void
report(const ScenarioResult &r)
{
    row("  %-18s %9.2f sim-s  %8.2f wall-s  %6.1fx  %9.0f ev/s  "
        "%8.0f ops/s",
        r.name, r.simSeconds, r.wallSeconds,
        r.simSeconds / r.wallSeconds, double(r.events) / r.wallSeconds,
        double(r.ops) / r.simSeconds);
    std::printf("stack_steady_allocs[%s]=%llu %s  (warmup_allocs=%llu)\n",
                r.name, static_cast<unsigned long long>(r.steadyAllocs),
                r.steadyAllocs == 0 ? "PASS" : "FAIL",
                static_cast<unsigned long long>(r.warmupAllocs));
    if (r.faultCounter != nullptr)
        std::printf("stack_window_faults[%s] %s=%llu %s\n", r.name,
                    r.faultCounter, static_cast<unsigned long long>(r.faults),
                    r.faults > 0 ? "PASS" : "FAIL");
    std::fflush(stdout);
}

/**
 * Reclaims @p pages from @p mm every @p period, so pages the NIC has
 * mapped keep going cold and the measure window keeps faulting. The
 * closure holds only `this`, so re-arming never allocates.
 */
struct Squeeze
{
    sim::EventQueue &eq;
    mem::MemoryManager &mm;
    std::size_t pages;
    sim::Time period;

    void
    arm()
    {
        eq.scheduleAfter(period, [this] {
            mm.reclaimPages(pages);
            arm();
        }, "stack.squeeze");
    }
};

/**
 * fig04/tab05-class closed-loop memcached over the Ethernet bed.
 * Pin: all-warm fast path. BackupRing from a cold ring: the warmup
 * window absorbs the rNPF transient, steady state is fault-free
 * (the non-overcommitted configuration — pages stay resident).
 */
ScenarioResult
runEthMemaslap(const char *name, eth::RxFaultPolicy policy,
               std::size_t ring, sim::Time warm, sim::Time meas,
               std::size_t squeezePages = 0)
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
    Squeeze squeeze{bed.eq, *bed.serverMm, 2 * squeezePages,
                    kSqueezePeriod};
    if (squeezePages > 0) {
        squeeze.arm();
        r.faultCounter = "eth.backup_parked";
    }
    const eth::BackupRingManager::Stats &backup =
        bed.serverNic->backupManager().stats();

    bed.eq.runUntil(bed.eq.now() + warm);
    r.warmupAllocs = allocCount() - allocs0;

    traceAllocSites(g_traceWanted);
    std::uint64_t before = allocCount();
    std::uint64_t ops0 = slap.transactions();
    std::uint64_t ev0 = bed.eq.stats().executed;
    std::uint64_t parked0 = backup.parked;
    squeeze.pages = squeezePages;
    auto t0 = std::chrono::steady_clock::now();
    bed.eq.runUntil(bed.eq.now() + meas);
    traceAllocSites(false);
    r.wallSeconds = secondsSince(t0);
    r.steadyAllocs = allocCount() - before;
    r.ops = slap.transactions() - ops0;
    r.events = bed.eq.stats().executed - ev0;
    r.faults = backup.parked - parked0;
    r.simSeconds = sim::toSeconds(meas);
    return r;
}

/**
 * load_sweep-class open-loop KV-RPC over IB RC: Poisson arrivals
 * multiplexed over four QPs, latency into a load::Recorder whose
 * histogram windows are pre-reserved before the measure window opens.
 */
ScenarioResult
runIbOpenLoop(const char *name, sim::Time warm, sim::Time meas,
              std::size_t squeezePages = 0)
{
    ScenarioResult r;
    r.name = name;
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
    Squeeze squeeze{eq, bed.serverMm, 2 * squeezePages, kSqueezePeriod};
    if (squeezePages > 0) {
        squeeze.arm();
        r.faultCounter = "core.npfs";
    }
    const core::NpfController::Stats &npf = bed.serverNpfc.stats();

    eq.runUntil(warm);
    r.warmupAllocs = allocCount() - allocs0;

    traceAllocSites(g_traceWanted);
    std::uint64_t before = allocCount();
    std::uint64_t ops0 = pool.completions();
    std::uint64_t ev0 = eq.stats().executed;
    std::uint64_t npfs0 = npf.npfs;
    squeeze.pages = squeezePages;
    auto t0 = std::chrono::steady_clock::now();
    eq.runUntil(warm + meas);
    traceAllocSites(false);
    r.wallSeconds = secondsSince(t0);
    r.steadyAllocs = allocCount() - before;
    r.ops = pool.completions() - ops0;
    r.events = eq.stats().executed - ev0;
    r.faults = npf.npfs - npfs0;
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
    row("  %-18s %9s        %8s        %6s  %9s       %8s", "scenario",
        "sim", "wall", "ratio", "events", "thruput");

    // The first three scenarios' event and op counts are pinned in
    // scripts/golden_digests_worlds.sha256 in this order; new ones go
    // after them.
    ScenarioResult res[5];
    res[0] = runEthMemaslap("eth_pin", eth::RxFaultPolicy::Pin, 256,
                            warm, meas);
    report(res[0]);
    res[1] = runEthMemaslap("eth_backup", eth::RxFaultPolicy::BackupRing,
                            64, warm, meas);
    report(res[1]);
    res[2] = runIbOpenLoop("ib_openloop", warm, meas);
    report(res[2]);
    res[3] = runEthMemaslap("eth_backup_reclaim",
                            eth::RxFaultPolicy::BackupRing, 64, warm, meas,
                            kSqueezePages);
    report(res[3]);
    res[4] = runIbOpenLoop("ib_npf_reclaim", warm, meas, kSqueezePages);
    report(res[4]);

    bool ok = true;
    for (const ScenarioResult &r : res)
        ok = ok && r.ok();
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
    for (std::size_t i = 0; i < std::size(res); ++i) {
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
                     double(r.ops) / r.simSeconds,
                     i + 1 < std::size(res) ? "," : "");
    }
    std::fprintf(js, "  ],\n");
    std::fprintf(js, "  \"allocs_ok\": %s\n}\n", ok ? "true" : "false");
    std::fclose(js);
    std::printf("  wrote %s\n", json_path);

    return ok ? 0 : 1;
}
