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
 * Every scenario gates stack_steady_allocs[<scenario>] == 0 over its
 * measure window (the squeezed ones stack_window_faults too; tier 7
 * of scripts/check.sh requires them) and reports throughput plus the
 * simulated-seconds-per-wall-second ratio. Emits BENCH_stack.json
 * (--json=FILE overrides); --smoke shrinks the windows for CI.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "bench/common.hh"
#include "bench/report.hh"
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
    /// Fault work in the window (eth.backup_parked or core.npfs): a
    /// squeezed window without any gates nothing on the fault path.
    bool squeezed = false;
    std::uint64_t faults = 0;
};

/** Print @p r's row and record its row and gates in @p rep. */
void
report(Report &rep, const ScenarioResult &r)
{
    row("  %-18s %9.2f sim-s  %8.2f wall-s  %6.1fx  %9.0f ev/s  "
        "%8.0f ops/s  (warmup_allocs=%llu)",
        r.name, r.simSeconds, r.wallSeconds,
        r.simSeconds / r.wallSeconds, double(r.events) / r.wallSeconds,
        double(r.ops) / r.simSeconds,
        static_cast<unsigned long long>(r.warmupAllocs));
    rep.row("scenarios").set("name", r.name)
        .set("steady_allocs", r.steadyAllocs)
        .set("warmup_allocs", r.warmupAllocs).set("events", r.events)
        .set("ops", r.ops).set("sim_seconds", r.simSeconds)
        .set("wall_seconds", r.wallSeconds)
        .set("events_per_sec", double(r.events) / r.wallSeconds)
        .set("ops_per_sim_sec", double(r.ops) / r.simSeconds)
        .set("window_faults", r.faults);
    rep.gate(std::string("stack_steady_allocs[") + r.name + "]",
             r.steadyAllocs, Cmp::Eq, 0);
    if (r.squeezed)
        rep.gate(std::string("stack_window_faults[") + r.name + "]",
                 r.faults, Cmp::Gt, 0);
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
        r.squeezed = true;
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
    // KvWorld pre-sizes the histogram bucket windows: they must exist
    // before the first in-window completion, or the gate counts their
    // growth.
    KvWorld w(bed, pc, load::RecorderConfig{warm, meas}, {});
    w.connect(4);
    load::ClientPool &pool = w.pool;
    pool.start();
    Squeeze squeeze{eq, bed.serverMm, 2 * squeezePages, kSqueezePeriod};
    if (squeezePages > 0) {
        squeeze.arm();
        r.squeezed = true;
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
    Report rep("stack_bench", json);
    rep.params.set("smoke", smoke);
    report(rep, runEthMemaslap("eth_pin", eth::RxFaultPolicy::Pin, 256,
                               warm, meas));
    report(rep, runEthMemaslap("eth_backup",
                               eth::RxFaultPolicy::BackupRing, 64, warm,
                               meas));
    report(rep, runIbOpenLoop("ib_openloop", warm, meas));
    report(rep, runEthMemaslap("eth_backup_reclaim",
                               eth::RxFaultPolicy::BackupRing, 64, warm,
                               meas, kSqueezePages));
    report(rep, runIbOpenLoop("ib_npf_reclaim", warm, meas, kSqueezePages));
    if (g_traceWanted)
        dumpAllocSites();
    return rep.finish();
}
