/**
 * @file
 * Whole-stack allocation gate and throughput bench for the pooled
 * packet/WR lifecycle: proves the slab/generation-handle refactor
 * actually removed steady-state heap traffic, end to end, not just
 * in the unit-tested corners.
 *
 * Three scenarios, each an end-to-end testbed warmed past its
 * startup transient and then measured with a counting global
 * operator new (the obs_overhead technique):
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

#include <execinfo.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "app/kv_rpc.hh"
#include "bench/common.hh"
#include "load/client_pool.hh"
#include "load/recorder.hh"
#include "net/fabric.hh"

// --- allocation counter ----------------------------------------------
// Counts every global new (scalar and array). Single-threaded bench,
// plain counter. delete stays count-free: only allocation matters.
//
// STACK_BENCH_TRACE=1 additionally buckets measure-window allocations
// by call stack and dumps the offenders at exit (symbolize the
// addresses with addr2line) — the tool that localizes a gate
// regression to its source line.

static std::uint64_t g_allocs = 0;
static bool g_trace = false;
static bool g_traceWanted = false;

namespace {

struct AllocSite
{
    void *frames[12];
    int n = 0;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

AllocSite g_sites[256];
int g_nsites = 0;
bool g_inHook = false;

void
recordAllocSite(std::size_t sz)
{
    void *frames[12];
    int n = backtrace(frames, 12);
    for (int i = 0; i < g_nsites; ++i) {
        AllocSite &s = g_sites[i];
        if (s.n == n && std::memcmp(s.frames, frames,
                                    std::size_t(n) * sizeof(void *)) == 0) {
            ++s.count;
            s.bytes += sz;
            return;
        }
    }
    if (g_nsites < 256) {
        AllocSite &s = g_sites[g_nsites++];
        std::memcpy(s.frames, frames, std::size_t(n) * sizeof(void *));
        s.n = n;
        s.count = 1;
        s.bytes = sz;
    }
}

void
dumpAllocSites()
{
    for (int i = 0; i < g_nsites; ++i) {
        std::fprintf(stderr, "--- alloc site %d: count=%llu bytes=%llu\n",
                     i, static_cast<unsigned long long>(g_sites[i].count),
                     static_cast<unsigned long long>(g_sites[i].bytes));
        backtrace_symbols_fd(g_sites[i].frames, g_sites[i].n, 2);
    }
}

} // namespace

void *
operator new(std::size_t sz)
{
    ++g_allocs;
    if (g_trace && !g_inHook) {
        g_inHook = true;
        recordAllocSite(sz);
        g_inHook = false;
    }
    if (void *p = std::malloc(sz != 0 ? sz : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t sz)
{
    return ::operator new(sz);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace npf;
using namespace npf::app;
using namespace npf::bench;

namespace {

constexpr std::size_t kMiB = 1ull << 20;
constexpr std::size_t kGiB = 1ull << 30;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

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
    std::uint64_t allocs0 = g_allocs;

    EthBed::Options o;
    o.policy = policy;
    o.ringSize = ring;
    EthBed bed(o);
    HostModel host;
    host.addInstance();
    KvStore kv(*bed.serverAs, 64 * kMiB, 1024);
    MemcachedServer server(bed.eq, kv, host);
    // Preload the whole working set: steady-state SETs overwrite in
    // place, so the KvStore's map/LRU nodes never churn.
    constexpr std::uint64_t kKeys = 2000;
    for (std::uint64_t k = 0; k < kKeys; ++k)
        kv.set(k);

    std::vector<std::unique_ptr<RpcChannel>> chans;
    std::vector<RpcChannel *> raw;
    for (std::uint32_t id = 1; id <= 4; ++id) {
        if (!bed.connect(id)) {
            std::fprintf(stderr, "%s: connect %u failed\n", name, id);
            std::exit(2);
        }
        chans.push_back(std::make_unique<RpcChannel>(
            bed.client->connection(id), bed.server->connection(id)));
        server.serve(*chans.back());
        raw.push_back(chans.back().get());
    }
    Memaslap slap(bed.eq, raw, MemaslapConfig{0.9, kKeys, 4, 64});
    slap.start();

    bed.eq.runUntil(bed.eq.now() + warm);
    r.warmupAllocs = g_allocs - allocs0;

    g_trace = g_traceWanted;
    std::uint64_t before = g_allocs;
    std::uint64_t ops0 = slap.transactions();
    std::uint64_t ev0 = bed.eq.stats().executed;
    auto t0 = std::chrono::steady_clock::now();
    bed.eq.runUntil(bed.eq.now() + meas);
    g_trace = false;
    r.wallSeconds = secondsSince(t0);
    r.steadyAllocs = g_allocs - before;
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
    std::uint64_t allocs0 = g_allocs;

    sim::EventQueue eq;
    net::Fabric fabric(eq, 2,
                       net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                         200});
    mem::MemoryManager serverMm(2 * kGiB), clientMm(2 * kGiB);
    mem::AddressSpace &serverAs = serverMm.createAddressSpace("kv");
    mem::AddressSpace &clientAs = clientMm.createAddressSpace("load");
    core::NpfController serverNpfc(eq), clientNpfc(eq);
    core::ChannelId sch = serverNpfc.attach(serverAs);
    core::ChannelId cch = clientNpfc.attach(clientAs);

    HostModel host;
    host.addInstance();
    KvStore kv(serverAs, 64 * kMiB, 1024);
    KvRpcConfig rpc;
    KvRcServer server(eq, kv, host, serverAs, rpc);
    constexpr std::uint64_t kKeys = 2000;
    for (std::uint64_t k = 0; k < kKeys; ++k)
        kv.set(k);

    load::PoolConfig pc;
    pc.clients = 256;
    pc.seed = 1;
    pc.workload.arrival.kind = load::ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = 120e3;
    pc.workload.keys.kind = load::KeySpec::Kind::Uniform;
    pc.workload.keys.keys = kKeys;
    pc.workload.getRatio = 0.9;

    std::vector<std::unique_ptr<ib::QueuePair>> qps;
    std::vector<std::unique_ptr<KvRcTransport>> transports;
    load::Recorder rec(load::RecorderConfig{warm, meas});
    load::ClientPool pool(eq, pc);
    pool.setRecorder(rec);
    // Histogram bucket windows must exist before the first in-window
    // completion, or the gate counts their growth.
    rec.reserveLatencyRange(0.1, 1e7);
    for (unsigned i = 0; i < 4; ++i) {
        auto qpS = std::make_unique<ib::QueuePair>(eq, fabric, 0,
                                                   serverNpfc, sch);
        auto qpC = std::make_unique<ib::QueuePair>(eq, fabric, 1,
                                                   clientNpfc, cch);
        qpS->connect(*qpC);
        qpC->connect(*qpS);
        auto reqs = std::make_shared<sim::RingDeque<KvRpcRequest>>();
        auto rsps = std::make_shared<sim::RingDeque<KvRpcResponse>>();
        server.addSession(*qpS, reqs, rsps);
        transports.push_back(std::make_unique<KvRcTransport>(
            *qpC, clientAs, reqs, rsps, rpc));
        transports.back()->connect(pool);
        qps.push_back(std::move(qpS));
        qps.push_back(std::move(qpC));
    }
    pool.start();

    eq.runUntil(warm);
    r.warmupAllocs = g_allocs - allocs0;

    g_trace = g_traceWanted;
    std::uint64_t before = g_allocs;
    std::uint64_t ops0 = pool.completions();
    std::uint64_t ev0 = eq.stats().executed;
    auto t0 = std::chrono::steady_clock::now();
    eq.runUntil(warm + meas);
    g_trace = false;
    r.wallSeconds = secondsSince(t0);
    r.steadyAllocs = g_allocs - before;
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
    if (g_traceWanted) {
        void *w[4];
        backtrace(w, 4); // warm libgcc's unwinder outside the window
    }

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
