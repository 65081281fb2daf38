/**
 * @file
 * Shared helpers for the experiment benches: table printing and the
 * two-host Ethernet testbed (mirrors tests/testbed.hh, tuned for the
 * paper's §6 Ethernet setup: 12 Gb/s prototype NIC, memcached server
 * on a direct channel, client on a standard pinned stack).
 */

#ifndef NPF_BENCH_COMMON_HH
#define NPF_BENCH_COMMON_HH

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "app/memcached.hh"
#include "core/npf_controller.hh"
#include "eth/eth_nic.hh"
#include "fault/fault.hh"
#include "load/spec.hh"
#include "mem/memory_manager.hh"
#include "obs/flight.hh"
#include "obs/session.hh"
#include "tcp/endpoint.hh"

namespace npf::bench {

inline void
header(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

inline void
row(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stdout, fmt, ap);
    va_end(ap);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

/**
 * The numeric value of flag @p arg: all of @p value must parse as a
 * T (in range, no sign for unsigned T, finite for floating T), so
 * "--flight-recorder=64k" fails instead of arming a 64-entry ring.
 * On failure prints "bad argument" and exits 2.
 */
template <typename T>
T
numericFlag(const char *arg, const char *value)
{
    T v{};
    const char *end = value + std::strlen(value);
    auto [p, ec] = std::from_chars(value, end, v);
    bool ok = ec == std::errc() && p == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(v);
    if (!ok) {
        std::fprintf(stderr, "bad argument: %s\n", arg);
        std::exit(2);
    }
    return v;
}

/**
 * Observability flags shared by all benches:
 *
 *   --trace[=FILE]      record a Chrome trace (default trace.json)
 *   --trace-overwrite   sweep benches: one output file, last iteration
 *                       wins (default: per-iteration .NNN suffix)
 *   --metrics-out=FILE  write the metrics snapshot JSON on exit
 *   --sample-us=N       sample counter rates every N microseconds
 *   --fault-plan=SPEC   install a fault plan (see docs/FAULTS.md)
 *   --fault-seed=N      seed for the plan's random streams (default 1)
 *   --warmup=D          warm-up window, e.g. 500ms (0 = bench default)
 *   --duration=D        measure window, e.g. 2s (0 = bench default)
 *   --flight-recorder[=N]  arm the always-on flight recorder with an
 *                       N-event ring (default 65536)
 *   --flight-dump-on-slo   dump the ring when the SLO monitor trips
 *                       (implies --flight-recorder)
 *   --flight-dump[=FILE]   dump the ring at end of run (implies
 *                       --flight-recorder; default flight.json)
 *   --attr              causal latency attribution (phase-attributed
 *                       tails in the SLO report)
 *   --profile-eq        event-loop profiler (per-site counts and wall
 *                       time in the metrics snapshot)
 *
 * Unrecognized arguments are ignored so benches can add their own.
 */
struct ObsArgs
{
    bool trace = false;
    std::string traceOut = "trace.json";
    bool traceOverwrite = false;
    std::string metricsOut;
    sim::Time sampleInterval = 0;
    std::string faultPlan;
    std::uint64_t faultSeed = 1;
    sim::Time warmup = 0;   ///< 0: use the bench's default
    sim::Time duration = 0; ///< 0: use the bench's default
    std::size_t flightCapacity = 0; ///< 0: recorder off
    std::string flightDumpPath = "flight.json";
    bool flightDumpOnSlo = false;
    bool flightDumpAtEnd = false;
    bool attribution = false;
    bool profileEventLoop = false;
};

inline ObsArgs
parseObsArgs(int argc, char **argv)
{
    ObsArgs a;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--trace") == 0) {
            a.trace = true;
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            a.trace = true;
            a.traceOut = arg + 8;
        } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
            a.metricsOut = arg + 14;
        } else if (std::strncmp(arg, "--sample-us=", 12) == 0) {
            a.sampleInterval = sim::fromMicroseconds(
                numericFlag<std::uint64_t>(arg, arg + 12));
        } else if (std::strncmp(arg, "--fault-plan=", 13) == 0) {
            a.faultPlan = arg + 13;
        } else if (std::strncmp(arg, "--fault-seed=", 13) == 0) {
            a.faultSeed = numericFlag<std::uint64_t>(arg, arg + 13);
        } else if (std::strncmp(arg, "--warmup=", 9) == 0) {
            if (!load::parseDuration(arg + 9, &a.warmup)) {
                std::fprintf(stderr, "bad --warmup: %s\n", arg + 9);
                std::exit(2);
            }
        } else if (std::strncmp(arg, "--duration=", 11) == 0) {
            if (!load::parseDuration(arg + 11, &a.duration)) {
                std::fprintf(stderr, "bad --duration: %s\n", arg + 11);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--trace-overwrite") == 0) {
            a.traceOverwrite = true;
        } else if (std::strcmp(arg, "--flight-recorder") == 0) {
            if (a.flightCapacity == 0)
                a.flightCapacity = 1u << 16;
        } else if (std::strncmp(arg, "--flight-recorder=", 18) == 0) {
            a.flightCapacity = numericFlag<std::size_t>(arg, arg + 18);
        } else if (std::strcmp(arg, "--flight-dump-on-slo") == 0) {
            a.flightDumpOnSlo = true;
            if (a.flightCapacity == 0)
                a.flightCapacity = 1u << 16;
        } else if (std::strcmp(arg, "--flight-dump") == 0) {
            a.flightDumpAtEnd = true;
            if (a.flightCapacity == 0)
                a.flightCapacity = 1u << 16;
        } else if (std::strncmp(arg, "--flight-dump=", 14) == 0) {
            a.flightDumpAtEnd = true;
            a.flightDumpPath = arg + 14;
            if (a.flightCapacity == 0)
                a.flightCapacity = 1u << 16;
        } else if (std::strcmp(arg, "--attr") == 0) {
            a.attribution = true;
        } else if (std::strcmp(arg, "--profile-eq") == 0) {
            a.profileEventLoop = true;
        }
    }
    return a;
}

/**
 * Copy of @p a with iteration @p idx folded into every output path
 * ("trace.json" -> "trace.003.json"). Sweep benches that open one
 * obs::Session per configuration call this so iterations do not
 * clobber each other; --trace-overwrite restores the old behavior.
 */
inline ObsArgs
withIter(const ObsArgs &a, unsigned idx)
{
    ObsArgs b = a;
    if (b.traceOverwrite)
        return b;
    if (b.trace)
        b.traceOut = obs::indexedPath(b.traceOut, idx);
    if (!b.metricsOut.empty())
        b.metricsOut = obs::indexedPath(b.metricsOut, idx);
    if (b.flightCapacity != 0)
        b.flightDumpPath = obs::indexedPath(b.flightDumpPath, idx);
    return b;
}

/**
 * Install the fault plan named by --fault-plan on @p eq, or return
 * nullptr (and change nothing) when the flag was absent. A malformed
 * spec aborts the bench with a diagnostic rather than silently
 * running faultless. Keep the returned injector alive for the run;
 * because the injector binds to one event queue, benches that build
 * several beds must scope it per bed.
 */
inline std::unique_ptr<fault::FaultInjector>
installFaultPlan(const ObsArgs &a, sim::EventQueue &eq)
{
    if (a.faultPlan.empty())
        return nullptr;
    std::string err;
    auto plan = fault::FaultPlan::parse(a.faultPlan, &err);
    if (!plan) {
        std::fprintf(stderr, "bad --fault-plan: %s\n", err.c_str());
        std::exit(2);
    }
    return std::make_unique<fault::FaultInjector>(eq, *plan, a.faultSeed);
}

/**
 * One-line observability setup: returns an active obs::Session when
 * any obs flag was given, nullptr otherwise (zero overhead). Keep the
 * returned pointer alive for the run; outputs are written when it is
 * destroyed.
 */
inline std::unique_ptr<obs::Session>
openObsSession(const ObsArgs &a, sim::EventQueue &eq)
{
    if (!a.trace && a.metricsOut.empty() && a.sampleInterval == 0 &&
        a.flightCapacity == 0 && !a.attribution && !a.profileEventLoop)
        return nullptr;
    obs::SessionOptions opt;
    opt.trace = a.trace;
    opt.traceOut = a.traceOut;
    opt.metricsOut = a.metricsOut;
    opt.sampleInterval = a.sampleInterval;
    opt.flightCapacity = a.flightCapacity;
    opt.flightDumpPath = a.flightDumpPath;
    opt.flightDumpOnSlo = a.flightDumpOnSlo;
    opt.flightDumpAtEnd = a.flightDumpAtEnd;
    opt.attribution = a.attribution;
    opt.profileEventLoop = a.profileEventLoop;
    return std::make_unique<obs::Session>(eq, opt);
}

/** Ethernet testbed: one server host (direct channel, selectable
 *  fault policy) and one client host (pinned standard stack). */
struct EthBed
{
    sim::EventQueue eq;
    std::unique_ptr<mem::MemoryManager> serverMm, clientMm;
    mem::AddressSpace *serverAs = nullptr, *clientAs = nullptr;
    std::unique_ptr<core::NpfController> serverNpfc, clientNpfc;
    core::ChannelId serverCh{}, clientCh{};
    std::unique_ptr<eth::EthNic> serverNic, clientNic;
    std::unique_ptr<tcp::Endpoint> server, client;

    struct Options
    {
        eth::RxFaultPolicy policy = eth::RxFaultPolicy::BackupRing;
        std::size_t ringSize = 64;
        std::size_t serverMemBytes = 2ull << 30;
        std::string serverCgroup;       ///< optional cgroup for the VM
        std::size_t cgroupLimit = 0;
        double linkBw = 12e9;           ///< the §5 prototype NIC
        std::size_t mss = 1448;
        std::size_t rxBufBytes = 2048;
        double syntheticRnpfProb = 0.0;
        bool syntheticMajor = false;
        bool prefaultRxBuffers = false;
        mem::BackingStoreConfig serverSwap{};
        mem::MemoryManager *sharedServerMm = nullptr; ///< co-located VMs
        eth::EthNic *sharedServerNic = nullptr;
        eth::EthNic *sharedClientNic = nullptr;
    };

    explicit EthBed(const Options &o)
    {
        mem::MemoryManager *smm = o.sharedServerMm;
        if (smm == nullptr) {
            serverMm = std::make_unique<mem::MemoryManager>(
                o.serverMemBytes, mem::MemCostConfig{}, o.serverSwap);
            smm = serverMm.get();
        }
        if (!o.serverCgroup.empty() && !smm->hasCgroup(o.serverCgroup))
            smm->createCgroup(o.serverCgroup, o.cgroupLimit);
        clientMm = std::make_unique<mem::MemoryManager>(1ull << 30);
        serverAs = &smm->createAddressSpace("server", o.serverCgroup);
        clientAs = &clientMm->createAddressSpace("client");
        serverNpfc = std::make_unique<core::NpfController>(eq);
        clientNpfc = std::make_unique<core::NpfController>(eq);
        core::ChannelId sch = serverNpfc->attach(*serverAs);
        core::ChannelId cch = clientNpfc->attach(*clientAs);
        serverCh = sch;
        clientCh = cch;

        serverNic = std::make_unique<eth::EthNic>(eq, *serverNpfc);
        clientNic = std::make_unique<eth::EthNic>(eq, *clientNpfc);
        net::LinkConfig link;
        link.bandwidthBitsPerSec = o.linkBw;
        link.propagation = 1000;
        serverNic->connectTo(*clientNic, link);
        clientNic->connectTo(*serverNic, link);

        eth::RxRingConfig srv_ring;
        srv_ring.size = o.ringSize;
        srv_ring.bmSize = std::min<std::size_t>(64, o.ringSize);
        srv_ring.policy = o.policy;
        srv_ring.syntheticRnpfProb = o.syntheticRnpfProb;
        srv_ring.syntheticMajor = o.syntheticMajor;

        eth::RxRingConfig cli_ring;
        cli_ring.size = 1024;
        cli_ring.policy = eth::RxFaultPolicy::Pin;

        tcp::EndpointConfig scfg, ccfg;
        scfg.pinRxBuffers = o.policy == eth::RxFaultPolicy::Pin;
        scfg.prefaultRxBuffers = o.prefaultRxBuffers;
        scfg.rxBufBytes = o.rxBufBytes;
        scfg.tcp.mss = o.mss;
        scfg.tcp.maxWindowBytes = 64 * 1024;
        ccfg.pinRxBuffers = true;
        ccfg.rxBufBytes = o.rxBufBytes;
        ccfg.tcp.mss = o.mss;
        ccfg.tcp.maxWindowBytes = 64 * 1024;

        server = std::make_unique<tcp::Endpoint>(
            eq, *serverNic, *serverAs, sch, srv_ring, 0, scfg);
        client = std::make_unique<tcp::Endpoint>(
            eq, *clientNic, *clientAs, cch, cli_ring, 0, ccfg);
    }

    bool
    connect(std::uint32_t id, sim::Time deadline = 300 * sim::kSecond)
    {
        tcp::TcpConnection &srv = server->connection(id);
        tcp::TcpConnection &cli = client->connection(id);
        srv.listen();
        bool done = false, ok = false;
        cli.connect([&](bool success) {
            done = true;
            ok = success;
        });
        eq.runUntilCondition([&] { return done; }, eq.now() + deadline);
        return ok;
    }
};

} // namespace npf::bench

#endif // NPF_BENCH_COMMON_HH
