/**
 * @file
 * Shared helpers for the experiment benches: table printing and the
 * two-host Ethernet testbed (mirrors tests/testbed.hh, tuned for the
 * paper's §6 Ethernet setup: 12 Gb/s prototype NIC, memcached server
 * on a direct channel, client on a standard pinned stack).
 */

#ifndef NPF_BENCH_COMMON_HH
#define NPF_BENCH_COMMON_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "app/memcached.hh"
#include "bench/flags.hh"
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
 * nullptr (and change nothing) when the flag was absent; the flag
 * table has already rejected a malformed spec. Keep the returned
 * injector alive for the run; because the injector binds to one event
 * queue, benches that build several beds must scope it per bed.
 */
inline std::unique_ptr<fault::FaultInjector>
installFaultPlan(const ObsArgs &a, sim::EventQueue &eq)
{
    if (a.faultPlan.empty())
        return nullptr;
    return std::make_unique<fault::FaultInjector>(
        eq, fault::FaultPlan::parse(a.faultPlan, nullptr).value(),
        a.faultSeed);
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
    return std::make_unique<obs::Session>(eq, a);
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
