/**
 * @file
 * Chaos-recovery bench: drive the full stack through a fault plan and
 * report what the recovery machinery did. Three scenarios, each with
 * its own event queue and a fresh injector built from the same plan
 * and seed:
 *
 *   1. TCP over the Ethernet testbed — bidirectional RPC-style
 *      traffic through link drops/dups/reordering, FCS corruption,
 *      RX-pipeline stalls and forced rNPFs;
 *   2. IB RC queue pair with cold receive buffers — drop/reorder on
 *      the wire while real rNPFs resolve (RNR NACKs, PSN rewinds);
 *   3. a timed memory-pressure + IOTLB-eviction storm against a
 *      steady DMA sweep, faulting pages back in as they vanish.
 *
 * Output is a deterministic function of (--fault-plan, --fault-seed):
 * the same pair replays bit-identically, different seeds do not.
 * Flags: --fault-plan=SPEC (grammar in docs/FAULTS.md), --fault-seed=N,
 * plus the shared obs flags; like the sweep benches, each scenario
 * opens its own obs session with a per-scenario output suffix
 * (trace.000.json = TCP, .001 = IB, .002 = storm). With
 * --flight-recorder the scenarios also dump the flight ring at
 * injected-fault clause boundaries (first firing per clause, every
 * timed-storm firing).
 */

#include <memory>
#include <vector>

#include "bench/common.hh"
#include "ib/queue_pair.hh"
#include "net/fabric.hh"

using namespace npf;
using namespace npf::bench;

namespace {

constexpr std::size_t kMiB = 1ull << 20;

/** Every site gets a clause; rates are low enough that recovery wins. */
const char *kDefaultPlan =
    "link:drop:rate=0.004;"
    "link:dup:rate=0.002;"
    "link:reorder:rate=0.002,delay=40us;"
    "eth.rx:corrupt:rate=0.002;"
    "eth.rx:stall:rate=0.002,delay=25us;"
    "tcp.rx:drop:rate=0.004;"
    "ib.rx:drop:rate=0.01;"
    "ib.rx:reorder:rate=0.005,delay=50us;"
    "npf:force:rate=0.001;"
    "mem:pressure:every=5ms,count=20,pages=64;"
    "iotlb:evict:every=3ms,count=30,entries=32";

void
printInjected(const fault::FaultInjector &inj)
{
    row("  injected: link=%llu eth.rx=%llu ib.rx=%llu tcp.rx=%llu "
        "npf=%llu mem=%llu iotlb=%llu (total %llu)",
        (unsigned long long)inj.injected(fault::Site::Link),
        (unsigned long long)inj.injected(fault::Site::EthRx),
        (unsigned long long)inj.injected(fault::Site::IbRx),
        (unsigned long long)inj.injected(fault::Site::TcpRx),
        (unsigned long long)inj.injected(fault::Site::Npf),
        (unsigned long long)inj.injected(fault::Site::Mem),
        (unsigned long long)inj.injected(fault::Site::Iotlb),
        (unsigned long long)inj.injectedTotal());
}

/**
 * With --flight-recorder, dump the ring at injected-fault clause
 * boundaries: the first firing of every clause (high-rate wire
 * clauses would drain the dump budget otherwise) and every firing of
 * the timed storm sites (each burst is a recovery episode worth a
 * pre-incident window). FlightRecorder::maxDumps bounds the total.
 */
void
armClauseDumps(fault::FaultInjector &inj)
{
    if (!obs::flightRecorder().armed())
        return;
    inj.onClauseFired([](std::size_t clause, fault::Site site,
                         fault::Action action, std::uint64_t fired) {
        bool timed =
            site == fault::Site::Mem || site == fault::Site::Iotlb;
        if (!timed && fired != 1)
            return;
        char reason[80];
        std::snprintf(reason, sizeof(reason), "clause %zu %s:%s #%llu",
                      clause, fault::siteName(site),
                      fault::actionName(action),
                      (unsigned long long)fired);
        obs::flightRecorder().dump(reason);
    });
}

// --- scenario 1: TCP over Ethernet -----------------------------------

void
tcpScenario(const ObsArgs &args)
{
    header("chaos 1: TCP/Ethernet bidirectional RPC under plan");
    EthBed bed(EthBed::Options{});
    auto obs = openObsSession(withIter(args, 0), bed.eq);
    auto inj = installFaultPlan(args, bed.eq);
    armClauseDumps(*inj);
    // Timed sites squeeze the server host while traffic flows.
    inj->onTimedAction(fault::Site::Mem, [&](std::uint64_t pages) {
        bed.serverMm->reclaimPages(pages);
    });
    inj->onTimedAction(fault::Site::Iotlb, [&](std::uint64_t entries) {
        bed.serverNpfc->iommu(bed.serverCh).tlb().evictLru(entries);
    });

    if (!bed.connect(1)) {
        row("  handshake FAILED under plan");
        printInjected(*inj);
        return;
    }
    tcp::TcpConnection &cli = bed.client->connection(1);
    tcp::TcpConnection &srv = bed.server->connection(1);
    tcp::MessageStream req(cli, srv), rsp(srv, cli);
    constexpr int kRpcs = 400;
    constexpr std::size_t kReqLen = 512, kRspLen = 4096;
    int completed = 0;
    req.onMessage([&](std::uint64_t cookie, std::size_t) {
        rsp.sendMessage(kRspLen, 0, cookie);
    });
    rsp.onMessage([&](std::uint64_t, std::size_t) { ++completed; });
    for (int i = 0; i < kRpcs; ++i)
        req.sendMessage(kReqLen, 0, i);

    sim::Time start = bed.eq.now();
    bool done = bed.eq.runUntilCondition(
        [&] { return completed == kRpcs; }, start + 300 * sim::kSecond);
    row("  rpcs completed:   %d/%d%s", completed, kRpcs,
        done ? "" : "  [DEADLINE]");
    row("  completion time:  %.3f ms",
        1e3 * sim::toSeconds(bed.eq.now() - start));
    const tcp::TcpConnection::Stats &cs = cli.stats();
    const tcp::TcpConnection::Stats &ss = srv.stats();
    row("  tcp client: retrans=%llu timeouts=%llu fastRetrans=%llu",
        (unsigned long long)cs.retransmissions,
        (unsigned long long)cs.timeouts,
        (unsigned long long)cs.fastRetransmits);
    row("  tcp server: retrans=%llu timeouts=%llu fastRetrans=%llu",
        (unsigned long long)ss.retransmissions,
        (unsigned long long)ss.timeouts,
        (unsigned long long)ss.fastRetransmits);
    row("  server nic: rxCorrupt=%llu rxStalls=%llu rnpfs=%llu",
        (unsigned long long)bed.serverNic->stats().rxCorrupt,
        (unsigned long long)bed.serverNic->stats().rxStalls,
        (unsigned long long)bed.serverNic->ring(0).stats.rnpfs);
    printInjected(*inj);
}

// --- scenario 2: IB RC with cold receive buffers ---------------------

void
ibScenario(const ObsArgs &args)
{
    header("chaos 2: IB RC send/recv, cold buffers, under plan");
    sim::EventQueue eq;
    auto obs = openObsSession(withIter(args, 1), eq);
    auto inj = installFaultPlan(args, eq);
    armClauseDumps(*inj);
    net::Fabric fabric(eq, 2,
                       net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                         200});
    mem::MemoryManager mmA(256 * kMiB), mmB(256 * kMiB);
    mem::AddressSpace &asA = mmA.createAddressSpace("A");
    mem::AddressSpace &asB = mmB.createAddressSpace("B");
    core::NpfController npfcA(eq), npfcB(eq);
    core::ChannelId chA = npfcA.attach(asA), chB = npfcB.attach(asB);
    ib::QueuePair qpA(eq, fabric, 0, npfcA, chA, ib::QpConfig{}, 1);
    ib::QueuePair qpB(eq, fabric, 1, npfcB, chB, ib::QpConfig{}, 2);
    qpA.connect(qpB);
    qpB.connect(qpA);
    inj->onTimedAction(fault::Site::Mem, [&](std::uint64_t pages) {
        mmB.reclaimPages(pages);
    });
    inj->onTimedAction(fault::Site::Iotlb, [&](std::uint64_t entries) {
        npfcB.iommu(chB).tlb().evictLru(entries);
    });

    mem::VirtAddr sbuf = asA.allocRegion(4 * kMiB);
    mem::VirtAddr rbuf = asB.allocRegion(4 * kMiB);
    npfcA.prefault(chA, sbuf, 4 * kMiB, true);
    // rbuf stays cold: every first touch is a genuine rNPF.

    constexpr int kMsgs = 64;
    constexpr std::size_t kLen = 64 * 1024;
    int delivered = 0;
    qpB.onCompletion([&](const ib::Completion &c) {
        if (c.isRecv)
            ++delivered;
    });
    for (int i = 0; i < kMsgs; ++i)
        qpB.postRecv({ib::Opcode::Send, rbuf + (i % 32) * kLen, kLen, 0,
                      std::uint64_t(i)});
    for (int i = 0; i < kMsgs; ++i)
        qpA.postSend({ib::Opcode::Send, sbuf + (i % 32) * kLen, kLen, 0,
                      std::uint64_t(i)});

    sim::Time start = eq.now();
    bool done = eq.runUntilCondition([&] { return delivered == kMsgs; },
                                     start + 120 * sim::kSecond);
    row("  messages:         %d/%d%s", delivered, kMsgs,
        done ? "" : "  [DEADLINE]");
    row("  completion time:  %.3f ms",
        1e3 * sim::toSeconds(eq.now() - start));
    const ib::QueuePair::Stats &sb = qpB.stats();
    row("  receiver: recvNpfs=%llu rnrNacksSent=%llu dropped=%llu",
        (unsigned long long)sb.recvNpfs,
        (unsigned long long)sb.rnrNacksSent,
        (unsigned long long)sb.dataPacketsDropped);
    const ib::QueuePair::Stats &sa = qpA.stats();
    row("  sender: sent=%llu retransmitted=%llu rewinds=%llu "
        "rnrNacksReceived=%llu",
        (unsigned long long)sa.dataPacketsSent,
        (unsigned long long)sa.retransmitted,
        (unsigned long long)sa.rewinds,
        (unsigned long long)sa.rnrNacksReceived);
    printInjected(*inj);
}

// --- scenario 3: timed storms against a steady DMA sweep -------------

void
stormScenario(const ObsArgs &args)
{
    header("chaos 3: mem-pressure + IOTLB storms vs steady DMA");
    sim::EventQueue eq;
    auto obs = openObsSession(withIter(args, 2), eq);
    auto inj = installFaultPlan(args, eq);
    armClauseDumps(*inj);
    mem::MemoryManager mm(32 * kMiB);
    mem::AddressSpace &as = mm.createAddressSpace("sweep");
    core::NpfController npfc(eq);
    core::ChannelId ch = npfc.attach(as);
    inj->onTimedAction(fault::Site::Mem, [&](std::uint64_t pages) {
        mm.reclaimPages(pages);
    });
    inj->onTimedAction(fault::Site::Iotlb, [&](std::uint64_t entries) {
        npfc.iommu(ch).tlb().evictLru(entries);
    });

    constexpr std::size_t kBuf = 16 * kMiB;
    constexpr std::size_t kChunk = 64 * 1024;
    mem::VirtAddr buf = as.allocRegion(kBuf);
    npfc.prefault(ch, buf, kBuf, true);

    // A device reads 64 KiB every 50 us. dmaAccess() goes through the
    // IOTLB, so eviction storms surface as refills and reclaimed
    // pages as faults, repaired on the spot.
    std::uint64_t sweeps = 0, misses = 0, repairedPages = 0;
    std::size_t off = 0;
    constexpr sim::Time kEnd = 30 * sim::kMillisecond;
    std::function<void()> tick = [&] {
        if (!npfc.dmaAccess(ch, buf + off, kChunk, false)) {
            ++misses;
            repairedPages += npfc.checkDma(ch, buf + off, kChunk).missingPages;
            npfc.prefault(ch, buf + off, kChunk, true);
        }
        ++sweeps;
        off = (off + kChunk) % kBuf;
        if (eq.now() + 50 * sim::kMicrosecond < kEnd)
            eq.scheduleAfter(50 * sim::kMicrosecond, tick, "chaos.sweep");
    };
    eq.scheduleAfter(50 * sim::kMicrosecond, tick, "chaos.sweep");
    eq.runUntil(kEnd);

    row("  dma sweeps:       %llu (misses %llu, repaired %llu pages)",
        (unsigned long long)sweeps, (unsigned long long)misses,
        (unsigned long long)repairedPages);
    row("  mm evictions:     %llu",
        (unsigned long long)mm.stats().evictions);
    const iommu::IoTlb::Stats &ts = npfc.iommu(ch).tlb().stats();
    row("  iotlb: hits=%llu misses=%llu evictions=%llu",
        (unsigned long long)ts.hits, (unsigned long long)ts.misses,
        (unsigned long long)ts.evictions);
    printInjected(*inj);
}

} // namespace

int
main(int argc, char **argv)
{
    ObsArgs args;
    args.faultPlan = kDefaultPlan;
    parseFlagsOrExit(argc, argv, obsFlags(args).add(faultFlags(args)));
    header("chaos_recovery");
    row("  plan: %s", args.faultPlan.c_str());
    row("  seed: %llu", (unsigned long long)args.faultSeed);
    tcpScenario(args);
    ibScenario(args);
    stormScenario(args);
    return 0;
}
