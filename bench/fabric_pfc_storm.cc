/**
 * @file
 * The coupling the paper warns about, end to end: a network page
 * fault at the *receiver* becomes a fabric-wide PFC pause storm.
 *
 * A sender on one leaf RDMA-writes a stream across a spine to a
 * victim host on the other leaf. The path is congestion-free (every
 * hop at least line rate), so in the warm baseline (victim buffers
 * IOMMU-mapped) nothing ever pauses — any pause frame in the cold
 * run is attributable to the page fault, not to incast. In the cold
 * run the buffers are CPU-present but IOMMU-cold, so every page
 * batch raises an rNPF; the victim NIC (pauseOnRnpf) asserts PFC
 * while each fault resolves, the last-hop queue rides XOFF, and the
 * pause cascades hop by hop: leaf0 pauses the spine, the spine
 * pauses leaf1, leaf1 pauses the sender NICs — innocent hosts
 * three hops from the faulting host is frozen by a memory-management
 * event. The run gates that the storm reached >= 2 switch hops and
 * that losslessness held (zero cap drops), and reports the slowdown;
 * every gate is hard (bench/report.hh).
 *
 * Emits BENCH_fabric.json (--json=FILE overrides). All numbers are
 * simulation-derived, so stdout digests bit-identically.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/flags.hh"
#include "bench/report.hh"
#include "scenario/ib_world.hh"

using namespace npf;

namespace {

constexpr std::size_t kKiB = 1024;

// h0 (victim) and h1 on leaf0; h2, h3 (senders) on leaf1; one spine.
// Vertices: leaf0 = switch 0, leaf1 = switch 1, spine = switch 2.
const char *kTopo = "leafspine:hosts=4,leaves=2,spines=1,bw=8g,"
                    "prop=500,overhead=0,fwd=100,queue=16m,"
                    "xoff=32k,xon=16k";

struct Result
{
    const char *name = "";
    sim::Time finish = 0;
    std::uint64_t rnpfs = 0;
    std::uint64_t hostPauses = 0;
    std::uint64_t leaf0PauseTx = 0;
    std::uint64_t spinePauseTx = 0;
    std::uint64_t leaf1PauseTx = 0;
    std::uint64_t senderPauseRx = 0;
    std::uint64_t capDropped = 0;
    unsigned pauseHops = 0;
};

Result
runStorm(const char *name, bool cold, unsigned msgs,
         std::size_t msg_bytes)
{
    scenario::IncastRig::Options o;
    o.senders = {2}; // on leaf1, beside h3
    o.qp.pauseOnRnpf = true;
    o.regionBytes = msgs * msg_bytes;
    // Cold: CPU-present, IOMMU-cold, the state every freshly touched
    // application buffer is in (docs: Fig. 3 minor NPF path).
    o.warmVictim = !cold;
    scenario::IncastRig rig(net::Topology::parse(kTopo).value(), o);
    net::Fabric &fabric = rig.fabric;
    scenario::IncastRig::Sender &s = rig.senders.front();

    unsigned done = 0;
    s.qp.onCompletion([&done](const ib::Completion &c) {
        if (!c.isRecv && c.ok)
            ++done;
    });
    for (unsigned m = 0; m < msgs; ++m) {
        ib::WorkRequest w;
        w.op = ib::Opcode::RdmaWrite;
        w.local = s.src + m * msg_bytes;
        w.remote = s.dst + m * msg_bytes;
        w.len = msg_bytes;
        w.wrId = m;
        s.qp.postSend(w);
    }

    rig.eq.runUntilCondition([&] { return done >= msgs; },
                             600 * sim::kSecond);

    Result r;
    r.name = name;
    r.finish = rig.eq.now();
    if (done != msgs) {
        std::fprintf(stderr, "FAIL: %s finished %u/%u messages\n", name,
                     done, msgs);
        std::exit(1);
    }

    r.rnpfs = rig.victimNpfc.stats().npfs;
    r.hostPauses = fabric.stats().hostPauses;
    r.leaf0PauseTx = fabric.switchAt(0).stats().pauseTx;
    r.leaf1PauseTx = fabric.switchAt(1).stats().pauseTx;
    r.spinePauseTx = fabric.switchAt(2).stats().pauseTx;
    r.senderPauseRx = fabric.hostPort(2).stats().pauseRx +
                      fabric.hostPort(3).stats().pauseRx;
    for (unsigned sw = 0; sw < fabric.switchCount(); ++sw)
        for (net::Egress *p : fabric.switchAt(sw).egressPorts())
            r.capDropped += p->stats().capDropped;
    r.pauseHops = unsigned(r.leaf0PauseTx > 0) +
                  unsigned(r.spinePauseTx > 0) +
                  unsigned(r.leaf1PauseTx > 0);
    return r;
}

/** Print @p r and record its row in @p rep. */
void
report(bench::Report &rep, const Result &r)
{
    std::printf("  %-8s finish=%" PRIu64 " ns  rnpfs=%" PRIu64
                " host_pauses=%" PRIu64 "\n",
                r.name, r.finish, r.rnpfs, r.hostPauses);
    std::printf("  %-8s pause_tx leaf0=%" PRIu64 " spine=%" PRIu64
                " leaf1=%" PRIu64 "  sender_pause_rx=%" PRIu64
                "  hops=%u  cap_dropped=%" PRIu64 "\n",
                r.name, r.leaf0PauseTx, r.spinePauseTx, r.leaf1PauseTx,
                r.senderPauseRx, r.pauseHops, r.capDropped);
    std::fflush(stdout);
    rep.row("scenarios").set("name", r.name).set("finish_ns", r.finish)
        .set("rnpfs", r.rnpfs).set("host_pauses", r.hostPauses)
        .set("pause_tx_leaf0", r.leaf0PauseTx)
        .set("pause_tx_spine", r.spinePauseTx)
        .set("pause_tx_leaf1", r.leaf1PauseTx)
        .set("sender_pause_rx", r.senderPauseRx)
        .set("pause_hops", r.pauseHops).set("cap_dropped", r.capDropped);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json = "BENCH_fabric.json";
    bool smoke = false;
    bench::parseFlagsOrExit(argc, argv, bench::timingFlags(&json, &smoke));
    const unsigned msgs = smoke ? 6 : 16;
    std::size_t msg_bytes = 256 * kKiB;

    std::printf("=== fabric_pfc_storm: rNPF -> pause cascade over %s "
                "===\n",
                kTopo);
    std::printf("  1 sender x %u msgs x %zu B -> cold victim\n", msgs,
                msg_bytes);

    bench::Report rep("fabric_pfc_storm", json);
    rep.params.set("topology", kTopo).set("msgs_per_sender", msgs)
        .set("msg_bytes", msg_bytes);
    Result warm = runStorm("warm", false, msgs, msg_bytes);
    report(rep, warm);
    Result cold = runStorm("cold_odp", true, msgs, msg_bytes);
    report(rep, cold);
    rep.values.set("slowdown", double(cold.finish) / double(warm.finish));

    using bench::Cmp;
    // The warm baseline neither faults nor pauses.
    rep.gate("warm.rnpfs", warm.rnpfs, Cmp::Eq, 0);
    rep.gate("warm.pause_hops", warm.pauseHops, Cmp::Eq, 0);
    // The cold run raises rNPFs, and they assert host rx pause.
    rep.gate("cold_odp.rnpfs", cold.rnpfs, Cmp::Gt, 0);
    rep.gate("cold_odp.host_pauses", cold.hostPauses, Cmp::Gt, 0);
    // The pause storm propagates >= 2 switch hops, to the sender NICs.
    rep.gate("cold_odp.pause_hops", cold.pauseHops, Cmp::Ge, 2);
    rep.gate("cold_odp.sender_pause_rx", cold.senderPauseRx, Cmp::Gt, 0);
    // PFC keeps both runs lossless.
    rep.gate("warm.cap_dropped", warm.capDropped, Cmp::Eq, 0);
    rep.gate("cold_odp.cap_dropped", cold.capDropped, Cmp::Eq, 0);
    // The storm costs time on the fabric.
    rep.gate("cold_odp.finish_ns", cold.finish, Cmp::Gt, warm.finish);
    return rep.finish();
}
