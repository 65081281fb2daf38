/**
 * @file
 * Incast over the switched fabric: 7 senders RDMA-write into one
 * receiver host across a star topology, once with PFC alone and once
 * with ECN marking plus DCQCN rate control layered on top.
 *
 * The claim under test is DCQCN's raison d'être: with PFC as the
 * only congestion response, the switch's egress queue toward the
 * victim rides the XOFF threshold and pauses the upstream NIC ports
 * (head-of-line blocking waiting to happen); with ECN + DCQCN the
 * end hosts throttle to the marks, the queue stays bounded near the
 * marking threshold, and PFC never has to fire. Both runs must stay
 * lossless (zero cap drops).
 *
 * Doubles as the fabric's steady-state allocation gate: the second
 * half of every run — queues warm, pools grown, DCQCN timers live —
 * must execute with zero global operator new calls (gates
 * fabric_steady_allocs[<run>]; scripts/check.sh tier 8 requires every
 * gate here). All printed numbers are simulation-derived, so the
 * output digests bit-identically run to run.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/flags.hh"
#include "bench/report.hh"
#include "scenario/alloc_counter.hh"
#include "scenario/ib_world.hh"

using namespace npf;

namespace {

constexpr std::size_t kMiB = 1ull << 20;
constexpr unsigned kHosts = 8; ///< host 0 is the victim

using Sender = scenario::IncastRig::Sender;

/**
 * Periodic probe of the victim downlink's queue depth over the
 * measured (second) half of a run. queueHwmBytes can't tell the two
 * modes apart: it is a lifetime maximum, and both runs share the
 * same synchronized t=0 burst that fills the queue before the first
 * CNP could possibly arrive. What DCQCN actually promises is the
 * *steady-state* depth, so that is what gets sampled.
 */
struct QueueProbe
{
    sim::EventQueue &eq;
    const net::Egress *port;
    const unsigned &done;
    unsigned total;
    std::uint64_t maxDepth = 0;
    std::uint64_t sumDepth = 0;
    std::uint64_t samples = 0;

    void
    start()
    {
        tick();
    }

    void
    tick()
    {
        std::uint64_t depth = port->queueBytesTotal();
        if (depth > maxDepth)
            maxDepth = depth;
        sumDepth += depth;
        ++samples;
        if (done < total)
            eq.scheduleAfter(50'000, [this] { tick(); });
    }
};

struct Result
{
    const char *name = "";
    sim::Time finish = 0;
    std::uint64_t queueHwm = 0;
    std::uint64_t steadyQueueMax = 0;
    std::uint64_t steadyQueueMean = 0;
    std::uint64_t pauseTx = 0;
    std::uint64_t resumeTx = 0;
    std::uint64_t ecnMarked = 0;
    std::uint64_t cnpsSent = 0;
    std::uint64_t cnpsReceived = 0;
    std::uint64_t capDropped = 0;
    std::uint64_t steadyAllocs = 0;
    double goodputGbps = 0;
};

Result
runIncast(const char *name, const std::string &topo, bool dcqcn,
          unsigned msgs, std::size_t msg_bytes)
{
    scenario::IncastRig::Options o;
    for (unsigned host = 1; host < kHosts; ++host)
        o.senders.push_back(host);
    o.qp.dcqcn = dcqcn;
    o.regionBytes = msgs * msg_bytes;
    scenario::IncastRig rig(net::Topology::parse(topo).value(), o);
    sim::EventQueue &eq = rig.eq;
    net::Fabric &fabric = rig.fabric;

    unsigned done = 0;
    for (Sender &s : rig.senders)
        s.qp.onCompletion([&done](const ib::Completion &c) {
            if (!c.isRecv && c.ok)
                ++done;
        });

    for (unsigned m = 0; m < msgs; ++m) {
        for (Sender &s : rig.senders) {
            ib::WorkRequest w;
            w.op = ib::Opcode::RdmaWrite;
            w.local = s.src + m * msg_bytes;
            w.remote = s.dst + m * msg_bytes;
            w.len = msg_bytes;
            w.wrId = m;
            s.qp.postSend(w);
        }
    }

    const unsigned total = msgs * unsigned(rig.senders.size());
    // Warm half: pools grown, rings sized, DCQCN machinery engaged.
    eq.runUntilCondition([&] { return done >= total / 2; },
                         600 * sim::kSecond);
    std::uint64_t marker = scenario::allocCount();
    const net::Egress *victim_down = nullptr;
    for (net::Egress *p : fabric.switchAt(0).egressPorts())
        if (p->dest() == 0)
            victim_down = p;
    QueueProbe probe{eq, victim_down, done, total};
    probe.start();
    eq.runUntilCondition([&] { return done >= total; },
                         600 * sim::kSecond);

    Result r;
    r.name = name;
    r.finish = eq.now();
    r.steadyAllocs = scenario::allocCount() - marker;
    if (done != total) {
        std::fprintf(stderr, "FAIL: %s finished %u/%u messages\n", name,
                     done, total);
        std::exit(1);
    }

    net::Switch &sw = fabric.switchAt(0);
    r.queueHwm = sw.stats().queueHwmBytes;
    r.steadyQueueMax = probe.maxDepth;
    r.steadyQueueMean =
        probe.samples != 0 ? probe.sumDepth / probe.samples : 0;
    r.pauseTx = sw.stats().pauseTx;
    r.resumeTx = sw.stats().resumeTx;
    r.ecnMarked = sw.stats().ecnMarked;
    for (net::Egress *p : sw.egressPorts())
        r.capDropped += p->stats().capDropped;
    for (const Sender &s : rig.senders) {
        r.cnpsSent += s.vqp.stats().cnpsSent;
        r.cnpsReceived += s.qp.stats().cnpsReceived;
    }
    r.goodputGbps = double(total) * double(msg_bytes) * 8.0 /
                    double(r.finish); // ns -> Gb/s
    return r;
}

void
report(const Result &r)
{
    std::printf("  %-10s finish=%" PRIu64 " ns  goodput=%.3f Gb/s  "
                "queue_hwm=%" PRIu64 " B  steady_queue max=%" PRIu64
                " mean=%" PRIu64 " B\n",
                r.name, r.finish, r.goodputGbps, r.queueHwm,
                r.steadyQueueMax, r.steadyQueueMean);
    std::printf("  %-10s pause_tx=%" PRIu64 " resume_tx=%" PRIu64
                " ecn_marked=%" PRIu64 " cnps=%" PRIu64 "/%" PRIu64
                " cap_dropped=%" PRIu64 "\n",
                r.name, r.pauseTx, r.resumeTx, r.ecnMarked, r.cnpsSent,
                r.cnpsReceived, r.capDropped);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bench::parseFlagsOrExit(argc, argv, {bench::toggle("--smoke", &smoke)});
    const unsigned msgs = smoke ? 4 : 16;
    std::size_t msg_bytes = kMiB;

    // 8 Gb/s links (1 byte/ns), generous lossless headroom: the cap
    // never binds, so any drop is a PFC/ECN failure, not tuning.
    const std::string base = "star:hosts=8,bw=8g,prop=500,overhead=0,"
                             "fwd=100,queue=4m,xoff=96k,xon=48k";

    std::printf("=== fabric_incast: 7 -> 1 over %s ===\n", base.c_str());
    std::printf("  %u msgs x %zu B per sender\n", msgs, msg_bytes);

    Result pfc = runIncast("pfc_only", base, false, msgs, msg_bytes);
    report(pfc);
    Result dcq =
        runIncast("ecn_dcqcn", base + ",ecn=32k", true, msgs, msg_bytes);
    report(dcq);

    bench::Report rep("fabric_incast");
    using bench::Cmp;
    rep.gate("fabric_steady_allocs[pfc_only]", pfc.steadyAllocs, Cmp::Eq, 0);
    rep.gate("fabric_steady_allocs[ecn_dcqcn]", dcq.steadyAllocs, Cmp::Eq,
             0);
    // PFC alone hits XOFF and pauses; both runs stay lossless.
    rep.gate("pfc_only.pause_tx", pfc.pauseTx, Cmp::Gt, 0);
    rep.gate("pfc_only.cap_dropped", pfc.capDropped, Cmp::Eq, 0);
    rep.gate("ecn_dcqcn.cap_dropped", dcq.capDropped, Cmp::Eq, 0);
    // ECN marks CE, and CNPs flow both ways.
    rep.gate("ecn_dcqcn.ecn_marked", dcq.ecnMarked, Cmp::Gt, 0);
    rep.gate("ecn_dcqcn.cnps", std::min(dcq.cnpsSent, dcq.cnpsReceived),
             Cmp::Gt, 0);
    // Mean, not max: DCQCN's rate recovery (fast recovery + additive
    // increase) deliberately probes back toward line rate, so
    // individual oscillation peaks still brush XOFF; the promise is
    // that the queue *lives* near the marking threshold (below half of
    // PFC-only's) instead of riding the pause threshold.
    rep.gate("ecn_dcqcn.steady_queue_mean", dcq.steadyQueueMean, Cmp::Lt,
             pfc.steadyQueueMean / 2.0);
    rep.gate("ecn_dcqcn.pause_tx", dcq.pauseTx, Cmp::Lt, pfc.pauseTx);
    return rep.finish();
}
