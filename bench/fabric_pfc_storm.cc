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
 * event. The run asserts the storm reached >= 2 switch hops and that
 * losslessness held (zero cap drops), and reports the slowdown.
 *
 * Emits BENCH_fabric.json (--json=FILE overrides). All numbers are
 * simulation-derived, so stdout digests bit-identically.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/flags.hh"
#include "core/npf_controller.hh"
#include "ib/queue_pair.hh"
#include "mem/memory_manager.hh"
#include "net/fabric.hh"

using namespace npf;

namespace {

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1ull << 20;

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
    sim::EventQueue eq;
    net::Fabric fabric(eq, 4, net::FabricConfig{}, kTopo);

    ib::QpConfig qcfg;
    qcfg.pauseOnRnpf = true;

    mem::MemoryManager mm0(2048 * kMiB);
    mem::AddressSpace &as0 = mm0.createAddressSpace("victim");
    core::NpfController npfc0(eq);

    struct Sender
    {
        std::unique_ptr<mem::MemoryManager> mm;
        mem::AddressSpace *as = nullptr;
        std::unique_ptr<core::NpfController> npfc;
        core::ChannelId ch{};
        std::unique_ptr<ib::QueuePair> qp;
        core::ChannelId vch{};
        std::unique_ptr<ib::QueuePair> vqp;
        mem::VirtAddr src = 0, dst = 0;
    };

    std::vector<Sender> senders(1);
    const std::size_t region = msgs * msg_bytes;
    unsigned done = 0;

    for (unsigned i = 0; i < senders.size(); ++i) {
        Sender &s = senders[i];
        unsigned host = i + 2; // h2, h3 hang off leaf1
        s.mm = std::make_unique<mem::MemoryManager>(2048 * kMiB);
        s.as = &s.mm->createAddressSpace("sender");
        s.npfc = std::make_unique<core::NpfController>(eq);
        s.ch = s.npfc->attach(*s.as);
        s.vch = npfc0.attach(as0);
        s.qp = std::make_unique<ib::QueuePair>(eq, fabric, host,
                                               *s.npfc, s.ch, qcfg,
                                               100 + host);
        s.vqp = std::make_unique<ib::QueuePair>(eq, fabric, 0, npfc0,
                                                s.vch, qcfg, 200 + host);
        s.qp->connect(*s.vqp);
        s.vqp->connect(*s.qp);

        s.src = s.as->allocRegion(region);
        s.dst = as0.allocRegion(region);
        s.npfc->prefault(s.ch, s.src, region, true);
        if (cold) {
            // CPU-present, IOMMU-cold: the state every freshly
            // touched application buffer is in (docs: Fig. 3 minor
            // NPF path).
            as0.touch(s.dst, region, /*write=*/true);
        } else {
            npfc0.prefault(s.vch, s.dst, region, true);
        }

        s.qp->onCompletion([&done](const ib::Completion &c) {
            if (!c.isRecv && c.ok)
                ++done;
        });
    }

    for (unsigned m = 0; m < msgs; ++m) {
        for (Sender &s : senders) {
            ib::WorkRequest w;
            w.op = ib::Opcode::RdmaWrite;
            w.local = s.src + m * msg_bytes;
            w.remote = s.dst + m * msg_bytes;
            w.len = msg_bytes;
            w.wrId = m;
            s.qp->postSend(w);
        }
    }

    const unsigned total = msgs * unsigned(senders.size());
    eq.runUntilCondition([&] { return done >= total; },
                         600 * sim::kSecond);

    Result r;
    r.name = name;
    r.finish = eq.now();
    if (done != total) {
        std::fprintf(stderr, "FAIL: %s finished %u/%u messages\n", name,
                     done, total);
        std::exit(1);
    }

    r.rnpfs = npfc0.stats().npfs;
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

void
report(const Result &r)
{
    std::printf("  %-8s finish=%llu ns  rnpfs=%llu host_pauses=%llu\n",
                r.name, static_cast<unsigned long long>(r.finish),
                static_cast<unsigned long long>(r.rnpfs),
                static_cast<unsigned long long>(r.hostPauses));
    std::printf("  %-8s pause_tx leaf0=%llu spine=%llu leaf1=%llu  "
                "sender_pause_rx=%llu  hops=%u  cap_dropped=%llu\n",
                r.name,
                static_cast<unsigned long long>(r.leaf0PauseTx),
                static_cast<unsigned long long>(r.spinePauseTx),
                static_cast<unsigned long long>(r.leaf1PauseTx),
                static_cast<unsigned long long>(r.senderPauseRx),
                r.pauseHops,
                static_cast<unsigned long long>(r.capDropped));
    std::fflush(stdout);
}

void
jsonScenario(std::FILE *js, const Result &r, bool last)
{
    std::fprintf(
        js,
        "    {\"name\": \"%s\", \"finish_ns\": %llu, \"rnpfs\": %llu,"
        " \"host_pauses\": %llu, \"pause_tx\": {\"leaf0\": %llu,"
        " \"spine\": %llu, \"leaf1\": %llu}, \"sender_pause_rx\": %llu,"
        " \"pause_hops\": %u, \"cap_dropped\": %llu}%s\n",
        r.name, static_cast<unsigned long long>(r.finish),
        static_cast<unsigned long long>(r.rnpfs),
        static_cast<unsigned long long>(r.hostPauses),
        static_cast<unsigned long long>(r.leaf0PauseTx),
        static_cast<unsigned long long>(r.spinePauseTx),
        static_cast<unsigned long long>(r.leaf1PauseTx),
        static_cast<unsigned long long>(r.senderPauseRx), r.pauseHops,
        static_cast<unsigned long long>(r.capDropped), last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json = "BENCH_fabric.json";
    bool smoke = false;
    bench::parseFlagsOrExit(argc, argv, bench::timingFlags(&json, &smoke));
    const char *json_path = json.c_str();
    const unsigned msgs = smoke ? 6 : 16;
    std::size_t msg_bytes = 256 * kKiB;

    std::printf("=== fabric_pfc_storm: rNPF -> pause cascade over %s "
                "===\n",
                kTopo);
    std::printf("  1 sender x %u msgs x %zu B -> cold victim\n", msgs,
                msg_bytes);

    Result warm = runStorm("warm", false, msgs, msg_bytes);
    report(warm);
    Result cold = runStorm("cold_odp", true, msgs, msg_bytes);
    report(cold);

    bool ok = true;
    auto expect = [&ok](bool cond, const char *what) {
        if (!cond) {
            std::printf("FAIL: %s\n", what);
            ok = false;
        }
    };
    expect(warm.rnpfs == 0, "warm baseline should not fault");
    expect(warm.pauseHops == 0, "warm baseline should never pause");
    expect(cold.rnpfs > 0, "cold run should raise rNPFs");
    expect(cold.hostPauses > 0, "rNPFs should assert host rx pause");
    expect(cold.pauseHops >= 2,
           "the pause storm should propagate >= 2 switch hops");
    expect(cold.senderPauseRx > 0,
           "the storm should reach the sender NICs");
    expect(warm.capDropped == 0 && cold.capDropped == 0,
           "PFC should keep both runs lossless");
    expect(cold.finish > warm.finish,
           "the storm should cost wall-clock time on the fabric");

    if (std::FILE *js = std::fopen(json_path, "w")) {
        std::fprintf(js, "{\n  \"bench\": \"fabric_pfc_storm\",\n");
        std::fprintf(js, "  \"topology\": \"%s\",\n", kTopo);
        std::fprintf(js, "  \"msgs_per_sender\": %u,\n", msgs);
        std::fprintf(js, "  \"msg_bytes\": %zu,\n", msg_bytes);
        std::fprintf(js, "  \"scenarios\": [\n");
        jsonScenario(js, warm, false);
        jsonScenario(js, cold, true);
        std::fprintf(js, "  ],\n");
        std::fprintf(js, "  \"slowdown\": %.4f,\n",
                     double(cold.finish) / double(warm.finish));
        std::fprintf(js, "  \"coupling_ok\": %s\n}\n",
                     ok ? "true" : "false");
        std::fclose(js);
        // Basename only: stdout is digest-pinned and must not vary
        // with the output directory.
        const char *base = std::strrchr(json_path, '/');
        std::printf("  wrote %s\n", base != nullptr ? base + 1 : json_path);
    } else {
        std::perror(json_path);
        return 1;
    }

    std::printf("fabric_pfc_storm: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
