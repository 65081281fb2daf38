/**
 * @file
 * Quickstart: the smallest end-to-end NPF demo.
 *
 * Two hosts talk over a simulated InfiniBand RC connection. Nothing
 * is pinned: the receive buffer is stone cold (never touched, never
 * IOMMU-mapped), so the first inbound message takes a receive
 * network page fault. Watch the NIC suspend the sender with an RNR
 * NACK, resolve the fault through the full Figure-2 flow, and
 * retransmit — all transparent to the application.
 *
 * Build & run:  ./build/examples/quickstart
 *
 * Pass --trace to also write quickstart_trace.json (open it in
 * chrome://tracing or https://ui.perfetto.dev — every NPF shows up as
 * an async flow with trigger/driver/pt_update/resume spans) and
 * quickstart_metrics.json (every counter in the stack).
 */

#include <cstdio>
#include <cstring>
#include <memory>

#include "obs/session.hh"
#include "scenario/ib_world.hh"

using namespace npf;

int
main(int argc, char **argv)
{
    bool trace = argc > 1 && std::strcmp(argv[1], "--trace") == 0;

    // --- the world: an event queue, two hosts, one switch -----------
    sim::EventQueue eq;
    // Observability costs nothing unless asked for: only --trace
    // creates the session (which raises the detail/retain flags and
    // turns on the queue's per-site execution counts for its lifetime).
    std::unique_ptr<obs::Session> session;
    if (trace) {
        obs::SessionOptions obs_opt;
        obs_opt.trace = true;
        obs_opt.traceOut = "quickstart_trace.json";
        obs_opt.metricsOut = "quickstart_metrics.json";
        session = std::make_unique<obs::Session>(eq, obs_opt);
    }
    // Two hosts with 1 GB each on a 56 Gb/s FDR switch, each NIC with
    // NPF support (one NpfController per NIC) and one RC queue pair,
    // connected to each other. Host A sends, host B receives.
    scenario::RcPair rc(eq);
    mem::AddressSpace &snd = rc.asA, &rcv = rc.asB;
    core::NpfController &snd_nic = rc.npfcA, &rcv_nic = rc.npfcB;
    ib::QueuePair &qp_snd = rc.qpA, &qp_rcv = rc.qpB;

    // --- buffers: NOTHING is pinned -----------------------------------
    constexpr std::size_t kMsg = 64 * 1024;
    mem::VirtAddr sbuf = snd.allocRegion(kMsg, "send-buf");
    mem::VirtAddr rbuf = rcv.allocRegion(kMsg, "recv-buf");
    // The application writes its message (CPU faults the pages in).
    snd.touch(sbuf, kMsg, /*write=*/true);
    // The receive buffer stays completely cold.

    qp_rcv.onCompletion([&](const ib::Completion &c) {
        if (c.isRecv) {
            std::printf("[%8.1f us] receive completion: %zu bytes "
                        "(wr_id=%llu)\n",
                        sim::toMicroseconds(c.at), c.bytes,
                        static_cast<unsigned long long>(c.wrId));
        }
    });
    qp_snd.onCompletion([&](const ib::Completion &c) {
        if (!c.isRecv) {
            std::printf("[%8.1f us] send completion (acked end to "
                        "end)\n",
                        sim::toMicroseconds(c.at));
        }
    });

    qp_rcv.postRecv({ib::Opcode::Send, rbuf, kMsg, 0, 1});
    qp_snd.postSend({ib::Opcode::Send, sbuf, kMsg, 0, 1});
    eq.run();

    std::printf("\n--- what happened under the hood ---\n");
    std::printf("sender-side NPFs (local buffer IOMMU-cold): %llu\n",
                static_cast<unsigned long long>(
                    qp_snd.stats().sendNpfs));
    std::printf("receive NPFs at the receiver:               %llu\n",
                static_cast<unsigned long long>(
                    qp_rcv.stats().recvNpfs));
    std::printf("RNR NACKs sent (sender suspended):          %llu\n",
                static_cast<unsigned long long>(
                    qp_rcv.stats().rnrNacksSent));
    std::printf("packets dropped until the NACK landed:      %llu\n",
                static_cast<unsigned long long>(
                    qp_rcv.stats().dataPacketsDropped));
    std::printf("packets retransmitted after the rewind:     %llu\n",
                static_cast<unsigned long long>(
                    qp_snd.stats().retransmitted));
    std::printf("pages the NPF engine mapped on demand:      %llu\n",
                static_cast<unsigned long long>(
                    rcv_nic.stats().pagesMapped +
                    snd_nic.stats().pagesMapped));
    std::printf("pinned pages anywhere:                      %zu\n",
                snd.pinnedPages() + rcv.pinnedPages());

    // Send again: everything is warm now — no faults, no suspension.
    std::uint64_t faults_before =
        rcv_nic.stats().npfs + snd_nic.stats().npfs;
    qp_rcv.postRecv({ib::Opcode::Send, rbuf, kMsg, 0, 2});
    qp_snd.postSend({ib::Opcode::Send, sbuf, kMsg, 0, 2});
    eq.run();
    std::printf("\nsecond message: %llu new faults (demand paging: "
                "pay once)\n",
                static_cast<unsigned long long>(
                    rcv_nic.stats().npfs + snd_nic.stats().npfs -
                    faults_before));

    if (session) {
        session->finish();
        std::printf("\nwrote quickstart_trace.json + "
                    "quickstart_metrics.json\n");
    }
    return 0;
}
