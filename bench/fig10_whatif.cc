/**
 * @file
 * Reproduces Figure 10: the §6.4 what-if analysis. A stream
 * benchmark (64 KB messages) runs with synthetically injected rNPFs
 * at a per-packet frequency.
 *
 *  - Ethernet (12 Gb/s prototype): backup ring vs dropping, minor vs
 *    major faults. Dropping collapses (TCP treats the loss as
 *    congestion, and the fault class does not matter because the
 *    retransmission timer dwarfs even a major fault); the backup
 *    ring degrades gracefully and only with fault cost.
 *  - InfiniBand (56 Gb/s): RNR-NACK-based recovery as a fraction of
 *    the optimum.
 *
 * A third section extends the what-if beyond the paper: if the NIC
 * had no NPF support at all, which registration discipline would you
 * pick? Four-way shoot-out (copy / pin-down-cache / ODP-NPF /
 * NP-RDMA-style per-IO mapping — docs/REGISTRATION.md) across the
 * HPC collective, storage, and KV RPC workloads.
 */

#include <cmath>

#include "bench/common.hh"
#include "bench/reg_common.hh"
#include "hpc/imb.hh"
#include "ib/queue_pair.hh"
#include "net/fabric.hh"

using namespace npf;
using namespace npf::bench;

namespace {

constexpr std::size_t kMsg = 64 * 1024;

/** One testbed per (policy, freq, class) point; index the obs output
 *  files per point so a swept --trace does not clobber itself. */
unsigned g_iter = 0;

/** TCP stream throughput in Gb/s at one injection setting. */
double
ethStream(eth::RxFaultPolicy policy, double prob, bool major,
          const ObsArgs &obs_args)
{
    EthBed::Options o;
    o.policy = policy;
    o.ringSize = 256;
    o.prefaultRxBuffers = true; // "pre-fault the ring at startup"
    o.syntheticRnpfProb = prob;
    o.syntheticMajor = major;
    // Major faults hit an HDD-class swap device here (the paper's
    // testbed swapped to disk).
    o.serverSwap.seek = sim::kMillisecond;
    o.serverSwap.bandwidthBytesPerSec = 150e6;
    EthBed bed(o);
    auto obs = openObsSession(withIter(obs_args, g_iter++), bed.eq);
    if (!bed.connect(1))
        return 0.0;
    auto &cli = bed.client->connection(1);
    auto &srv = bed.server->connection(1);
    tcp::MessageStream stream(cli, srv);
    std::uint64_t done_msgs = 0;
    stream.onMessage([&](std::uint64_t, std::size_t) {
        ++done_msgs;
        stream.sendMessage(kMsg);
    });
    for (int i = 0; i < 8; ++i)
        stream.sendMessage(kMsg);

    bed.eq.runUntil(bed.eq.now() + 200 * sim::kMillisecond); // warm
    std::uint64_t at_start = done_msgs;
    sim::Time start = bed.eq.now();
    bed.eq.runUntil(start + 600 * sim::kMillisecond);
    double bytes = double(done_msgs - at_start) * kMsg;
    return bytes * 8.0 / sim::toSeconds(bed.eq.now() - start) / 1e9;
}

/** ib_send_bw-style stream; returns Gb/s. */
double
ibStream(double prob, bool major, const ObsArgs &obs_args)
{
    sim::EventQueue eq;
    auto obs = openObsSession(withIter(obs_args, g_iter++), eq);
    net::Fabric fabric(eq, 2,
                       net::FabricConfig{net::LinkConfig{56e9, 300, 32},
                                         200});
    mem::MemoryManager mmA(1ull << 30), mmB(1ull << 30);
    auto &asA = mmA.createAddressSpace("snd");
    auto &asB = mmB.createAddressSpace("rcv");
    core::NpfController npfcA(eq), npfcB(eq);
    auto chA = npfcA.attach(asA);
    auto chB = npfcB.attach(asB);
    ib::QpConfig qcfg;
    qcfg.syntheticRnpfProb = prob;
    qcfg.syntheticMajor = major;
    ib::QueuePair qpA(eq, fabric, 0, npfcA, chA, qcfg, 1);
    ib::QueuePair qpB(eq, fabric, 1, npfcB, chB, qcfg, 2);
    qpA.connect(qpB);
    qpB.connect(qpA);

    mem::VirtAddr sbuf = asA.allocRegion(kMsg);
    mem::VirtAddr rbuf = asB.allocRegion(kMsg);
    npfcA.prefault(chA, sbuf, kMsg, true);
    npfcB.prefault(chB, rbuf, kMsg, true);

    std::uint64_t delivered = 0;
    qpB.onCompletion([&](const ib::Completion &c) {
        if (c.isRecv) {
            ++delivered;
            qpB.postRecv({ib::Opcode::Send, rbuf, kMsg, 0, 0});
        }
    });
    bool refill = true;
    qpA.onCompletion([&](const ib::Completion &c) {
        if (!c.isRecv && refill)
            qpA.postSend({ib::Opcode::Send, sbuf, kMsg, 0, 0});
    });
    for (int i = 0; i < 32; ++i)
        qpB.postRecv({ib::Opcode::Send, rbuf, kMsg, 0, 0});
    for (int i = 0; i < 16; ++i)
        qpA.postSend({ib::Opcode::Send, sbuf, kMsg, 0, 0});

    eq.runUntil(eq.now() + 100 * sim::kMillisecond); // warm
    std::uint64_t at_start = delivered;
    sim::Time start = eq.now();
    eq.runUntil(start + 400 * sim::kMillisecond);
    refill = false;
    double bytes = double(delivered - at_start) * kMsg;
    return bytes * 8.0 / sim::toSeconds(400 * sim::kMillisecond) / 1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    parseFlagsOrExit(argc, argv, obsFlags(obs_args));
    header("Figure 10 (left): Ethernet stream throughput [Gb/s] vs "
           "synthetic rNPF frequency (per packet)");
    row("%10s %12s %12s %12s %12s", "freq", "minor-brng", "major-brng",
        "minor-drop", "major-drop");
    for (int e : {10, 15, 20, 25, 30}) {
        double p = std::pow(2.0, -e);
        double mb = ethStream(eth::RxFaultPolicy::BackupRing, p, false,
                              obs_args);
        double jb = ethStream(eth::RxFaultPolicy::BackupRing, p, true,
                              obs_args);
        double md = ethStream(eth::RxFaultPolicy::Drop, p, false,
                              obs_args);
        double jd = ethStream(eth::RxFaultPolicy::Drop, p, true,
                              obs_args);
        row("%10s %12.2f %12.2f %12.2f %12.2f",
            ("2^-" + std::to_string(e)).c_str(), mb, jb, md, jd);
    }
    row("%s", "paper shape: backup ring stays near line rate except "
              "at the highest frequencies (major dips first); drop "
              "collapses at high frequency and the fault class does "
              "not matter");

    header("Figure 10 (right): InfiniBand stream [Gb/s and % of "
           "optimum], minor faults, RNR NACK recovery");
    double best = ibStream(0.0, false, obs_args);
    row("%10s %10s %12s", "freq", "Gb/s", "% of optimum");
    row("%10s %10.1f %11.0f%%", "0", best, 100.0);
    for (int e : {10, 12, 14, 16, 18, 20}) {
        double p = std::pow(2.0, -e);
        double v = ibStream(p, false, obs_args);
        row("%10s %10.1f %11.0f%%", ("2^-" + std::to_string(e)).c_str(),
            v, 100.0 * v / best);
    }
    row("%s", "paper shape: immediate RNR notification recovers much "
              "better than dropping, approaching 100% as the "
              "frequency falls");

    header("What-if extension: registration discipline shoot-out "
           "(beyond the paper; docs/REGISTRATION.md)");
    row("%10s %14s %16s %12s", "discipline", "hpc-beff[MB/s]",
        "storage[MB/s]", "kv[ops]");
    sim::Time warm = 100 * sim::kMillisecond;
    sim::Time meas = 400 * sim::kMillisecond;
    for (core::RegMode mode :
         {core::RegMode::Copy, core::RegMode::PinDownCache,
          core::RegMode::Npf, core::RegMode::NpRdma}) {
        double beff;
        {
            sim::EventQueue eq;
            auto obs = openObsSession(withIter(obs_args, g_iter++), eq);
            hpc::ClusterConfig cfg;
            cfg.ranks = 4;
            beff = hpc::runBeff(eq, cfg, mode, 2).beffMBps;
        }
        RegRunResult st = regStorageRun(mode, 1, warm, meas);
        RegRunResult kv = regKvRun(mode, 1, warm, meas);
        row("%10s %14.0f %16.1f %12llu", core::regModeName(mode), beff,
            st.mbps, (unsigned long long)kv.ops);
    }
    row("%s", "shape: npf wins everywhere it has hardware support; "
              "np-rdma trades throughput for commodity NICs (per-IO "
              "map/unmap + IOTLB churn); pin pays cold-start "
              "registration; copy pays per-byte");
    return 0;
}
