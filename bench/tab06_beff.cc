/**
 * @file
 * Reproduces Table 6: the effective bandwidth benchmark (beff) on 8
 * nodes. Paper row: pinning 16410+-45, NPF 16440+-10, copying
 * 8020+-20 MB/s — RDMA beats copying about 2x, and NPF delivers the
 * RDMA number without pinning. A fourth row extends the design space
 * with NP-RDMA-style on-demand IOVA mapping (docs/REGISTRATION.md):
 * no pinning on a commodity NIC, paid for in per-IO map/unmap work.
 */

#include "bench/common.hh"
#include "hpc/imb.hh"

using namespace npf;
using namespace npf::bench;
using namespace npf::hpc;

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    parseFlagsOrExit(argc, argv, iterObsFlags(obs_args));
    ClusterConfig cfg; // 8 ranks, 56 Gb/s
    header("Table 6: effective bandwidth (beff) [MB/s]");
    row("%-10s %12s %10s", "app", "beff", "stddev");
    double pin_val = 0;
    unsigned iter = 0;
    for (RegMode mode : {RegMode::PinDownCache, RegMode::Npf,
                         RegMode::Copy, RegMode::NpRdma}) {
        sim::EventQueue eq;
        auto obs = openObsSession(withIter(obs_args, iter++), eq);
        BeffResult res = runBeff(eq, cfg, mode, 3);
        if (mode == RegMode::PinDownCache)
            pin_val = res.beffMBps;
        row("%-10s %12.0f %10.0f", regModeName(mode), res.beffMBps,
            res.stddevMBps);
    }
    row("(copy/pin ratio in the paper: 8020/16410 = 0.49)");
    (void)pin_val;
    row("%s", "paper: pinning 16410+-45, NPF 16440+-10, copying "
              "8020+-20");
    return 0;
}
