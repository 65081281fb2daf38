/**
 * @file
 * Reproduces Table 6: the effective bandwidth benchmark (beff) on 8
 * nodes. Paper row: pinning 16410+-45, NPF 16440+-10, copying
 * 8020+-20 MB/s — RDMA beats copying about 2x, and NPF delivers the
 * RDMA number without pinning. A fourth row extends the design space
 * with NP-RDMA-style on-demand IOVA mapping (docs/REGISTRATION.md):
 * no pinning on a commodity NIC, paid for in per-IO map/unmap work.
 * Gate lines (bench/report.hh) check the NPF and copying ratios to
 * pinning; exit 1 if one fails.
 */

#include <iterator>

#include "bench/common.hh"
#include "bench/report.hh"
#include "hpc/imb.hh"

using namespace npf;
using namespace npf::bench;
using namespace npf::hpc;
using core::RegMode;

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    parseFlagsOrExit(argc, argv, obsFlags(obs_args));
    ClusterConfig cfg; // 8 ranks, 56 Gb/s
    header("Table 6: effective bandwidth (beff) [MB/s]");
    row("%-10s %12s %10s", "app", "beff", "stddev");
    constexpr RegMode kModes[] = {RegMode::PinDownCache, RegMode::Npf,
                                  RegMode::Copy, RegMode::NpRdma};
    double beff[std::size(kModes)];
    for (unsigned i = 0; i < std::size(kModes); ++i) {
        sim::EventQueue eq;
        auto obs = openObsSession(withIter(obs_args, i), eq);
        BeffResult res = runBeff(eq, cfg, kModes[i], 3);
        beff[i] = res.beffMBps;
        row("%-10s %12.0f %10.0f", core::regModeName(kModes[i]),
            res.beffMBps, res.stddevMBps);
    }
    row("(copy/pin ratio in the paper: 8020/16410 = 0.49)");
    row("%s", "paper: pinning 16410+-45, NPF 16440+-10, copying "
              "8020+-20");

    // The claims (EXPERIMENTS.md): NPF delivers the pinned RDMA
    // number without pinning, and copying loses about half of it.
    Report rep("tab06_beff");
    const double npf = beff[1] / beff[0], copy = beff[2] / beff[0];
    rep.gate("npf_over_pin.low", npf, Cmp::Ge, 0.95);
    rep.gate("npf_over_pin.high", npf, Cmp::Le, 1.05);
    rep.gate("copy_over_pin", copy, Cmp::Le, 0.75);
    return rep.finish();
}
