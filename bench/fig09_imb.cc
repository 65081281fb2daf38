/**
 * @file
 * Reproduces Figure 9: Intel MPI Benchmarks (sendrecv, bcast,
 * alltoall) in off_cache mode on 8 InfiniBand nodes, comparing
 * copying, a pin-down cache, and NPF registration. The paper labels
 * the copy/pin runtime ratios (sendrecv 1.1-2.1x, bcast 1.1-1.3x,
 * alltoall 1.2-2.2x) and shows NPF tracking the pin-down cache.
 * Gate lines (bench/report.hh) check both claims; exit 1 if one fails.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

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
    const std::vector<std::size_t> sizes = {16 * 1024, 32 * 1024,
                                            64 * 1024, 128 * 1024};
    const std::vector<ImbBenchmark> benches = {ImbBenchmark::Sendrecv,
                                               ImbBenchmark::Bcast,
                                               ImbBenchmark::Alltoall};
    ClusterConfig cfg; // 8 ranks, 56 Gb/s (paper's IB testbed)

    // Per benchmark: the smallest growth of copy/pin from one size to
    // the next, and npf/pin at the largest size.
    std::vector<double> minGrowth, npfAtLargest;
    for (ImbBenchmark bench : benches) {
        unsigned iters = bench == ImbBenchmark::Alltoall ? 800 : 2000;
        header("Figure 9: IMB runtime [s]");
        row("benchmark=%s, %u iterations, off_cache pool depth 8",
            imbName(bench), iters);
        row("%10s %10s %10s %10s %10s %10s", "size[KB]", "copy", "pin",
            "npf", "copy/pin", "npf/pin");
        double growth = INFINITY, prevCopy = 0, npf = 0;
        for (std::size_t size : sizes) {
            double secs[3];
            int i = 0;
            for (RegMode mode : {RegMode::Copy, RegMode::PinDownCache,
                                 RegMode::Npf}) {
                sim::EventQueue eq;
                auto obs = openObsSession(obs_args, eq);
                Cluster cluster(eq, cfg, mode);
                secs[i++] = runImb(cluster, bench, size, iters);
                eq.run(); // drain before teardown
            }
            row("%10zu %10.4f %10.4f %10.4f %9.2fx %9.2fx", size / 1024,
                secs[0], secs[1], secs[2], secs[0] / secs[1],
                secs[2] / secs[1]);
            double copy = secs[0] / secs[1];
            if (size != sizes.front())
                growth = std::min(growth, copy - prevCopy);
            prevCopy = copy;
            npf = secs[2] / secs[1];
        }
        minGrowth.push_back(growth);
        npfAtLargest.push_back(npf);
    }
    row("%s", "");
    row("%s", "paper shape: copy/pin grows with message size toward "
              "~2.1-2.2x (sendrecv/alltoall) and stays small for "
              "bcast; npf/pin ~= 1");

    // The claims (EXPERIMENTS.md): zero copy beats copying more the
    // bigger the message, and NPF tracks the pin-down cache.
    Report rep("fig09_imb");
    for (std::size_t b = 0; b < benches.size(); ++b) {
        const std::string name = imbName(benches[b]);
        rep.gate(name + ".copy_over_pin_growth", minGrowth[b], Cmp::Gt, 0);
        rep.gate(name + ".npf_over_pin_128k", npfAtLargest[b], Cmp::Le,
                 1.10);
    }
    return rep.finish();
}
