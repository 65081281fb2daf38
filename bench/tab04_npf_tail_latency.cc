/**
 * @file
 * Reproduces Table 4: tail latency of (minor) NPFs for 4 KB and 4 MB
 * messages. Paper row: 4KB 215/250/261/464 us; 4MB 352/431/440/687.
 */

#include "bench/common.hh"
#include "core/npf_controller.hh"
#include "sim/histogram.hh"

using namespace npf;
using namespace npf::bench;

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    parseFlagsOrExit(argc, argv, obsFlags(obs_args));
    sim::EventQueue eq;
    mem::MemoryManager mm(24ull << 30);
    mem::AddressSpace &as = mm.createAddressSpace("iouser");
    core::NpfController npfc(eq);
    core::ChannelId ch = npfc.attach(as);
    auto obs = openObsSession(obs_args, eq);

    constexpr int kSamples = 10000;
    constexpr std::size_t kMiB = 1ull << 20;

    header("Table 4: tail latency of NPFs [usec]");
    row("%-14s %8s %8s %8s %8s", "message size", "50%", "95%", "99%",
        "max");
    for (std::size_t bytes : {std::size_t(4096), 4 * kMiB}) {
        sim::Histogram h;
        for (int i = 0; i < kSamples; ++i) {
            // Fresh pages each sample so every resolve really faults
            // (frame allocation included, as in the paper's runs).
            mem::VirtAddr a = as.allocRegion(bytes);
            core::NpfBreakdown bd = npfc.computeResolve(ch, a, bytes,
                                                        true);
            h.record(sim::toMicroseconds(bd.total()));
            npfc.invalidateRange(ch, a, bytes);
            as.freeRegion(a);
        }
        row("%-14s %8.0f %8.0f %8.0f %8.0f",
            bytes == 4096 ? "4KB" : "4MB", h.percentile(50),
            h.percentile(95), h.percentile(99), h.max());
    }
    row("%s", "paper: 4KB 215/250/261/464;  4MB 352/431/440/687");
    return 0;
}
