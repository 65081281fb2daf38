/**
 * @file
 * Reproduces Figure 3: the execution breakdown of (a) an NPF and
 * (b) an invalidation, for 4 KB and 4 MB messages.
 *
 * Paper reference points: a minor 4 KB NPF costs ~220 us, ~90% of it
 * firmware; 4 MB grows to ~350 us with the growth in software.
 * Invalidations cost ~23 us (4 KB) to ~65 us (4 MB).
 */

#include "bench/common.hh"
#include "core/npf_controller.hh"

using namespace npf;
using namespace npf::bench;

namespace {

constexpr std::size_t kMiB = 1ull << 20;

struct Avg
{
    double trigger = 0, driver = 0, pt = 0, resume = 0;
    void
    add(const core::NpfBreakdown &bd, int n)
    {
        trigger += sim::toMicroseconds(bd.trigger) / n;
        driver += sim::toMicroseconds(bd.driver) / n;
        pt += sim::toMicroseconds(bd.ptUpdate) / n;
        resume += sim::toMicroseconds(bd.resume) / n;
    }
    double total() const { return trigger + driver + pt + resume; }
};

} // namespace

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    parseFlagsOrExit(argc, argv, obsFlags(obs_args));
    sim::EventQueue eq;
    mem::MemoryManager mm(8ull << 30);
    mem::AddressSpace &as = mm.createAddressSpace("iouser");
    core::NpfController npfc(eq);
    core::ChannelId ch = npfc.attach(as);
    auto obs = openObsSession(obs_args, eq);

    constexpr int kIters = 1000;

    header("Figure 3(a): NPF execution breakdown [usec, averages]");
    row("%-8s %14s %12s %16s %12s %8s", "msg", "trigger-irq[hw]",
        "driver[sw]", "update-hw-PT[sw+hw]", "resume[hw]", "total");
    for (std::size_t bytes : {std::size_t(4096), 4 * kMiB}) {
        Avg avg;
        mem::VirtAddr buf = as.allocRegion(
            std::max<std::size_t>(bytes * kIters, bytes));
        for (int i = 0; i < kIters; ++i) {
            mem::VirtAddr a = buf + std::uint64_t(i) * bytes;
            avg.add(npfc.computeResolve(ch, a, bytes, true), kIters);
        }
        row("%-8s %14.1f %12.1f %16.1f %12.1f %8.1f",
            bytes == 4096 ? "4KB" : "4MB", avg.trigger, avg.driver,
            avg.pt, avg.resume, avg.total());
    }
    row("%s", "paper: 4KB ~220 total (~90 percent hw); 4MB ~350, "
              "growth in sw");

    header("Figure 3(b): invalidation breakdown [usec, averages]");
    row("%-8s %12s %20s %12s %8s", "msg", "checks[sw]",
        "update-hw-PT[sw+hw]", "updates[sw]", "total");
    for (std::size_t bytes : {std::size_t(4096), 4 * kMiB}) {
        double checks = 0, pt = 0, sw = 0;
        mem::VirtAddr buf = as.allocRegion(bytes);
        for (int i = 0; i < 200; ++i) {
            npfc.prefault(ch, buf, bytes, true);
            core::InvalidationBreakdown bd =
                npfc.invalidateRange(ch, buf, bytes);
            checks += sim::toMicroseconds(bd.checks) / 200;
            pt += sim::toMicroseconds(bd.ptUpdate) / 200;
            sw += sim::toMicroseconds(bd.swUpdates) / 200;
        }
        row("%-8s %12.1f %20.1f %12.1f %8.1f",
            bytes == 4096 ? "4KB" : "4MB", checks, pt, sw,
            checks + pt + sw);
    }
    row("%s", "paper: ~23 (4KB) to ~65 (4MB); unmapped pages cost only "
              "the checks");
    return 0;
}
