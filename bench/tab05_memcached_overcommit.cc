/**
 * @file
 * Reproduces Table 5: aggregated throughput of 1-4 memcached VMs on
 * an 8 GB host. Each VM believes it has 3 GB; its working set is
 * under 2 GB. With NPFs, physical memory is allocated on demand and
 * four VMs fit (4 x <2 GB < 8 GB); with pinning, the whole 3 GB per
 * VM must be reserved up front, so at most two VMs can run.
 *
 * The memory feasibility constraint is what the experiment is about
 * — the working sets themselves fit either way, so throughput is set
 * by host contention (the calibrated HostModel), exactly as in the
 * paper where NPF and pinning tie at 1-2 instances.
 *
 * Paper row: NPF 186/311/407/484 KTPS; pinning 185/310/N/A/N/A.
 */

#include "bench/common.hh"

using namespace npf;
using namespace npf::app;
using namespace npf::bench;

namespace {

constexpr std::size_t kGiB = 1ull << 30;
constexpr std::size_t kMiB = 1ull << 20;

struct Vm
{
    std::unique_ptr<EthBed> bed;
    std::unique_ptr<MemcachedInstance> mc;
};

/** @return aggregated KTPS, or -1 when the configuration cannot run. */
double
runInstances(unsigned n, bool pinned, const ObsArgs &obs_args,
             sim::Time warm, sim::Time measure)
{
    constexpr std::size_t kHostBytes = 8 * kGiB;
    constexpr std::size_t kVmBytes = 3 * kGiB;

    if (pinned && n * kVmBytes > kHostBytes)
        return -1.0; // static pinning cannot fit: Table 5's N/A

    HostModel host;
    std::vector<std::unique_ptr<Vm>> vms;
    std::unique_ptr<obs::Session> obs; // tracks VM 0's queue
    for (unsigned i = 0; i < n; ++i) {
        auto vm = std::make_unique<Vm>();
        EthBed::Options o;
        o.policy = pinned ? eth::RxFaultPolicy::Pin
                          : eth::RxFaultPolicy::BackupRing;
        o.ringSize = 256;
        // NPF: the VM's memory comes from the shared 8 GB host pool,
        // allocated on demand. Pinned: its full 3 GB is reserved.
        o.serverMemBytes = pinned ? kVmBytes : kHostBytes / n;
        vm->bed = std::make_unique<EthBed>(o);
        if (i == 0)
            obs = openObsSession(obs_args, vm->bed->eq);

        // Working set < 2 GB: 1.7 M keys of ~1.1 KB.
        constexpr std::uint64_t kKeys = 1700000;
        vm->mc = std::make_unique<MemcachedInstance>(
            *vm->bed, host,
            MemcachedInstance::Options{
                .kvBytes = 2 * kGiB + 512 * kMiB,
                .preloadKeys = kKeys,
                .slap = MemaslapConfig{0.9, kKeys, 4, 64},
                .slapSeed = 100 + i});
        requireConnected(*vm->mc);
        vm->mc->slap->start();
        vms.push_back(std::move(vm));
    }

    for (auto &vm : vms)
        vm->bed->eq.runUntil(vm->bed->eq.now() + warm);
    for (auto &vm : vms)
        vm->mc->slap->resetCounters();
    for (auto &vm : vms)
        vm->bed->eq.runUntil(vm->bed->eq.now() + measure);

    double total = 0;
    for (auto &vm : vms)
        total += double(vm->mc->slap->transactions()) / 1000.0 *
                 (double(sim::kSecond) / double(measure));
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    // Warm half a second, then measure one second.
    sim::Time warm = sim::kSecond / 2, measure = sim::kSecond;
    parseFlagsOrExit(argc, argv,
                     obsFlags(obs_args).add(windowFlags(&warm, &measure)));
    header("Table 5: aggregated memcached throughput [KTPS]");
    row("%-22s %8s %8s %8s %8s", "memcached instances", "1", "2", "3",
        "4");
    for (bool pinned : {false, true}) {
        double v[4];
        for (unsigned n = 1; n <= 4; ++n)
            v[n - 1] = runInstances(n, pinned, obs_args, warm, measure);
        auto fmt = [](double x) {
            static char b[8][16];
            static int i = 0;
            char *p = b[i++ % 8];
            if (x < 0)
                std::snprintf(p, 16, "%s", "N/A");
            else
                std::snprintf(p, 16, "%.0f", x);
            return p;
        };
        row("%-22s %8s %8s %8s %8s", pinned ? "pinning" : "NPF",
            fmt(v[0]), fmt(v[1]), fmt(v[2]), fmt(v[3]));
    }
    row("%s", "paper: NPF 186/311/407/484; pinning 185/310/N/A/N/A");
    return 0;
}
