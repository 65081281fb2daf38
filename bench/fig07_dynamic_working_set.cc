/**
 * @file
 * Reproduces Figure 7: two memcached instances whose working sets
 * swap (100 MB <-> 900 MB at t=50 s) under a 1 GB aggregate memory
 * budget. With NPFs, physical memory migrates to whichever instance
 * needs it; with pinning, memory is statically split 500/500 MB and
 * the big-working-set instance always suffers.
 *
 * Items are 20 KB (memaslap -X 20k, as in the paper); the metric is
 * hits per second.
 */

#include "bench/common.hh"

using namespace npf;
using namespace npf::app;
using namespace npf::bench;

namespace {

constexpr std::size_t kMiB = 1ull << 20;
constexpr std::size_t kItemBytes = 20 * 1024;
constexpr std::uint64_t kSmallKeys = (100 * kMiB) / (kItemBytes + 64);
constexpr std::uint64_t kBigKeys = (900 * kMiB) / (kItemBytes + 64);

struct Instance
{
    std::unique_ptr<EthBed> bed;
    std::unique_ptr<MemcachedInstance> mc;
    sim::RateSeries hps{sim::kSecond};

    Instance(bool pinned, unsigned idx, HostModel &host,
             mem::MemoryManager &hostMm)
    {
        EthBed::Options o;
        o.policy = pinned ? eth::RxFaultPolicy::Pin
                          : eth::RxFaultPolicy::BackupRing;
        o.ringSize = 256;
        o.rxBufBytes = 9216; // jumbo frames for 20 KB values
        o.mss = 8948;
        // Both instances draw physical pages from the shared host.
        // NPF: one joint 1 GB cgroup — pages migrate on demand.
        // Pinned: a static 500 MB cgroup each (the paper's "no
        // choice but to statically divide" case).
        o.sharedServerMm = &hostMm;
        o.serverCgroup = pinned ? ("vm" + std::to_string(idx)) : "vms";
        o.cgroupLimit = pinned ? 500 * kMiB : 1000 * kMiB;
        bed = std::make_unique<EthBed>(o);
        MemcachedConfig mcfg;
        mcfg.valueBytes = kItemBytes;
        mcfg.baseOpCpu = sim::fromMicroseconds(18); // 20 KB replies
        MemaslapConfig scfg;
        scfg.keys = idx == 0 ? kSmallKeys : kBigKeys;
        scfg.window = 4;
        // The initial working set is populated once the clients have
        // connected.
        mc = std::make_unique<MemcachedInstance>(
            *bed, host,
            MemcachedInstance::Options{
                .kvBytes = pinned ? 460 * kMiB : 950 * kMiB,
                .server = mcfg,
                .preloadKeys = scfg.keys,
                .preloadAfterConnect = true,
                .slap = scfg,
                .slapSeed = 31 + idx});
        requireConnected(*mc);
        mc->slap->recordInto(nullptr, &hps);
        mc->slap->start();
    }
};

} // namespace

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    parseFlagsOrExit(argc, argv, obsFlags(obs_args));
    constexpr int kSwitchAt = 50;
    constexpr int kDuration = 120;

    header("Figure 7: dynamic working sets, hits/sec [KHPS]");
    row("instance A: 100->900 MB at t=%ds; instance B: 900->100 MB",
        kSwitchAt);

    std::vector<std::array<std::vector<double>, 2>> results;
    for (bool pinned : {false, true}) {
        HostModel host;
        mem::MemoryManager hostMm(8ull << 30);
        Instance a(pinned, 0, host, hostMm); // starts small (100 MB)
        Instance b(pinned, 1, host, hostMm); // starts big (900 MB)
        // Two queues; the session samples/traces instance A's.
        auto obs = openObsSession(obs_args, a.bed->eq);

        // The two instances have separate event queues but share the
        // host's physical memory: advance them in fine lockstep so
        // reclaim interleaves realistically.
        auto lockstep = [&](int from_s, int to_s) {
            for (int q = from_s * 4; q < to_s * 4; ++q) {
                sim::Time until = sim::Time(q + 1) * sim::kSecond / 4;
                a.bed->eq.runUntil(until);
                b.bed->eq.runUntil(until);
            }
        };
        lockstep(0, kSwitchAt);
        // The working sets swap.
        a.mc->slap->setKeys(kBigKeys);
        b.mc->slap->setKeys(kSmallKeys);
        lockstep(kSwitchAt, kDuration);

        std::array<std::vector<double>, 2> cols;
        for (int s = 0; s < kDuration; ++s) {
            cols[0].push_back(a.hps.count(std::size_t(s)) / 1000.0);
            cols[1].push_back(b.hps.count(std::size_t(s)) / 1000.0);
        }
        results.push_back(std::move(cols));
    }

    row("%6s | %10s %10s %10s | %10s %10s %10s", "t[s]", "npf:100->900",
        "npf:900->100", "npf:sum", "pin:100->900", "pin:900->100",
        "pin:sum");
    for (int s = 0; s < kDuration; s += 5) {
        auto avg = [&](int cfg, int inst) {
            double v = 0;
            for (int k = s; k < s + 5 && k < kDuration; ++k)
                v += results[cfg][inst][std::size_t(k)];
            return v / 5.0;
        };
        double na = avg(0, 0), nb = avg(0, 1);
        double pa = avg(1, 0), pb = avg(1, 1);
        row("%6d | %12.1f %12.1f %10.1f | %12.1f %12.1f %10.1f", s, na,
            nb, na + nb, pa, pb, pa + pb);
    }
    row("%s", "paper shape: with NPF both instances converge to the "
              "same rate after the switch; with pinning the 900 MB "
              "instance is always starved, so the combined rate is "
              "lower");
    return 0;
}
