/**
 * @file
 * Reproduces Figure 4: the cold-ring problem.
 *  (a) memcached startup throughput over time with a 64-entry
 *      receive ring, for drop / backup-ring / pinned configurations.
 *  (b) time to complete 10,000 memaslap operations versus ring size;
 *      the drop configuration's TCP stack eventually gives up on
 *      large rings ("FAIL").
 */

#include "bench/common.hh"

using namespace npf;
using namespace npf::app;
using namespace npf::bench;

namespace {

struct Workload
{
    EthBed bed;
    HostModel host;
    MemcachedInstance mc;
    bool anyFailed = false;

    // A failed handshake is not fatal here: the drop policy FAILing
    // on large rings is what Figure 4(b) shows, so the run goes on and
    // reports FAIL once the clients stall.
    Workload(eth::RxFaultPolicy policy, std::size_t ring)
        : bed({.policy = policy, .ringSize = ring}),
          mc(bed, host,
             {.preloadKeys = 2000,
              .slap = MemaslapConfig{0.9, 2000, 4, 64}})
    {
        for (RpcChannel &ch : mc.chans)
            ch.client.onFailure([this] { anyFailed = true; });
    }
};

} // namespace

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    parseFlagsOrExit(argc, argv, obsFlags(obs_args));
    // ---- (a) startup throughput vs time, ring = 64 ------------------
    header("Figure 4(a): startup throughput [KTPS] vs time, ring=64");
    constexpr int kSeconds = 45;
    std::vector<std::vector<double>> series;
    for (auto policy :
         {eth::RxFaultPolicy::Drop, eth::RxFaultPolicy::BackupRing,
          eth::RxFaultPolicy::Pin}) {
        Workload w(policy, 64);
        auto obs = openObsSession(obs_args, w.bed.eq);
        sim::RateSeries tps(sim::kSecond);
        w.mc.slap->recordInto(&tps, nullptr);
        w.mc.slap->start();
        w.bed.eq.runUntil(w.bed.eq.now() + kSeconds * sim::kSecond);
        std::vector<double> col;
        for (int s = 0; s < kSeconds; ++s)
            col.push_back(tps.count(std::size_t(s)) / 1000.0);
        series.push_back(std::move(col));
    }
    row("%6s %10s %10s %10s", "t[s]", "drop", "backup", "pin");
    for (int s = 0; s < kSeconds; ++s) {
        row("%6d %10.1f %10.1f %10.1f", s, series[0][s], series[1][s],
            series[2][s]);
    }
    row("%s", "paper shape: pin/backup reach steady state immediately;");
    row("%s", "drop stays ~0 for tens of seconds (TCP backoff deadlock)");

    // ---- (b) time for 10k operations vs ring size --------------------
    header("Figure 4(b): time [s] to complete 10,000 ops vs ring size");
    row("%8s %12s %12s %12s", "ring", "drop", "backup", "pin");
    for (std::size_t ring : {16, 32, 64, 128, 256, 1024, 4096}) {
        double secs[3];
        int i = 0;
        for (auto policy :
             {eth::RxFaultPolicy::Drop, eth::RxFaultPolicy::BackupRing,
              eth::RxFaultPolicy::Pin}) {
            Workload w(policy, ring);
            w.mc.slap->start();
            sim::Time start = w.bed.eq.now();
            bool ok = w.bed.eq.runUntilCondition(
                [&] {
                    return w.mc.slap->transactions() >= 10000 ||
                           w.anyFailed;
                },
                start + 600 * sim::kSecond);
            bool failed = w.anyFailed ||
                          (!ok && w.mc.slap->transactions() < 10000);
            secs[i++] = failed
                            ? -1.0
                            : sim::toSeconds(w.bed.eq.now() - start);
        }
        auto fmt = [](double s) {
            static char buf[4][32];
            static int n = 0;
            char *b = buf[n++ % 4];
            if (s < 0)
                std::snprintf(b, 32, "%s", "FAIL");
            else
                std::snprintf(b, 32, "%.2f", s);
            return b;
        };
        row("%8zu %12s %12s %12s", ring, fmt(secs[0]), fmt(secs[1]),
            fmt(secs[2]));
    }
    row("%s", "paper shape: drop >10s even at tiny rings and FAILs at "
              ">=128; backup's cold cost is tolerable; pin is flat");
    return 0;
}
