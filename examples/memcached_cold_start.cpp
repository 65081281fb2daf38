/**
 * @file
 * The paper's running example as a runnable scenario: a memcached
 * server inside a lightweight VM on a direct Ethernet channel,
 * driven by a memaslap-style client. The receive ring starts cold.
 *
 * Run it twice in one process: once with the backup ring, once with
 * the drop-on-fault strawman, and watch the cold-ring problem (§5)
 * appear and disappear.
 *
 * Build & run:  ./build/examples/memcached_cold_start
 */

#include <cstdio>

#include "bench/common.hh"

using namespace npf;
using namespace npf::app;
using namespace npf::bench;

namespace {

void
runOnce(eth::RxFaultPolicy policy, const char *label)
{
    EthBed bed({.policy = policy, .ringSize = 64});
    HostModel host;
    MemcachedInstance mc(bed, host,
                         {.preloadKeys = 1000,
                          .slap = MemaslapConfig{0.9, 1000, 4, 64}});
    requireConnected(mc);
    Memaslap &slap = *mc.slap;
    slap.start();

    std::printf("\n--- %s ---\n", label);
    std::printf("%6s %12s %12s %12s\n", "t[s]", "KTPS", "rNPFs",
                "drops");
    std::uint64_t last = 0;
    for (int s = 1; s <= 8; ++s) {
        bed.eq.runUntil(bed.eq.now() + sim::kSecond);
        std::uint64_t now_tx = slap.transactions();
        std::printf("%6d %12.1f %12llu %12llu\n", s,
                    double(now_tx - last) / 1000.0,
                    static_cast<unsigned long long>(
                        bed.server->ringStats().rnpfs),
                    static_cast<unsigned long long>(
                        bed.server->ringStats().dropped));
        last = now_tx;
    }
}

} // namespace

int
main()
{
    std::printf("memcached on a direct Ethernet channel, 64-entry "
                "cold receive ring\n");
    runOnce(eth::RxFaultPolicy::BackupRing,
            "backup ring (the paper's design): faults are absorbed");
    runOnce(eth::RxFaultPolicy::Drop,
            "drop on fault (the strawman): TCP nearly deadlocks");
    runOnce(eth::RxFaultPolicy::Pin,
            "pinned baseline: no faults, but no overcommit either");
    return 0;
}
