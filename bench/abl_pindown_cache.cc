/**
 * @file
 * Ablation for §2.2's coarse-grained-pinning continuum: sweep the
 * pin-down cache budget against a working set of DMA buffers. Small
 * caches behave like fine-grained pinning (every use re-registers);
 * big caches behave like static pinning (everything stays pinned).
 * NPF avoids the trade-off entirely.
 */

#include <memory>
#include <vector>

#include "bench/common.hh"
#include "core/pinning.hh"

using namespace npf;
using namespace npf::bench;

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    parseFlagsOrExit(argc, argv, obsFlags(obs_args));
    constexpr std::size_t kMiB = 1ull << 20;
    constexpr unsigned kBuffers = 32;     // 32 x 1 MB working set
    constexpr unsigned kAccesses = 2000;

    header("Ablation: pin-down cache budget vs registration overhead "
           "(32 x 1MB buffer working set, round-robin)");
    row("%14s %10s %12s %14s %14s", "cache[MB]", "miss-rate",
        "evictions", "avg cost[us]", "pinned[MB]");

    for (std::size_t cap_mb : {2, 8, 16, 24, 32, 64, 0}) {
        sim::EventQueue eq;
        auto obs = openObsSession(obs_args, eq);
        mem::MemoryManager mm(1ull << 30);
        auto &as = mm.createAddressSpace("iouser");
        core::NpfController npfc(eq);
        auto ch = npfc.attach(as);
        core::PinDownCache cache(npfc, ch, cap_mb * kMiB);

        std::vector<mem::VirtAddr> bufs;
        for (unsigned i = 0; i < kBuffers; ++i)
            bufs.push_back(as.allocRegion(kMiB));

        sim::Time total = 0;
        for (unsigned a = 0; a < kAccesses; ++a)
            total += cache.beforeDma(bufs[a % kBuffers], kMiB);

        row("%14s %9.1f%% %12llu %14.2f %14zu",
            cap_mb == 0 ? "unlimited" : std::to_string(cap_mb).c_str(),
            100.0 * double(cache.misses()) / kAccesses,
            static_cast<unsigned long long>(cache.evictions()),
            sim::toMicroseconds(total) / kAccesses,
            cache.pinnedBytes() / kMiB);
    }

    // The NPF alternative: no cache, no pinned bytes, warm after the
    // first touch of each buffer.
    {
        sim::EventQueue eq;
        mem::MemoryManager mm(1ull << 30);
        auto &as = mm.createAddressSpace("iouser");
        core::NpfController npfc(eq);
        auto ch = npfc.attach(as);
        std::vector<mem::VirtAddr> bufs;
        for (unsigned i = 0; i < kBuffers; ++i)
            bufs.push_back(as.allocRegion(kMiB));
        sim::Time total = 0;
        for (unsigned a = 0; a < kAccesses; ++a) {
            mem::VirtAddr buf = bufs[a % kBuffers];
            if (!npfc.checkDma(ch, buf, kMiB).ok)
                total += npfc.computeResolve(ch, buf, kMiB, true).total();
        }
        row("%14s %9.1f%% %12d %14.2f %14d", "npf (no cache)",
            100.0 * kBuffers / kAccesses, 0,
            sim::toMicroseconds(total) / kAccesses, 0);
    }
    row("%s", "small caches thrash (fine-grained behavior); big caches "
              "pin the whole working set (static behavior); NPF gets "
              "warm-cache cost with zero pinned memory");
    return 0;
}
