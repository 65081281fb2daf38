/**
 * @file
 * Registration-discipline shoot-out smoke bench (scripts/check.sh
 * tier 9): the four disciplines of docs/REGISTRATION.md — copy,
 * pin-down-cache, NPF/ODP, NP-RDMA — across the HPC collective
 * (beff), storage (iSER/fio), and KV RPC workloads, with
 * deterministic output suitable for digest pinning.
 *
 * Flags (on top of the common obs flags):
 *   --seed=N       workload seed (client arrivals, fio offsets)
 *   --mode=M       copy | pin | npf | np-rdma | all (default all)
 *   --smoke        shorter windows / fewer reps (tier-9 setting)
 *   --alloc-gate   count heap allocations over the NP-RDMA KV
 *                  measure window; steady state must be 0. Run on
 *                  the plain build only — ASan interposes new.
 *
 * Like stack_bench, this TU overrides global operator new/delete to
 * count allocations; the NP-RDMA map/unmap hot path (driver table,
 * IOTLB, RingDeque in-flight FIFOs) must be allocation-free once
 * pools reach their high-water marks.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

std::uint64_t g_allocs = 0;

} // namespace

void *
operator new(std::size_t sz)
{
    ++g_allocs;
    if (void *p = std::malloc(sz != 0 ? sz : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t sz)
{
    return ::operator new(sz);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#include "bench/reg_common.hh"
#include "hpc/imb.hh"

using namespace npf;
using namespace npf::bench;
using namespace npf::hpc;

namespace {

bool
wantMode(const char *sel, RegMode m)
{
    return std::strcmp(sel, "all") == 0 ||
           std::strcmp(sel, regModeName(m)) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ObsArgs obs_args = parseObsArgs(argc, argv);
    std::uint64_t seed = 1;
    const char *sel = "all";
    bool smoke = false;
    bool alloc_gate = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--seed=", 7) == 0)
            seed = numericFlag<std::uint64_t>(argv[i], argv[i] + 7);
        else if (std::strncmp(argv[i], "--mode=", 7) == 0)
            sel = argv[i] + 7;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--alloc-gate") == 0)
            alloc_gate = true;
    }

    sim::Time warm = (smoke ? 20 : 100) * sim::kMillisecond;
    sim::Time meas = (smoke ? 100 : 400) * sim::kMillisecond;

    header("Registration-discipline shoot-out (docs/REGISTRATION.md)");
    row("seed=%llu windows=%s", (unsigned long long)seed,
        smoke ? "smoke" : "full");

    unsigned iter = 0;
    for (RegMode mode : {RegMode::Copy, RegMode::PinDownCache,
                         RegMode::Npf, RegMode::NpRdma}) {
        if (!wantMode(sel, mode))
            continue;
        const char *name = regModeName(mode);

        // HPC collective: effective bandwidth on a small cluster.
        // (Seed-independent: beff's traffic patterns are fixed.)
        {
            sim::EventQueue eq;
            auto obs = openObsSession(withIter(obs_args, iter++), eq);
            ClusterConfig cfg;
            cfg.ranks = 4;
            BeffResult b = runBeff(eq, cfg, mode, smoke ? 1 : 2);
            row("reg[hpc][%s] beff=%.0f MB/s stddev=%.0f", name,
                b.beffMBps, b.stddevMBps);
        }

        RegRunResult st = regStorageRun(mode, seed, warm, meas);
        row("reg[storage][%s] read=%.1f MB/s ios=%llu npfs=%llu "
            "tlb_inv=%llu tlb_refresh=%llu reg_ops=%llu",
            name, st.mbps, (unsigned long long)st.ops,
            (unsigned long long)st.npfs,
            (unsigned long long)st.tlbInvalidations,
            (unsigned long long)st.tlbRefreshes,
            (unsigned long long)st.regOps);

        RegRunResult kv = regKvRun(mode, seed, warm, meas);
        row("reg[kv][%s] ops=%llu npfs=%llu tlb_inv=%llu "
            "tlb_refresh=%llu reg_ops=%llu",
            name, (unsigned long long)kv.ops,
            (unsigned long long)kv.npfs,
            (unsigned long long)kv.tlbInvalidations,
            (unsigned long long)kv.tlbRefreshes,
            (unsigned long long)kv.regOps);
    }

    if (alloc_gate) {
        // Steady-state allocation gate on the NP-RDMA per-IO path:
        // after warm-up (table built, FIFOs at high-water), the KV
        // map/unmap hot loop must not touch the heap at all.
        std::uint64_t before = 0, after = 0;
        RegRunHooks hooks;
        hooks.onMeasureStart = [&] { before = g_allocs; };
        hooks.onMeasureEnd = [&] { after = g_allocs; };
        RegMode gm = RegMode::NpRdma;
        for (int i = 1; i < argc; ++i)
            if (std::strncmp(argv[i], "--gate-mode=", 12) == 0)
                for (RegMode m : {RegMode::Copy, RegMode::PinDownCache,
                                  RegMode::Npf, RegMode::NpRdma})
                    if (std::strcmp(argv[i] + 12, regModeName(m)) == 0)
                        gm = m;
        regKvRun(gm, seed, warm, meas, 120e3, hooks);
        std::uint64_t steady = after - before;
        std::printf("reg_steady_allocs[%s]=%llu %s\n", regModeName(gm),
                    (unsigned long long)steady,
                    steady == 0 ? "PASS" : "FAIL");
        if (steady != 0)
            return 1;
    }
    return 0;
}
