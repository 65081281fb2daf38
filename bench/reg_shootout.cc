/**
 * @file
 * Registration-discipline shoot-out smoke bench (scripts/check.sh
 * tier 9): the four disciplines of docs/REGISTRATION.md — copy,
 * pin-down-cache, NPF/ODP, NP-RDMA — across the HPC collective
 * (beff), storage (iSER/fio), and KV RPC workloads, with
 * deterministic output suitable for digest pinning.
 *
 * Flags (on top of the obs flags; table in bench/flags.hh):
 *   --seed=N       workload seed (client arrivals, fio offsets)
 *   --mode=M       copy | pin | npf | np-rdma | all (default all)
 *   --smoke        shorter windows / fewer reps (tier-9 setting)
 *   --alloc-gate   gate reg_steady_allocs[<mode>]: heap allocations
 *                  over the KV measure window must be 0. Run on the
 *                  plain build only — ASan interposes new.
 *   --gate-mode=M  the discipline --alloc-gate measures: copy | pin |
 *                  npf | np-rdma (default np-rdma)
 *
 * Like stack_bench, this bench links the counting global operator
 * new (src/scenario/alloc_counter.hh); the NP-RDMA map/unmap hot
 * path (driver table, IOTLB, RingDeque in-flight FIFOs) must be
 * allocation-free once pools reach their high-water marks.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/reg_common.hh"
#include "bench/report.hh"
#include "hpc/imb.hh"
#include "scenario/alloc_counter.hh"

using namespace npf;
using namespace npf::bench;
using namespace npf::hpc;
using core::RegMode;

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    RegArgs a;
    parseFlagsOrExit(argc, argv, regShootoutFlags(a, obs_args));
    const std::uint64_t seed = a.seed;
    const bool smoke = a.smoke;

    sim::Time warm = (smoke ? 20 : 100) * sim::kMillisecond;
    sim::Time meas = (smoke ? 100 : 400) * sim::kMillisecond;

    header("Registration-discipline shoot-out (docs/REGISTRATION.md)");
    row("seed=%llu windows=%s", (unsigned long long)seed,
        smoke ? "smoke" : "full");

    Report rep("reg_shootout");
    unsigned iter = 0;
    const std::vector<RegMode> modes =
        a.mode ? std::vector{*a.mode}
               : std::vector{RegMode::Copy, RegMode::PinDownCache,
                             RegMode::Npf, RegMode::NpRdma};
    for (RegMode mode : modes) {
        const char *name = core::regModeName(mode);

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

    if (a.allocGate) {
        // Steady-state allocation gate on the NP-RDMA per-IO path:
        // after warm-up (table built, FIFOs at high-water), the KV
        // map/unmap hot loop must not touch the heap at all.
        std::uint64_t before = 0, after = 0;
        RegRunHooks hooks;
        hooks.onMeasureStart = [&] { before = scenario::allocCount(); };
        hooks.onMeasureEnd = [&] { after = scenario::allocCount(); };
        const RegMode gm = a.gateMode;
        regKvRun(gm, seed, warm, meas, 120e3, hooks);
        rep.gate(std::string("reg_steady_allocs[") + core::regModeName(gm) +
                     "]",
                 after - before, Cmp::Eq, 0);
    }
    return rep.finish();
}
