/**
 * @file
 * Shared harnesses for the registration-discipline shoot-out
 * (docs/REGISTRATION.md): the §6.1 storage workload and the KV RPC
 * workload, each runnable under any core::RegMode. Used by
 * fig10_whatif (the what-if extension section) and reg_shootout
 * (the tier-9 smoke + alloc gate). The target and the server hold
 * the core::Registration; what each discipline means per workload:
 *
 *   copy     storage: the classic pinned tgt (its comm-pool
 *            architecture already copies via pinned chunks);
 *            KV: values copied into a pinned scratch buffer.
 *   pin      per-IO beforeDma through core::PinDownCache.
 *   npf      nothing registered; NPFs resolve at DMA time.
 *   np-rdma  per-IO map/unmap through core::NpRdmaMapping.
 */

#ifndef NPF_BENCH_REG_COMMON_HH
#define NPF_BENCH_REG_COMMON_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "app/storage.hh"
#include "bench/common.hh"
#include "core/registration.hh"
#include "scenario/ib_world.hh"

namespace npf::bench {

/** What one workload run produced under one discipline. */
struct RegRunResult
{
    double mbps = 0.0;      ///< storage: read bandwidth
    std::uint64_t ops = 0;  ///< kv: completed requests
    std::uint64_t npfs = 0; ///< server-side NIC page faults
    std::uint64_t tlbInvalidations = 0;
    std::uint64_t tlbRefreshes = 0;
    /// Discipline work: np-rdma maps, or pin-down-cache misses.
    std::uint64_t regOps = 0;
};

inline void
fillRegStats(RegRunResult &r, core::NpfController &npfc,
             core::ChannelId ch, const core::Registration &reg)
{
    r.npfs = npfc.stats().npfs;
    const auto &tlb = npfc.iommu(ch).tlb().stats();
    r.tlbInvalidations = tlb.invalidations;
    r.tlbRefreshes = tlb.refreshes;
    r.regOps = reg.regOps();
}

/**
 * The §6.1 storage workload under one discipline: iSER target + one
 * fio initiator (random 64 KB reads, queue depth 8) over 56 Gb/s IB.
 */
inline RegRunResult
regStorageRun(core::RegMode mode, std::uint64_t seed, sim::Time warm,
              sim::Time meas)
{
    sim::EventQueue eq;
    // A is the target, B the fio initiator.
    scenario::RcPair rc(eq, {.memA = 2ull << 30});

    app::StorageConfig scfg;
    scfg.lunBytes = 256ull << 20; // bench-sized LUN
    app::StorageTarget tgt(eq, rc.asA, scfg,
                           core::Registration(mode, rc.npfcA, rc.chA));
    if (!tgt.ok())
        return {};
    auto queue = std::make_shared<std::deque<app::IoRequest>>();
    tgt.addSession(rc.qpA, queue);
    app::FioClient fio(eq, rc.qpB, rc.asB, queue, 64 * 1024,
                       /*queue_depth=*/8, scfg.lunBytes, 0x5eed + seed);
    fio.start();

    eq.runUntil(eq.now() + warm);
    fio.resetCounters();
    sim::Time start = eq.now();
    eq.runUntil(start + meas);

    RegRunResult r;
    r.mbps = double(fio.bytesRead()) / sim::toSeconds(meas) / 1e6;
    r.ops = fio.completed();
    fillRegStats(r, rc.npfcA, rc.chA, tgt.registration());
    return r; // teardown mid-flight, like fig08's bed
}

/** Measure-window markers (the alloc gate brackets with these). */
struct RegRunHooks
{
    std::function<void()> onMeasureStart;
    std::function<void()> onMeasureEnd;
};

/**
 * Open-loop KV RPC over IB RC under one discipline: Poisson GETs
 * against a zero-copy KvRcServer whose GET responses DMA the item
 * memory itself. Copy mode short-circuits the zero-copy path: values
 * are copied into the pinned scratch region instead.
 */
inline RegRunResult
regKvRun(core::RegMode mode, std::uint64_t seed, sim::Time warm,
         sim::Time meas, double rate_per_sec = 120e3,
         const RegRunHooks &hooks = {})
{
    load::PoolConfig pc;
    pc.clients = 256;
    pc.seed = seed;
    pc.workload.arrival.kind = load::ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = rate_per_sec;
    pc.workload.keys.kind = load::KeySpec::Kind::Uniform;
    pc.workload.keys.keys = 2000;
    pc.workload.getRatio = 0.9;

    sim::EventQueue eq;
    scenario::IbBed bed(eq);
    scenario::KvWorld w(bed, pc, load::RecorderConfig{warm, meas},
                        {.reg = mode, .reserveHistograms = true});
    w.connect(4);
    load::ClientPool &pool = w.pool;
    pool.start();

    eq.runUntil(warm);
    if (hooks.onMeasureStart)
        hooks.onMeasureStart();
    std::uint64_t ops0 = pool.completions();
    eq.runUntil(warm + meas);
    if (hooks.onMeasureEnd)
        hooks.onMeasureEnd();

    RegRunResult r;
    r.ops = pool.completions() - ops0;
    fillRegStats(r, bed.serverNpfc, bed.sch, w.server.registration());
    pool.stop();
    return r;
}

} // namespace npf::bench

#endif // NPF_BENCH_REG_COMMON_HH
