/**
 * @file
 * NpfController — the paper's primary contribution as a reusable
 * component: basic DMA page-fault support (Figure 2's NPF and
 * invalidation flows), the Figure 3 latency model, and the §4
 * firmware optimizations (concurrent NPFs, firmware bypass of
 * duplicate reports, batched pre-faulting of whole work requests).
 *
 * NIC models (ib::, eth::) attach an IOchannel per queue/ring, call
 * checkDma()/dmaAccess() on every DMA, and raiseNpf() when a
 * translation misses. The controller registers an MMU-notifier on
 * the backing address space so reclaim keeps the device page table
 * coherent (no pinning required — that is the whole point).
 *
 * The asynchronous NPF path allocates nothing once warm: a raiseNpf()
 * caller's resume callback is a sim::Delegate (inline by type), and
 * it waits in a request slab reserved on kernel pages at the
 * first attach(). Merged duplicates hang off their resolution's
 * merge-table entry as an intrusive list through that slab; NPFs
 * beyond maxConcurrentNpfs wait in a per-channel ring of slab
 * indices. The callback reads its breakdown through resolved().
 */

#ifndef NPF_CORE_NPF_CONTROLLER_HH
#define NPF_CORE_NPF_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/odp_config.hh"
#include "iommu/iommu.hh"
#include "mem/address_space.hh"
#include "obs/flow_tracer.hh"
#include "obs/metrics.hh"
#include "sim/delegate.hh"
#include "sim/event_queue.hh"
#include "sim/histogram.hh"
#include "sim/page_allocator.hh"
#include "sim/random.hh"
#include "sim/ring_deque.hh"

namespace npf::core {

/** Handle to an attached IOchannel. */
using ChannelId = std::uint32_t;

/** Per-component timing of one resolved NPF (Figure 3(a)). */
struct NpfBreakdown
{
    sim::Time trigger = 0;  ///< (i->ii) firmware interrupt, hw
    sim::Time driver = 0;   ///< (ii->iii) driver + OS, sw
    sim::Time ptUpdate = 0; ///< (iii->iv) IOMMU PT update, sw+hw
    sim::Time resume = 0;   ///< (iv->v) firmware resume, hw
    unsigned pagesMapped = 0;
    unsigned majorFaults = 0;
    bool ok = true;     ///< false on out-of-memory
    bool merged = false; ///< rode on an in-flight resolution

    sim::Time total() const { return trigger + driver + ptUpdate + resume; }
};

/** Breakdown of one invalidation (Figure 3(b)). */
struct InvalidationBreakdown
{
    sim::Time checks = 0;    ///< sw-only mapping checks
    sim::Time ptUpdate = 0;  ///< sw+hw PT update (0 if unmapped)
    sim::Time swUpdates = 0; ///< sw-only driver state updates
    bool wasMapped = false;

    sim::Time total() const { return checks + ptUpdate + swUpdates; }
};

/**
 * The NPF engine shared by one NIC's IOchannels.
 *
 * Observability: registers its counters as `core.npfN.*` and, while
 * a session's detail flag is raised, records per-phase latency
 * histograms (`core.npfN.driver_ns`, ...). Each asynchronous NPF is
 * traced as one flow with trigger/driver/pt_update/resume spans on
 * the nic-fw, driver and iommu tracks.
 */
class NpfController
{
  public:
    /** Runs on resume; reads the breakdown through resolved(). */
    using ResolveCallback = sim::Delegate;

    struct Stats
    {
        std::uint64_t npfs = 0;        ///< resolutions run
        std::uint64_t mergedNpfs = 0;  ///< deduped by firmware bypass
        std::uint64_t queuedNpfs = 0;  ///< waited for a concurrency slot
        std::uint64_t pagesMapped = 0;
        std::uint64_t majorFaults = 0;
        std::uint64_t invalidations = 0;
    };

    NpfController(sim::EventQueue &eq, OdpConfig cfg = {},
                  std::uint64_t seed = 0x0dbull);

    /**
     * Attach an IOchannel backed by @p as. Installs the MMU-notifier
     * that keeps the channel's IOMMU coherent with reclaim.
     */
    ChannelId attach(mem::AddressSpace &as);

    iommu::IoMmu &iommu(ChannelId ch) { return chan(ch).iommu; }
    mem::AddressSpace &space(ChannelId ch) { return *chan(ch).as; }

    /** Device-side peek: would a DMA over [iova, iova+len) fault? */
    struct DmaCheck
    {
        bool ok = true;
        unsigned missingPages = 0;
        mem::Vpn firstMissing = 0;
    };
    DmaCheck checkDma(ChannelId ch, mem::VirtAddr iova, std::size_t len);

    /**
     * Perform the DMA if fully mapped (exercises the IOTLB, marks
     * pages referenced/dirty). @return false when it faults instead.
     */
    bool dmaAccess(ChannelId ch, mem::VirtAddr iova, std::size_t len,
                   bool write);

    /**
     * Asynchronous NPF flow for [iova, iova+len): firmware interrupt,
     * driver resolution, PT update, firmware resume. @p cb fires on
     * resume. Respects maxConcurrentNpfs and the firmware-bypass
     * dedupe (§4 Optimizations). @p cb is held inline in a Delegate,
     * so an NPF never allocates to park its caller.
     */
    template <typename F>
    void
    raiseNpf(ChannelId ch, mem::VirtAddr iova, std::size_t len, bool write,
             F &&cb)
    {
        raise(ch, iova, len, write, ResolveCallback(std::forward<F>(cb)));
    }

    /**
     * The breakdown of the NPF whose resume callback is running:
     * merged = true for a merged or debounced raise (a debounced one
     * maps nothing). Aborts, in every build, outside a callback.
     */
    const NpfBreakdown &resolved() const;

    /**
     * Synchronous variant: run the whole flow immediately (no events)
     * and return the breakdown. Used by latency benches and by
     * callers that account time themselves.
     */
    NpfBreakdown computeResolve(ChannelId ch, mem::VirtAddr iova,
                                std::size_t len, bool write);

    /**
     * Map [iova, iova+len) without a firmware round trip — the
     * driver-initiated pre-fault used when posting known-hot buffers
     * and by the pinning strategies.
     */
    mem::AccessResult prefault(ChannelId ch, mem::VirtAddr iova,
                               std::size_t len, bool write);

    /** Explicit ranged invalidation with the Fig. 3(b) cost model. */
    InvalidationBreakdown invalidateRange(ChannelId ch, mem::VirtAddr iova,
                                          std::size_t len);

    /**
     * Sample the end-to-end latency of resolving an NPF over
     * @p pages pages without touching any state — used by the
     * synthetic-fault injection of the what-if benchmarks (§6.4).
     */
    sim::Time sampleResolveLatency(ChannelId ch, std::size_t pages,
                                   bool major);

    const Stats &stats() const { return stats_; }
    sim::EventQueue &eventQueue() { return eq_; }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    /**
     * One raiseNpf() caller, in the request slab. A merged or
     * debounced raise uses only cb and next. The request that starts
     * a resolution also carries that resolution's state.
     */
    struct Request
    {
        ResolveCallback cb;
        NpfBreakdown bd;
        mem::VirtAddr iova = 0;
        std::size_t len = 0;
        obs::FlowId flow = 0;
        mem::Vpn mergeKey = 0;
        ChannelId ch = 0;
        std::uint32_t next = kNil; ///< merge list or free list link
        bool write = false;
        bool hasKey = false; ///< found a missing page at start
    };

    /** An in-flight resolution's merged waiters, in raise order. */
    struct MergeEntry
    {
        mem::Vpn vpn;
        std::uint32_t head, tail;
    };

    struct Channel
    {
        iommu::IoMmu iommu;
        mem::AddressSpace *as = nullptr;
        unsigned inFlight = 0;
        /** Flat map: firstMissing vpn -> merged waiters. One entry per
         *  in-flight resolution at most, so a linear scan is short. */
        std::vector<MergeEntry> merges;
        /** Requests waiting for a concurrency slot, FIFO. */
        sim::RingDeque<std::uint32_t> waiting;

        explicit Channel(std::size_t tlb_cap) : iommu(tlb_cap) {}

        MergeEntry *findMerge(mem::Vpn vpn);
    };

    Channel &chan(ChannelId ch) { return *channels_.at(ch); }

    /** checkDma() without fault injection — for the controller's own
     *  debounce/resolution machinery. */
    DmaCheck checkDmaRaw(ChannelId ch, mem::VirtAddr iova, std::size_t len);

    void raise(ChannelId ch, mem::VirtAddr iova, std::size_t len, bool write,
               ResolveCallback cb);

    std::uint32_t newRequest(ResolveCallback cb);

    /** Release request @p r and run its callback with @p bd published
     *  through resolved(). */
    void resume(std::uint32_t r, const NpfBreakdown &bd);

    /** Start request @p r's resolution (a slot is already reserved). */
    void startResolve(std::uint32_t r);

    /** The driver phase of request @p r's resolution. */
    void runResolve(std::uint32_t r);

    /** Firmware resume: run the callbacks, hand the slot on. */
    void finishResolve(std::uint32_t r);

    /** Driver phase: touch + map pages; fills breakdown. */
    void resolvePages(Channel &c, mem::VirtAddr iova, std::size_t len,
                      bool write, NpfBreakdown &bd);

    sim::Time jittered(sim::Time base);

    /** Per-phase latency distributions (recorded when obs detail on). */
    void recordBreakdown(const NpfBreakdown &bd);

    /** Emit the four phase spans of a resolved NPF ending at @p end. */
    void traceBreakdown(obs::FlowId flow, const NpfBreakdown &bd,
                        sim::Time end);

    sim::EventQueue &eq_;
    OdpConfig cfg_;
    sim::Rng rng_;
    Stats stats_;
    std::vector<std::unique_ptr<Channel>> channels_;
    /** Request slab, reserved at the first attach(); never shrinks. */
    std::vector<Request, sim::PageAllocator<Request>> requests_;
    std::uint32_t freeRequests_ = kNil;
    const NpfBreakdown *resolved_ = nullptr; ///< set while a cb runs

    struct Latencies
    {
        sim::Histogram triggerNs, driverNs, ptUpdateNs, resumeNs, totalNs;
    };
    Latencies lat_;
    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::core

#endif // NPF_CORE_NPF_CONTROLLER_HH
