#include "core/npf_controller.hh"

#include <cassert>

#include "fault/fault.hh"
#include "mem/memory_manager.hh"
#include "sim/log.hh"
#include "sim/pool.hh"
#include "sim/thread_owned.hh"

namespace {

/**
 * Slab for in-flight NPF breakdowns. The resolution closure chain
 * carries an 8-byte generation-stamped handle instead of a
 * shared_ptr, so raising an NPF performs no heap allocation and each
 * continuation revalidates the handle at fire time (a stale handle —
 * the breakdown released while a continuation still held it — aborts
 * instead of reading recycled memory). Per-thread and never freed
 * while its thread runs, so handles in closures parked in a dying
 * event queue can never dangle.
 */
npf::sim::Pool<npf::core::NpfBreakdown> &
breakdownPool()
{
    static thread_local auto *p =
        npf::sim::newThreadOwned<npf::sim::Pool<npf::core::NpfBreakdown>>(
            "core::breakdownPool");
    return *p;
}

/** True when an active fault plan forces an rNPF on this device-side
 *  translation attempt. */
bool
injectedForcedFault()
{
    npf::fault::FaultInjector *fi = npf::fault::FaultInjector::active();
    if (fi == nullptr)
        return false;
    auto d = fi->decide(npf::fault::Site::Npf);
    return d.has_value() && d->action == npf::fault::Action::ForceFault;
}

} // namespace

namespace npf::core {

NpfController::NpfController(sim::EventQueue &eq, OdpConfig cfg,
                             std::uint64_t seed)
    : eq_(eq), cfg_(cfg), rng_(seed)
{
    obs_.init("core.npf");
    obs_.counter("npfs", &stats_.npfs);
    obs_.counter("merged_npfs", &stats_.mergedNpfs);
    obs_.counter("queued_npfs", &stats_.queuedNpfs);
    obs_.counter("pages_mapped", &stats_.pagesMapped);
    obs_.counter("major_faults", &stats_.majorFaults);
    obs_.counter("invalidations", &stats_.invalidations);
    obs_.histogram("trigger_ns", &lat_.triggerNs);
    obs_.histogram("driver_ns", &lat_.driverNs);
    obs_.histogram("pt_update_ns", &lat_.ptUpdateNs);
    obs_.histogram("resume_ns", &lat_.resumeNs);
    obs_.histogram("total_ns", &lat_.totalNs);
}

void
NpfController::recordBreakdown(const NpfBreakdown &bd)
{
    if (!obs::Registry::global().detail())
        return;
    lat_.triggerNs.record(double(bd.trigger));
    lat_.driverNs.record(double(bd.driver));
    lat_.ptUpdateNs.record(double(bd.ptUpdate));
    lat_.resumeNs.record(double(bd.resume));
    lat_.totalNs.record(double(bd.total()));
}

void
NpfController::traceBreakdown(obs::FlowId flow, const NpfBreakdown &bd,
                              sim::Time end)
{
    obs::FlowTracer &tr = obs::tracer();
    if (!tr.active())
        return;
    sim::Time t = end - bd.total();
    tr.span(obs::Track::Nic, "npf", "trigger", t, bd.trigger, flow);
    t += bd.trigger;
    tr.span(obs::Track::Driver, "npf", "driver", t, bd.driver, flow);
    t += bd.driver;
    tr.span(obs::Track::Iommu, "npf", "pt_update", t, bd.ptUpdate, flow);
    t += bd.ptUpdate;
    tr.span(obs::Track::Nic, "npf", "resume", t, bd.resume, flow);
}

ChannelId
NpfController::attach(mem::AddressSpace &as)
{
    auto ch = static_cast<ChannelId>(channels_.size());
    channels_.push_back(std::make_unique<Channel>(cfg_.iotlbCapacity));
    Channel &c = *channels_.back();
    c.as = &as;

    // MMU notifier: reclaim invalidates the device mapping before
    // reusing the frame (Fig. 2, a-d). Reclaim-path invalidations
    // are charged an amortized cost (notifiers batch ranges); the
    // full per-operation model is in invalidateRange().
    as.registerInvalidateNotifier([this, ch](mem::Vpn vpn) -> sim::Time {
        Channel &chn = chan(ch);
        bool mapped = chn.iommu.invalidate(vpn);
        ++stats_.invalidations;
        if (!mapped)
            return cfg_.invChecks / 4;
        return (cfg_.invChecks + cfg_.invPtUpdateBase + cfg_.invSwUpdates) /
               4;
    });
    return ch;
}

NpfController::DmaCheck
NpfController::checkDma(ChannelId ch, mem::VirtAddr iova, std::size_t len)
{
    DmaCheck res = checkDmaRaw(ch, iova, len);
    // Device-side peek only: the controller's own machinery (debounce,
    // resolution) uses checkDmaRaw() and is immune to injection.
    if (res.ok && len != 0 && injectedForcedFault()) {
        res.ok = false;
        res.missingPages = 1;
        res.firstMissing = mem::pageOf(iova);
    }
    return res;
}

NpfController::DmaCheck
NpfController::checkDmaRaw(ChannelId ch, mem::VirtAddr iova, std::size_t len)
{
    DmaCheck res;
    if (len == 0)
        return res;
    Channel &c = chan(ch);
    mem::Vpn first = mem::pageOf(iova);
    mem::Vpn last = mem::pageOf(iova + len - 1);
    for (mem::Vpn v = first; v <= last; ++v) {
        if (c.iommu.wouldFault(v)) {
            if (res.missingPages == 0)
                res.firstMissing = v;
            ++res.missingPages;
            res.ok = false;
        }
    }
    return res;
}

bool
NpfController::dmaAccess(ChannelId ch, mem::VirtAddr iova, std::size_t len,
                         bool write)
{
    if (len == 0)
        return true;
    Channel &c = chan(ch);
    mem::Vpn first = mem::pageOf(iova);
    mem::Vpn last = mem::pageOf(iova + len - 1);
    for (mem::Vpn v = first; v <= last; ++v) {
        iommu::Translation t = c.iommu.translate(v);
        if (!t.ok)
            return false;
    }
    // Forced rNPF: the translation "misses" even though the pages are
    // resident, before any reference bits are touched — the caller
    // goes down its real fault-recovery path.
    if (injectedForcedFault())
        return false;
    // DMA touches the backing pages: keep referenced/dirty bits hot
    // so reclaim prefers genuinely cold pages.
    for (mem::Vpn v = first; v <= last; ++v) {
        mem::Pte *pte = c.as->findPte(v);
        if (pte != nullptr && pte->present) {
            pte->referenced = true;
            pte->dirty |= write;
        }
    }
    return true;
}

void
NpfController::raiseNpf(ChannelId ch, mem::VirtAddr iova, std::size_t len,
                        bool write, ResolveCallback cb)
{
    Channel &c = chan(ch);

    if (cfg_.firmwareBypass) {
        DmaCheck check = checkDmaRaw(ch, iova, len);
        if (check.ok) {
            // Raced with a completed resolution: nothing to do.
            obs::tracer().instant(obs::Track::Nic, "npf",
                                  "npf.debounced");
            NpfBreakdown bd;
            bd.merged = true;
            eq_.scheduleAfter(0, [cb = std::move(cb), bd] { cb(bd); },
                              "npf.debounced");
            return;
        }
        auto it = c.merges.find(check.firstMissing);
        if (it != c.merges.end()) {
            // A resolution covering this page is in flight: the
            // firmware handles the duplicate silently (bitmap set),
            // and this requester resumes when the first one does.
            obs::tracer().instant(obs::Track::Nic, "npf", "npf.merged");
            it->second.push_back(std::move(cb));
            ++stats_.mergedNpfs;
            return;
        }
    }

    // One flow per NPF journey, opened before any queueing so the
    // concurrency-slot wait shows up in the flow's span.
    obs::FlowId flow = obs::tracer().beginFlow("npf", "npf");

    auto start = [this, ch, iova, len, write, flow,
                  cb = std::move(cb)]() mutable {
        startResolve(ch, iova, len, write, std::move(cb), flow);
    };

    if (c.inFlight >= cfg_.maxConcurrentNpfs) {
        ++stats_.queuedNpfs;
        obs::tracer().instant(obs::Track::Nic, "npf", "npf.queued", flow);
        c.waiting.push_back(std::move(start));
        return;
    }
    ++c.inFlight;
    start();
}

void
NpfController::startResolve(ChannelId ch, mem::VirtAddr iova,
                            std::size_t len, bool write, ResolveCallback cb,
                            obs::FlowId flow)
{
    Channel &c = chan(ch);
    ++stats_.npfs;

    sim::PoolHandle bdh = breakdownPool().create();
    sim::Time trigger = jittered(cfg_.fwTriggerInterrupt);
    breakdownPool().get(bdh)->trigger = trigger;

    DmaCheck check = checkDmaRaw(ch, iova, len);
    mem::Vpn merge_key = check.firstMissing;
    if (cfg_.firmwareBypass && !check.ok)
        c.merges.emplace(merge_key, std::vector<ResolveCallback>{});

    // The fault-resolution continuation is the fattest closure the
    // controller schedules (breakdown handle, merge key, resolve
    // callback); it still must ride the event queue's inline delegate
    // storage — NPF latency is the quantity this simulator measures,
    // and an allocation here would sit directly on that path. The
    // breakdown travels as a pooled handle that each continuation
    // revalidates (get() aborts on a stale generation) and that the
    // final continuation releases, exactly once.
    auto resolve = [this, ch, iova, len, write, bdh, merge_key,
                    has_key = !check.ok, flow,
                    cb = std::move(cb)]() mutable {
        obs::FlowScope fs(flow);
        Channel &c = chan(ch);
        NpfBreakdown *bd = breakdownPool().get(bdh);
        sim::logf(sim::LogLevel::Debug, eq_.now(),
                  "npf: ch=%u resolving iova=0x%llx len=%zu write=%d", ch,
                  static_cast<unsigned long long>(iova), len, int(write));
        resolvePages(c, iova, len, write, *bd);
        bd->resume = jittered(cfg_.fwResume);
        sim::Time rest = bd->driver + bd->ptUpdate + bd->resume;

        eq_.scheduleAfter(rest, [this, ch, bdh, merge_key, has_key, flow,
                                 cb = std::move(cb)]() mutable {
            obs::FlowScope fs(flow);
            Channel &c = chan(ch);
            NpfBreakdown *bd = breakdownPool().get(bdh);
            sim::logf(sim::LogLevel::Debug, eq_.now(),
                      "npf: ch=%u resolved pages=%u major=%u total=%llu ns",
                      ch, bd->pagesMapped, bd->majorFaults,
                      static_cast<unsigned long long>(bd->total()));
            traceBreakdown(flow, *bd, eq_.now());
            recordBreakdown(*bd);
            obs::tracer().endFlow(flow);
            cb(*bd);
            if (has_key) {
                auto it = c.merges.find(merge_key);
                if (it != c.merges.end()) {
                    auto merged = std::move(it->second);
                    c.merges.erase(it);
                    NpfBreakdown mbd = *bd;
                    mbd.merged = true;
                    for (auto &m : merged)
                        m(mbd);
                }
            }
            // Last read of *bd was above; retire the slot before the
            // next queued NPF can start and recycle it.
            breakdownPool().release(bdh);
            assert(c.inFlight > 0);
            --c.inFlight;
            if (!c.waiting.empty()) {
                auto next = std::move(c.waiting.front());
                c.waiting.pop_front();
                ++c.inFlight;
                next();
            }
        }, "npf.resolve");
    };
    static_assert(sim::Delegate::fitsInline<decltype(resolve)>,
                  "npf resolution closure must stay inline");
    eq_.scheduleAfter(trigger, std::move(resolve), "npf.trigger");
}

void
NpfController::resolvePages(Channel &c, mem::VirtAddr iova, std::size_t len,
                            bool write, NpfBreakdown &bd)
{
    bd.driver = jittered(cfg_.driverHandlerBase);
    bd.ptUpdate = jittered(cfg_.ptUpdateBase);

    if (len == 0)
        return;
    mem::Vpn first = mem::pageOf(iova);
    mem::Vpn last = mem::pageOf(iova + len - 1);
    for (mem::Vpn v = first; v <= last; ++v) {
        if (!c.iommu.wouldFault(v))
            continue;
        mem::AccessResult ar = c.as->touchPage(v, write);
        if (!ar.ok) {
            bd.ok = false;
            return;
        }
        bd.driver += ar.cost + cfg_.osPerPage;
        bd.ptUpdate += cfg_.ptUpdatePerPage;
        bd.majorFaults += ar.majorFaults;
        const mem::Pte *pte = c.as->findPte(v);
        assert(pte != nullptr && pte->present);
        c.iommu.map(v, pte->pfn);
        ++bd.pagesMapped;
        ++stats_.pagesMapped;
        stats_.majorFaults += ar.majorFaults;
        if (!cfg_.batchedPrefault)
            break; // strict ATS/PRI: one page per fault event
    }

    // Occasional scheduling/contention spike (Table 4 tail).
    if (rng_.bernoulli(cfg_.tailSpikeProb)) {
        bd.driver += static_cast<sim::Time>(
            rng_.exponential(double(cfg_.tailSpikeMean)));
    }
}

NpfBreakdown
NpfController::computeResolve(ChannelId ch, mem::VirtAddr iova,
                              std::size_t len, bool write)
{
    Channel &c = chan(ch);
    ++stats_.npfs;
    NpfBreakdown bd;
    bd.trigger = jittered(cfg_.fwTriggerInterrupt);
    resolvePages(c, iova, len, write, bd);
    bd.resume = jittered(cfg_.fwResume);
    // Synchronous: the caller accounts the time itself, so the spans
    // project forward from now instead of ending at now.
    if (obs::tracer().active()) {
        obs::FlowId flow = obs::tracer().beginFlow("npf", "npf.sync");
        traceBreakdown(flow, bd, eq_.now() + bd.total());
        obs::tracer().endFlowAt(flow, eq_.now() + bd.total());
    }
    recordBreakdown(bd);
    return bd;
}

mem::AccessResult
NpfController::prefault(ChannelId ch, mem::VirtAddr iova, std::size_t len,
                        bool write)
{
    Channel &c = chan(ch);
    mem::AccessResult res;
    if (len == 0)
        return res;
    mem::Vpn first = mem::pageOf(iova);
    mem::Vpn last = mem::pageOf(iova + len - 1);
    for (mem::Vpn v = first; v <= last; ++v) {
        mem::AccessResult one = c.as->touchPage(v, write);
        res.cost += one.cost;
        res.minorFaults += one.minorFaults;
        res.majorFaults += one.majorFaults;
        if (!one.ok) {
            res.ok = false;
            return res;
        }
        if (c.iommu.wouldFault(v)) {
            const mem::Pte *pte = c.as->findPte(v);
            c.iommu.map(v, pte->pfn);
            res.cost += cfg_.ptUpdatePerPage;
        }
    }
    return res;
}

InvalidationBreakdown
NpfController::invalidateRange(ChannelId ch, mem::VirtAddr iova,
                               std::size_t len)
{
    Channel &c = chan(ch);
    InvalidationBreakdown bd;
    bd.checks = cfg_.invChecks;
    if (len == 0)
        return bd;
    mem::Vpn first = mem::pageOf(iova);
    mem::Vpn last = mem::pageOf(iova + len - 1);
    unsigned unmapped = 0;
    for (mem::Vpn v = first; v <= last; ++v) {
        if (c.iommu.invalidate(v))
            ++unmapped;
    }
    stats_.invalidations += unmapped;
    bd.wasMapped = unmapped > 0;
    if (bd.wasMapped) {
        bd.ptUpdate =
            cfg_.invPtUpdateBase + unmapped * cfg_.invPtUpdatePerPage;
        bd.swUpdates = cfg_.invSwUpdates;
    }
    obs::FlowTracer &tr = obs::tracer();
    if (tr.active()) {
        sim::Time t = eq_.now();
        tr.span(obs::Track::Driver, "inv", "checks", t, bd.checks);
        t += bd.checks;
        if (bd.wasMapped) {
            tr.span(obs::Track::Iommu, "inv", "pt_update", t, bd.ptUpdate);
            t += bd.ptUpdate;
            tr.span(obs::Track::Driver, "inv", "sw_updates", t,
                    bd.swUpdates);
        }
    }
    return bd;
}

sim::Time
NpfController::sampleResolveLatency(ChannelId ch, std::size_t pages,
                                    bool major)
{
    Channel &c = chan(ch);
    const mem::MemCostConfig &mc = c.as->manager().costs();
    sim::Time t = jittered(cfg_.fwTriggerInterrupt);
    t += jittered(cfg_.driverHandlerBase);
    t += pages * (cfg_.osPerPage + mc.minorFaultCpu);
    t += jittered(cfg_.ptUpdateBase) + pages * cfg_.ptUpdatePerPage;
    t += jittered(cfg_.fwResume);
    if (major)
        t += c.as->manager().swap().readLatency(pages);
    if (rng_.bernoulli(cfg_.tailSpikeProb))
        t += static_cast<sim::Time>(
            rng_.exponential(double(cfg_.tailSpikeMean)));
    return t;
}

sim::Time
NpfController::jittered(sim::Time base)
{
    double j = rng_.lognormalJitter(cfg_.hwJitterSigma);
    return static_cast<sim::Time>(double(base) * j);
}

} // namespace npf::core
