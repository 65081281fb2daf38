#include "core/npf_controller.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "fault/fault.hh"
#include "mem/memory_manager.hh"
#include "sim/log.hh"

namespace {

/** Slab slots reserved at the first attach(): far above any run's
 *  outstanding raises, and only address space until used. */
constexpr std::size_t kRequestReserve = 4096;

/** What a debounced raise resumes with: nothing was resolved. */
const npf::core::NpfBreakdown kDebounced{.merged = true};

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
    channels_.push_back(std::make_unique<Channel>(kOdp.iotlbCapacity));
    Channel &c = *channels_.back();
    c.as = &as;
    c.merges.reserve(cfg_.maxConcurrentNpfs);
    c.waiting.reserve(kRequestReserve);
    requests_.reserve(kRequestReserve);

    // MMU notifier: reclaim invalidates the device mapping before
    // reusing the frame (Fig. 2, a-d). Reclaim-path invalidations
    // are charged an amortized cost (notifiers batch ranges); the
    // full per-operation model is in invalidateRange().
    as.registerInvalidateNotifier([this, ch](mem::Vpn vpn) -> sim::Time {
        Channel &chn = chan(ch);
        bool mapped = chn.iommu.invalidate(vpn);
        ++stats_.invalidations;
        if (!mapped)
            return kOdp.invChecks / 4;
        return (kOdp.invChecks + kOdp.invPtUpdateBase + kOdp.invSwUpdates) /
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

NpfController::MergeEntry *
NpfController::Channel::findMerge(mem::Vpn vpn)
{
    auto it = std::find_if(merges.begin(), merges.end(),
                           [vpn](const MergeEntry &m) {
                               return m.vpn == vpn;
                           });
    return it == merges.end() ? nullptr : &*it;
}

std::uint32_t
NpfController::newRequest(ResolveCallback cb)
{
    std::uint32_t r = freeRequests_;
    if (r != kNil) {
        freeRequests_ = requests_[r].next;
    } else {
        r = static_cast<std::uint32_t>(requests_.size());
        requests_.emplace_back();
    }
    requests_[r].cb = std::move(cb);
    requests_[r].next = kNil;
    return r;
}

void
NpfController::resume(std::uint32_t r, const NpfBreakdown &bd)
{
    // Take the callback and free the slot first: the callback may
    // raise again, reuse the slot, or grow the slab.
    ResolveCallback cb = std::move(requests_[r].cb);
    requests_[r].next = freeRequests_;
    freeRequests_ = r;
    const NpfBreakdown *outer = resolved_;
    resolved_ = &bd;
    cb();
    resolved_ = outer;
}

const NpfBreakdown &
NpfController::resolved() const
{
    if (resolved_ == nullptr) {
        std::fprintf(stderr, "core::NpfController::resolved() called "
                             "outside an NPF resume callback\n");
        std::abort();
    }
    return *resolved_;
}

void
NpfController::raise(ChannelId ch, mem::VirtAddr iova, std::size_t len,
                     bool write, ResolveCallback cb)
{
    Channel &c = chan(ch);

    DmaCheck check = checkDmaRaw(ch, iova, len);
    if (check.ok) {
        // Raced with a completed resolution: nothing to do.
        obs::tracer().instant(obs::Track::Nic, "npf", "npf.debounced");
        std::uint32_t r = newRequest(std::move(cb));
        eq_.scheduleAfter(0, [this, r] { resume(r, kDebounced); },
                          "npf.debounced");
        return;
    }
    if (MergeEntry *m = c.findMerge(check.firstMissing)) {
        // A resolution covering this page is in flight: the firmware
        // handles the duplicate silently (bitmap set), and this
        // requester resumes when the first one does.
        obs::tracer().instant(obs::Track::Nic, "npf", "npf.merged");
        std::uint32_t r = newRequest(std::move(cb));
        if (m->head == kNil)
            m->head = r;
        else
            requests_[m->tail].next = r;
        m->tail = r;
        ++stats_.mergedNpfs;
        return;
    }

    // One flow per NPF journey, opened before any queueing so the
    // concurrency-slot wait shows up in the flow's span.
    obs::FlowId flow = obs::tracer().beginFlow("npf", "npf");
    std::uint32_t r = newRequest(std::move(cb));
    Request &q = requests_[r];
    q.ch = ch;
    q.iova = iova;
    q.len = len;
    q.write = write;
    q.flow = flow;

    if (c.inFlight >= cfg_.maxConcurrentNpfs) {
        ++stats_.queuedNpfs;
        obs::tracer().instant(obs::Track::Nic, "npf", "npf.queued", flow);
        c.waiting.push_back(r);
        return;
    }
    ++c.inFlight;
    startResolve(r);
}

void
NpfController::startResolve(std::uint32_t r)
{
    Request &q = requests_[r];
    Channel &c = chan(q.ch);
    ++stats_.npfs;

    q.bd = NpfBreakdown{};
    q.bd.trigger = jittered(kOdp.fwTriggerInterrupt);

    DmaCheck check = checkDmaRaw(q.ch, q.iova, q.len);
    q.mergeKey = check.firstMissing;
    q.hasKey = !check.ok;
    if (!check.ok && !c.findMerge(q.mergeKey))
        c.merges.push_back({q.mergeKey, kNil, kNil});

    // NPF latency is the quantity this simulator measures, so neither
    // continuation may allocate: each carries only the request's slab
    // index, which stays the request's until finishResolve() runs.
    eq_.scheduleAfter(q.bd.trigger, [this, r] { runResolve(r); },
                      "npf.trigger");
}

void
NpfController::runResolve(std::uint32_t r)
{
    Request &q = requests_[r];
    obs::FlowScope fs(q.flow);
    sim::logf(sim::LogLevel::Debug, eq_.now(),
              "npf: ch=%u resolving iova=0x%llx len=%zu write=%d", q.ch,
              static_cast<unsigned long long>(q.iova), q.len, int(q.write));
    NpfBreakdown bd = q.bd;
    resolvePages(chan(q.ch), q.iova, q.len, q.write, bd);
    bd.resume = jittered(kOdp.fwResume);
    requests_[r].bd = bd;
    eq_.scheduleAfter(bd.driver + bd.ptUpdate + bd.resume,
                      [this, r] { finishResolve(r); }, "npf.resolve");
}

void
NpfController::finishResolve(std::uint32_t r)
{
    // Copies: the callbacks below may raise again and grow the slab.
    const Request &q = requests_[r];
    const ChannelId ch = q.ch;
    const obs::FlowId flow = q.flow;
    const NpfBreakdown bd = q.bd;
    const bool has_key = q.hasKey;
    const mem::Vpn merge_key = q.mergeKey;

    obs::FlowScope fs(flow);
    Channel &c = chan(ch);
    sim::logf(sim::LogLevel::Debug, eq_.now(),
              "npf: ch=%u resolved pages=%u major=%u total=%llu ns", ch,
              bd.pagesMapped, bd.majorFaults,
              static_cast<unsigned long long>(bd.total()));
    traceBreakdown(flow, bd, eq_.now());
    recordBreakdown(bd);
    obs::tracer().endFlow(flow, "npf", "npf");
    resume(r, bd);
    if (MergeEntry *m = has_key ? c.findMerge(merge_key) : nullptr) {
        // Unlink the whole list before running it: a waiter that
        // raises this page again starts a fresh resolution.
        std::uint32_t w = m->head;
        *m = c.merges.back();
        c.merges.pop_back();
        NpfBreakdown mbd = bd;
        mbd.merged = true;
        while (w != kNil) {
            std::uint32_t next = requests_[w].next;
            resume(w, mbd);
            w = next;
        }
    }
    assert(c.inFlight > 0);
    --c.inFlight;
    if (!c.waiting.empty()) {
        std::uint32_t next = c.waiting.front();
        c.waiting.pop_front();
        ++c.inFlight;
        startResolve(next);
    }
}

void
NpfController::resolvePages(Channel &c, mem::VirtAddr iova, std::size_t len,
                            bool write, NpfBreakdown &bd)
{
    bd.driver = jittered(kOdp.driverHandlerBase);
    bd.ptUpdate = jittered(kOdp.ptUpdateBase);

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
        bd.driver += ar.cost + kOdp.osPerPage;
        bd.ptUpdate += kOdp.ptUpdatePerPage;
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
    if (rng_.bernoulli(kOdp.tailSpikeProb)) {
        bd.driver += static_cast<sim::Time>(
            rng_.exponential(double(kOdp.tailSpikeMean)));
    }
}

NpfBreakdown
NpfController::computeResolve(ChannelId ch, mem::VirtAddr iova,
                              std::size_t len, bool write)
{
    Channel &c = chan(ch);
    ++stats_.npfs;
    NpfBreakdown bd;
    bd.trigger = jittered(kOdp.fwTriggerInterrupt);
    resolvePages(c, iova, len, write, bd);
    bd.resume = jittered(kOdp.fwResume);
    // Synchronous: the caller accounts the time itself, so the spans
    // project forward from now instead of ending at now.
    if (obs::tracer().active()) {
        obs::FlowId flow = obs::tracer().beginFlow("npf", "npf.sync");
        traceBreakdown(flow, bd, eq_.now() + bd.total());
        obs::tracer().endFlowAt(flow, "npf", "npf.sync",
                                 eq_.now() + bd.total());
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
            res.cost += kOdp.ptUpdatePerPage;
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
    bd.checks = kOdp.invChecks;
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
            kOdp.invPtUpdateBase + unmapped * kOdp.invPtUpdatePerPage;
        bd.swUpdates = kOdp.invSwUpdates;
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
    sim::Time t = jittered(kOdp.fwTriggerInterrupt);
    t += jittered(kOdp.driverHandlerBase);
    t += pages * (kOdp.osPerPage + mem::kMemCosts.minorFaultCpu);
    t += jittered(kOdp.ptUpdateBase) + pages * kOdp.ptUpdatePerPage;
    t += jittered(kOdp.fwResume);
    if (major)
        t += c.as->manager().swap().readLatency(pages);
    if (rng_.bernoulli(kOdp.tailSpikeProb))
        t += static_cast<sim::Time>(
            rng_.exponential(double(kOdp.tailSpikeMean)));
    return t;
}

sim::Time
NpfController::jittered(sim::Time base)
{
    double j = rng_.lognormalJitter(kOdp.hwJitterSigma);
    return static_cast<sim::Time>(double(base) * j);
}

} // namespace npf::core
