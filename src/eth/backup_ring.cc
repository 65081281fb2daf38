#include "eth/backup_ring.hh"

#include <cassert>

#include "eth/eth_nic.hh"
#include "obs/flow_tracer.hh"
#include "sim/log.hh"

namespace npf::eth {

BackupRingManager::BackupRingManager(sim::EventQueue &eq, EthNic &nic,
                                     std::size_t capacity)
    : eq_(eq), nic_(nic), capacity_(capacity)
{
    obs_.init("eth.backup");
    obs_.counter("parked", &stats_.parked);
    obs_.counter("overflow_drops", &stats_.overflowDrops);
    obs_.counter("resolved", &stats_.resolved);
    obs_.counter("resolution_retries", &stats_.resolutionRetries);
    obs_.counter("waits_for_room", &stats_.waitsForRoom);
    obs_.gauge("pending", [this] { return double(pendingCount_); });
}

BackupRingManager::SwQueue &
BackupRingManager::sw(unsigned ring_id)
{
    // Ring ids are dense and small; grow on first sight of a new one
    // (setup-time only, the queues themselves never shrink).
    if (swQueues_.size() <= ring_id)
        swQueues_.resize(ring_id + 1);
    return swQueues_[ring_id];
}

bool
BackupRingManager::store(BackupEntry e)
{
    if (hwRing_.size() >= capacity_) {
        ++stats_.overflowDrops;
        return false;
    }
    hwRing_.push_back(std::move(e));
    ++stats_.parked;
    ++pendingCount_;
    scheduleIsr();
    return true;
}

void
BackupRingManager::scheduleIsr()
{
    if (isrPending_)
        return; // coalesced, NAPI-style
    isrPending_ = true;
    eq_.scheduleAfter(kEthNic.interruptLatency, [this] {
        isrPending_ = false;
        isr();
    }, "eth.backup.isr");
}

void
BackupRingManager::isr()
{
    // Drain the pinned hardware ring into per-IOuser software queues
    // ("promptly replenish the backup ring so as not to run out of
    // buffers", §5), then wake the per-ring resolver threads.
    while (!hwRing_.empty()) {
        BackupEntry e = std::move(hwRing_.front());
        hwRing_.pop_front();
        unsigned rid = e.ringId;
        obs::FlowScope fs(e.obsFlow);
        sim::logf(sim::LogLevel::Debug, eq_.now(),
                  "rnpf: ring=%u parked frame (%llu bytes) in backup ring",
                  rid, static_cast<unsigned long long>(e.frame.bytes));
        obs::tracer().instant(obs::Track::Driver, "rnpf", "backup.drained",
                              e.obsFlow);
        SwQueue &s = sw(rid);
        s.q.push_back(std::move(e));
        if (!s.resolverBusy) {
            s.resolverBusy = true;
            eq_.scheduleAfter(0, [this, rid] { pumpResolver(rid); },
                              "eth.backup.resolver");
        }
    }
}

void
BackupRingManager::pumpResolver(unsigned ring_id)
{
    auto &q = sw(ring_id).q;
    if (q.empty()) {
        sw(ring_id).resolverBusy = false;
        return;
    }

    RxRing &r = nic_.ring(ring_id);
    BackupEntry &e = q.front();
    obs::FlowScope fs(e.obsFlow);

    // Step 1: wait until the IOuser has posted the descriptor this
    // packet belongs at ("T first blocks until there is room").
    if (e.idx >= r.tail) {
        ++stats_.waitsForRoom;
        obs::tracer().instant(obs::Track::Driver, "rnpf",
                              "backup.wait_room", e.obsFlow);
        // Deliberately re-arm with (this, ring_id) only — never a
        // reference to the entry or its pooled frame. By the time the
        // hook fires the queue may have been reshuffled, so the
        // resolver re-reads (and thus revalidates) q.front() from
        // scratch instead of trusting a captured payload.
        r.tailAdvanceHook = [this, ring_id] {
            RxRing &ring = nic_.ring(ring_id);
            ring.tailAdvanceHook = nullptr;
            eq_.scheduleAfter(0, [this, ring_id] { pumpResolver(ring_id); },
                              "eth.backup.resolver");
        };
        return;
    }

    RxDescriptor &d = r.slot(e.idx);
    core::ChannelId ch = nic_.ringChannel(ring_id);
    core::NpfController &npfc = nic_.npfc();

    if (e.synthetic) {
        // What-if injection: the page is actually resident; charge
        // only the modeled resolution latency.
        std::size_t pages = mem::pagesCovering(d.buf, d.len);
        sim::Time lat =
            npfc.sampleResolveLatency(ch, pages, e.syntheticMajor);
        obs::tracer().span(obs::Track::Driver, "rnpf",
                           "synthetic_resolve", eq_.now(), lat,
                           e.obsFlow);
        eq_.scheduleAfter(lat, [this, ring_id] { finishEntry(ring_id); },
                          "eth.backup.synthetic");
        return;
    }

    // Step 2: ensure the buffer pages are present and IOMMU-mapped.
    if (!npfc.checkDma(ch, d.buf, d.len).ok) {
        npfc.raiseNpf(ch, d.buf, d.len, /*write=*/true,
                      [this, ring_id, flow = e.obsFlow] {
                          obs::FlowScope fs(flow);
                          if (!nic_.npfc().resolved().ok) {
                              // Out of memory: back off and retry —
                              // reclaim needs time to make progress.
                              ++stats_.resolutionRetries;
                              obs::tracer().instant(obs::Track::Driver,
                                                    "rnpf",
                                                    "backup.oom_retry",
                                                    flow);
                              eq_.scheduleAfter(sim::kMillisecond,
                                                [this, ring_id] {
                                                    pumpResolver(ring_id);
                                                }, "eth.backup.retry");
                              return;
                          }
                          finishEntry(ring_id);
                      });
        return;
    }
    finishEntry(ring_id);
}

void
BackupRingManager::finishEntry(unsigned ring_id)
{
    auto &q = sw(ring_id).q;
    assert(!q.empty());
    BackupEntry e = std::move(q.front());
    q.pop_front();
    assert(pendingCount_ > 0);
    --pendingCount_;

    RxRing &r = nic_.ring(ring_id);
    RxDescriptor &d = r.slot(e.idx);

    // Step 3: copy the packet into the IOuser buffer (CPU copy, page
    // faults handled transparently — we are on the CPU now), then
    // step 4: tell the NIC the rNPF is resolved.
    double copy_secs =
        double(e.frame.bytes) / kEthNic.copyBytesPerSec;
    sim::Time copy_cost = sim::fromSeconds(copy_secs);

    obs::tracer().span(obs::Track::Driver, "rnpf", "copy", eq_.now(),
                       copy_cost, e.obsFlow);

    std::uint64_t bit_index = e.bitIndex;
    eq_.scheduleAfter(copy_cost, [this, ring_id, bit_index,
                                  idx = e.idx, flow = e.obsFlow,
                                  frame = std::move(e.frame)]() mutable {
        obs::FlowScope fs(flow);
        RxRing &ring = nic_.ring(ring_id);
        RxDescriptor &dd = ring.slot(idx);
        dd.frame = std::move(frame);
        dd.filled = true;
        core::ChannelId ch = nic_.ringChannel(ring_id);
        nic_.npfc().dmaAccess(ch, dd.buf,
                              std::min(dd.len, dd.frame.bytes),
                              /*write=*/true);
        ++stats_.resolved;
        sim::logf(sim::LogLevel::Debug, eq_.now(),
                  "rnpf: ring=%u resolved, copied %llu bytes to idx=%llu",
                  ring_id, static_cast<unsigned long long>(dd.frame.bytes),
                  static_cast<unsigned long long>(idx));
        nic_.resolveRnpf(ring_id, bit_index);
        obs::tracer().endFlow(flow, "rnpf", "rnpf");
        pumpResolver(ring_id);
    }, "eth.backup.copy");
    (void)d;
}

} // namespace npf::eth
