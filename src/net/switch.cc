#include "net/switch.hh"

#include <algorithm>

#include "fault/fault.hh"
#include "net/fabric.hh"
#include "obs/flow_tracer.hh"

namespace npf::net {

// --- Egress -----------------------------------------------------------

Egress::Egress(sim::EventQueue &eq, Fabric &fabric, unsigned to,
               LinkConfig link_cfg, const SwitchConfig &cfg,
               Switch *owner)
    : eq_(eq), fabric_(fabric), to_(to), cfg_(cfg), owner_(owner),
      link_(eq, link_cfg)
{
    obs_.init("net.port");
    obs_.counter("tx_packets", &stats_.txPackets);
    obs_.counter("queued_bytes", &stats_.queuedBytes);
    obs_.counter("cap_dropped", &stats_.capDropped);
    obs_.counter("down_dropped", &stats_.downDropped);
    obs_.counter("pause_rx", &stats_.pauseRx);
    obs_.counter("resume_rx", &stats_.resumeRx);
    obs_.gauge("queue_bytes",
               [this] { return double(queueBytesTotal()); });
}

bool
Egress::enqueue(sim::PoolRef ref)
{
    FabricPacket *pkt = ref.as<FabricPacket>();
    unsigned prio = pkt->priority;
    if (downUntil_ > eq_.now()) {
        ++stats_.downDropped;
        return false; // ref dies here, releasing the descriptor
    }
    if (cfg_.queueCapBytes != 0 &&
        queueBytes_[prio] + pkt->bytes > cfg_.queueCapBytes) {
        ++stats_.capDropped;
        return false;
    }
    queueBytes_[prio] += pkt->bytes;
    queueWireBytes_ += pkt->bytes + link_.config().perPacketOverheadBytes;
    stats_.queuedBytes += pkt->bytes;
    if (owner_ != nullptr) {
        owner_->noteQueueDepth(queueBytes_[prio]);
        if (cfg_.ecn.enabled && prio != kControlPriority && !pkt->ecn &&
            queueBytes_[prio] >= cfg_.ecn.markBytes) {
            pkt->ecn = true;
            owner_->noteEcnMark();
        }
        if (cfg_.pfc.enabled && !xoff_[prio] &&
            queueBytes_[prio] >= cfg_.pfc.xoffBytes) {
            xoff_[prio] = true;
            owner_->queueXoffChanged(prio, true);
        }
    }
    q_[prio].push_back(std::move(ref));
    pump();
    return true;
}

sim::Time
Egress::txEta() const
{
    sim::Time eta = std::max(
        {eq_.now(), link_.busyUntil(), downUntil_, frozenUntil_});
    if (queueWireBytes_ != 0)
        eta += sim::fromSeconds(double(queueWireBytes_) * 8.0 /
                                link_.config().bandwidthBitsPerSec);
    return eta;
}

void
Egress::setPaused(unsigned priority, bool on)
{
    if (on) {
        ++pauseCount_[priority];
        ++stats_.pauseRx;
        return;
    }
    if (pauseCount_[priority] == 0)
        return; // stray resume (a fault storm overlapping real PFC)
    ++stats_.resumeRx;
    if (--pauseCount_[priority] == 0)
        pump();
}

void
Egress::flapUntil(sim::Time until)
{
    downUntil_ = std::max(downUntil_, until);
    pump();
}

void
Egress::stallUntil(sim::Time until)
{
    frozenUntil_ = std::max(frozenUntil_, until);
    pump();
}

void
Egress::maybeXon(unsigned priority)
{
    if (owner_ != nullptr && xoff_[priority] &&
        queueBytes_[priority] <= cfg_.pfc.xonBytes) {
        xoff_[priority] = false;
        owner_->queueXoffChanged(priority, false);
    }
}

void
Egress::schedulePump(sim::Time when)
{
    if (pumpScheduled_)
        return;
    pumpScheduled_ = true;
    eq_.schedule(when, [this] {
        pumpScheduled_ = false;
        pump();
    }, "net.port.pump");
}

void
Egress::pump()
{
    if (pumpScheduled_)
        return; // a pending pump will get here
    sim::Time now = eq_.now();
    sim::Time gate = std::max(
        {downUntil_, frozenUntil_, link_.busyUntil()});
    if (gate > now) {
        for (unsigned p = 0; p < kPriorities; ++p)
            if (!q_[p].empty()) {
                schedulePump(gate);
                return;
            }
        return;
    }
    // Strict priority, highest class first; within a class FIFO. A
    // head packet still inside its forwarding latency doesn't block
    // other classes.
    sim::Time earliest = 0;
    for (int p = int(kPriorities) - 1; p >= 0; --p) {
        if (q_[p].empty() || paused(unsigned(p)))
            continue;
        FabricPacket *pkt = q_[p].front().as<FabricPacket>();
        if (pkt->readyAt > now) {
            if (earliest == 0 || pkt->readyAt < earliest)
                earliest = pkt->readyAt;
            continue;
        }
        sim::PoolRef ref = std::move(q_[p].front());
        q_[p].pop_front();
        queueBytes_[p] -= pkt->bytes;
        queueWireBytes_ -=
            pkt->bytes + link_.config().perPacketOverheadBytes;
        maybeXon(unsigned(p));
        ++stats_.txPackets;
        Fabric *fab = &fabric_;
        unsigned to = to_;
        // One wire hop; the descriptor rides inside the delivery
        // closure as an owning ref, so a fault-dropped hop releases
        // it and a duplicated hop clones it (net/packet.hh).
        link_.send(pkt->bytes, [fab, to, ref = std::move(ref)]() mutable {
            fab->arrive(to, std::move(ref));
        });
        schedulePump(link_.busyUntil());
        return;
    }
    if (earliest > now)
        schedulePump(earliest);
}

// --- Switch -----------------------------------------------------------

Switch::Switch(sim::EventQueue &eq, Fabric &fabric, unsigned vertex,
               const SwitchConfig &cfg)
    : eq_(eq), fabric_(fabric), vertex_(vertex), cfg_(cfg)
{
    obs_.init("net.switch");
    obs_.counter("rx_packets", &stats_.rxPackets);
    obs_.counter("ecn_marked", &stats_.ecnMarked);
    obs_.counter("pause_tx", &stats_.pauseTx);
    obs_.counter("resume_tx", &stats_.resumeTx);
    obs_.counter("inj_dropped", &stats_.injDropped);
    obs_.counter("inj_stalls", &stats_.injStalls);
    obs_.counter("inj_flaps", &stats_.injFlaps);
    obs_.counter("inj_pause_storms", &stats_.injPauseStorms);
    obs_.counter("queue_hwm_bytes", &stats_.queueHwmBytes);
}

void
Switch::receive(sim::PoolRef ref)
{
    ++stats_.rxPackets;
    FabricPacket *pkt = ref.as<FabricPacket>();
    pkt->readyAt = eq_.now() + cfg_.forwardLatency;
    Egress *out = route(*pkt);

    if (fault::FaultInjector *fi = fault::FaultInjector::active()) {
        if (auto d = fi->decide(fault::Site::Switch)) {
            switch (d->action) {
              case fault::Action::Drop:
                // Silent discard inside the switching core; the
                // transport's loss recovery picks up the pieces.
                ++stats_.injDropped;
                return;
              case fault::Action::Stall:
                // The chosen egress queue freezes (scheduler hiccup);
                // the packet itself still queues behind the stall.
                ++stats_.injStalls;
                out->stallUntil(eq_.now() + d->delay);
                break;
              case fault::Action::Flap:
                // The egress port drops carrier: arrivals (including
                // this one) are lost until it comes back.
                ++stats_.injFlaps;
                out->flapUntil(eq_.now() + d->delay);
                break;
              case fault::Action::Pause:
                // Forced PFC storm: pause every upstream port on the
                // data class for the configured window, regardless of
                // queue state.
                ++stats_.injPauseStorms;
                pauseUpstream(0, true);
                eq_.scheduleAfter(d->delay, [this] {
                    pauseUpstream(0, false);
                }, "fault.pfc_storm");
                break;
              default:
                break;
            }
        }
    }
    out->enqueue(std::move(ref));
}

Egress *
Switch::route(const FabricPacket &pkt)
{
    const std::vector<Egress *> &cands = routes_[pkt.dst];
    if (cands.size() == 1)
        return cands[0];
    // Deterministic ECMP: hash the flow tuple with the switch id
    // mixed in, so consecutive hops don't all make the same choice
    // (the classic correlated-ECMP pitfall). splitmix64 finalizer.
    std::uint64_t x = (std::uint64_t(vertex_) << 40) ^
                      (std::uint64_t(pkt.src) << 28) ^
                      (std::uint64_t(pkt.dst) << 16) ^
                      (std::uint64_t(pkt.priority) << 8) ^ pkt.flow;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return cands[x % cands.size()];
}

void
Switch::pauseUpstream(unsigned priority, bool on)
{
    obs::FlowTracer &tr = obs::tracer();
    for (Egress *up : upstream_) {
        if (on)
            ++stats_.pauseTx;
        else
            ++stats_.resumeTx;
        if (tr.active())
            tr.instant(obs::Track::Net, "pfc",
                       on ? "pfc.pause" : "pfc.resume");
        // A pause frame crosses only the reverse wire's propagation
        // delay (tiny frame; serialization negligible).
        eq_.scheduleAfter(up->link().config().propagation,
                          [up, priority, on] { up->setPaused(priority, on); },
                          "net.pfc");
    }
}

void
Switch::queueXoffChanged(unsigned priority, bool on)
{
    // Pause frames go out on the first queue to cross XOFF and
    // resume only when the last one recrosses XON.
    if (on) {
        if (xoffCount_[priority]++ == 0)
            pauseUpstream(priority, true);
    } else {
        if (--xoffCount_[priority] == 0)
            pauseUpstream(priority, false);
    }
}

void
Switch::noteEcnMark()
{
    ++stats_.ecnMarked;
    obs::FlowTracer &tr = obs::tracer();
    if (tr.active())
        tr.instant(obs::Track::Net, "ecn", "ecn.mark");
}

} // namespace npf::net
