#include "eth/eth_nic.hh"

#include <cassert>
#include <string>

#include "eth/backup_ring.hh"
#include "fault/fault.hh"
#include "net/fabric.hh"
#include "obs/attribution.hh"
#include "obs/flow_tracer.hh"

namespace npf::eth {

EthNic::EthNic(sim::EventQueue &eq, core::NpfController &npfc,
               EthNicConfig cfg, std::uint64_t seed)
    : eq_(eq), npfc_(npfc), rng_(seed)
{
    obs_.init("eth.nic");
    obs_.counter("frames_sent", &stats_.framesSent);
    obs_.counter("frames_received", &stats_.framesReceived);
    obs_.counter("tx_npfs", &stats_.txNpfs);
    obs_.counter("unroutable", &stats_.unroutable);
    obs_.counter("rx_corrupt", &stats_.rxCorrupt);
    obs_.counter("rx_stalls", &stats_.rxStalls);
    backup_ = std::make_unique<BackupRingManager>(eq_, *this,
                                                  cfg.backupRingSize);
}

EthNic::~EthNic() = default;

void
EthNic::connectTo(EthNic &peer, net::LinkConfig link_cfg)
{
    peer_ = &peer;
    txLink_ = std::make_unique<net::Link>(eq_, link_cfg);
}

void
EthNic::connectVia(net::Fabric &fabric, unsigned self,
                   unsigned peer_node, EthNic &peer)
{
    peer_ = &peer;
    fabric_ = &fabric;
    fabricSelf_ = self;
    fabricPeer_ = peer_node;
}

unsigned
EthNic::createRxRing(core::ChannelId ch, RxRingConfig cfg,
                     RxHandler handler)
{
    auto id = static_cast<unsigned>(rings_.size());
    rings_.push_back(std::make_unique<RxRing>());
    RxRing &r = *rings_.back();
    r.id = id;
    r.cfg = cfg;
    r.desc.resize(cfg.size);
    r.bitmap.assign(cfg.bmSize, 0);
    r.rxHandler = std::move(handler);
    ringChannel_.push_back(ch);
    // Rings are heap-allocated and live as long as the NIC, so their
    // Stats fields are stable registration targets.
    std::string pfx = "ring" + std::to_string(id);
    obs_.counter(pfx + ".delivered", &r.stats.delivered);
    obs_.counter(pfx + ".stored_direct", &r.stats.storedDirect);
    obs_.counter(pfx + ".rnpfs", &r.stats.rnpfs);
    obs_.counter(pfx + ".to_backup", &r.stats.toBackup);
    obs_.counter(pfx + ".dropped", &r.stats.dropped);
    obs_.counter(pfx + ".resolved", &r.stats.resolved);
    return id;
}

void
EthNic::postRxBuffer(unsigned ring, mem::VirtAddr buf, std::size_t len)
{
    RxRing &r = *rings_[ring];
    assert(r.postableSlots() > 0 && "rx ring over-posted");
    RxDescriptor &d = r.slot(r.tail);
    d.buf = buf;
    d.len = len;
    d.filled = false;
    ++r.tail;
    if (r.tailAdvanceHook)
        r.tailAdvanceHook();
}

unsigned
EthNic::createTxQueue(core::ChannelId ch)
{
    auto id = static_cast<unsigned>(txQueues_.size());
    txQueues_.push_back(std::make_unique<TxQueue>());
    txQueues_.back()->channel = ch;
    return id;
}

void
EthNic::send(unsigned txq, unsigned dst_ring, mem::VirtAddr src,
             std::size_t len, sim::PoolRef payload)
{
    TxQueue &t = *txQueues_[txq];
    TxJob job;
    job.frame.dstRing = dst_ring;
    job.frame.bytes = len;
    job.frame.payload = std::move(payload);
    job.src = src;
    t.q.push_back(std::move(job));
    pumpTx(txq);
}

void
EthNic::pumpTx(unsigned txq)
{
    TxQueue &t = *txQueues_[txq];
    if (t.faultPending || t.q.empty())
        return;
    assert(peer_ != nullptr && (txLink_ != nullptr || fabric_ != nullptr) &&
           "NIC not connected");

    TxJob &job = t.q.front();

    // Send-side NPF: the NIC's DMA read of the IOuser buffer faults.
    // Local data: stall this queue until resolution (§4 principles
    // apply to Ethernet transmit too).
    if (!npfc_.dmaAccess(t.channel, job.src, job.frame.bytes,
                         /*write=*/false)) {
        ++stats_.txNpfs;
        obs::tracer().instant(obs::Track::Nic, "npf", "tx.npf");
        t.faultPending = true;
        npfc_.raiseNpf(t.channel, job.src, job.frame.bytes,
                       /*write=*/false,
                       [this, txq] {
                           txQueues_[txq]->faultPending = false;
                           pumpTx(txq);
                       });
        return;
    }

    Frame f = std::move(job.frame);
    t.q.pop_front();
    ++stats_.framesSent;
    EthNic *peer = peer_;
    std::size_t wire_bytes = f.bytes;
    // Per-frame delivery rides the event queue's inline delegate
    // storage: the capture is a peer pointer and the Frame.
    auto deliver = [peer, f = std::move(f)]() mutable {
        peer->receive(std::move(f));
    };
    if (fabric_ != nullptr)
        fabric_->send(fabricSelf_, fabricPeer_, wire_bytes,
                      std::move(deliver));
    else
        txLink_->send(wire_bytes, std::move(deliver));

    if (!t.q.empty() && !t.pumpScheduled) {
        t.pumpScheduled = true;
        sim::Time next = fabric_ != nullptr
                             ? fabric_->txEta(fabricSelf_)
                             : txLink_->busyUntil();
        eq_.schedule(next, [this, txq] {
            txQueues_[txq]->pumpScheduled = false;
            pumpTx(txq);
        }, "eth.tx_pump");
    }
}

void
EthNic::receive(Frame f)
{
    ++stats_.framesReceived;
    if (fault::FaultInjector *fi = fault::FaultInjector::active()) {
        if (auto d = fi->decide(fault::Site::EthRx)) {
            if (d->action == fault::Action::Corrupt) {
                // Bad FCS: the MAC counts and discards the frame.
                ++stats_.rxCorrupt;
                return;
            }
            if (d->action == fault::Action::Stall) {
                // RX pipeline hiccup: the frame sits in the MAC FIFO
                // before ring dispatch (seq is assigned at dispatch,
                // so ring ordering invariants hold).
                ++stats_.rxStalls;
                eq_.scheduleAfter(d->delay,
                                  [this, f = std::move(f)]() mutable {
                                      dispatchRx(std::move(f));
                                  }, "fault.eth_rx_stall");
                return;
            }
        }
    }
    dispatchRx(std::move(f));
}

void
EthNic::dispatchRx(Frame f)
{
    if (f.dstRing >= rings_.size()) {
        ++stats_.unroutable;
        return;
    }
    f.seq = rxSeq_++;
    recvToRing(*rings_[f.dstRing], std::move(f));
}

void
EthNic::recvToRing(RxRing &r, Frame f)
{
    // Fig. 6 recv(): try the IOuser ring at head + head_offset.
    std::uint64_t idx = r.head + r.headOffset;
    core::ChannelId ch = ringChannel_[r.id];

    bool has_descriptor = idx < r.tail;
    bool present = false;
    bool synthetic_fault = false;
    RxDescriptor *d = nullptr;

    if (has_descriptor) {
        d = &r.slot(idx);
        std::size_t dma_len = std::min(f.bytes, d->len);
        present = npfc_.checkDma(ch, d->buf, dma_len).ok;
        if (present && r.cfg.syntheticRnpfProb > 0.0 &&
            rng_.bernoulli(r.cfg.syntheticRnpfProb)) {
            present = false;
            synthetic_fault = true;
        }
    }

    // The provider's bound (Fig. 6 bm_size) limits the whole pending
    // window, including packets stored directly behind an unresolved
    // rNPF: beyond it, bitmap indices would alias, so the NIC drops.
    // (The paper's pseudo-code checks only the backup path; bounding
    // both is required for bitmap correctness.)
    if (r.cfg.policy == RxFaultPolicy::BackupRing &&
        r.headOffset >= r.cfg.bmSize) {
        ++r.stats.dropped;
        return;
    }

    if (has_descriptor && present) {
        if (npfc_.dmaAccess(ch, d->buf, std::min(f.bytes, d->len),
                            /*write=*/true)) {
            // Store directly in the IOuser ring.
            d->frame = std::move(f);
            d->filled = true;
            ++r.stats.storedDirect;
            if (r.headOffset != 0) {
                // Earlier rNPFs unresolved: count it, but completion
                // must wait (ordering, Fig. 5).
                ++r.headOffset;
            } else {
                ++r.head;
                raiseUserIsr(r);
            }
            return;
        }
        // Injected rNPF at DMA time on a resident page: take the
        // synthetic-resolution path (the backing page is mapped, so
        // raiseNpf would be a no-op; only the latency is modeled).
        present = false;
        synthetic_fault = true;
    }

    bool fault = has_descriptor; // absent descriptor is overflow, not NPF
    if (fault)
        ++r.stats.rnpfs;

    // §3 pre-faulting optimization: warm the buffers of upcoming
    // descriptors that will likely be referenced soon.
    if (fault && !synthetic_fault && r.cfg.prefaultAhead > 0) {
        for (unsigned k = 1; k <= r.cfg.prefaultAhead; ++k) {
            std::uint64_t ahead = idx + k;
            if (ahead >= r.tail)
                break;
            RxDescriptor &da = r.slot(ahead);
            if (!npfc_.checkDma(ch, da.buf, da.len).ok) {
                npfc_.raiseNpf(ch, da.buf, da.len, /*write=*/true, [] {});
            }
        }
    }

    switch (r.cfg.policy) {
      case RxFaultPolicy::Pin:
      case RxFaultPolicy::Drop:
        ++r.stats.dropped;
        if (fault && !synthetic_fault) {
            // The NPF is still raised and resolved — only the packet
            // is lost. This is what warms the ring up, one drop at a
            // time (the cold-ring problem, §5).
            npfc_.raiseNpf(ch, d->buf, d->len, /*write=*/true, [] {});
        }
        return;

      case RxFaultPolicy::BackupRing: {
        BackupEntry e;
        e.ringId = r.id;
        e.idx = idx;
        e.bitIndex = r.bmIndex + r.headOffset;
        e.frame = std::move(f);
        e.synthetic = synthetic_fault;
        e.syntheticMajor = r.cfg.syntheticMajor;
        // One flow per rNPF journey: park -> isr -> resolve -> copy
        // -> merge-back (Fig. 5 steps 1-4).
        e.obsFlow = obs::tracer().beginFlow("rnpf", "rnpf");
        obs::FlowId flow = e.obsFlow;
        obs::tracer().instant(obs::Track::Nic, "rnpf", "rnpf.parked",
                              flow);
        if (!backup_->store(std::move(e))) {
            ++r.stats.dropped; // backup ring itself is full
            obs::tracer().instant(obs::Track::Nic, "rnpf",
                                  "rnpf.overflow_drop", flow);
            obs::tracer().endFlow(flow, "rnpf", "rnpf");
            return;
        }
        // Head-of-line blocking starts with the first parked slot:
        // every in-order frame behind it now waits on rNPF
        // resolution. Host-global, so it goes on the root lane.
        if (r.headOffset == 0)
            obs::attributor().blockBegin(obs::attributor().rootLane(),
                                         obs::Phase::NpfDriver);
        r.bit(r.bmIndex + r.headOffset) = 1;
        ++r.headOffset;
        ++r.stats.toBackup;
        return;
      }
    }
}

void
EthNic::resolveRnpf(unsigned ring, std::uint64_t bit_index)
{
    RxRing &r = *rings_[ring];
    r.bit(bit_index) = 0;
    ++r.stats.resolved;
    bool advanced = false;
    while (r.headOffset > 0 && r.bit(r.bmIndex) == 0) {
        --r.headOffset;
        ++r.head;
        ++r.bmIndex;
        advanced = true;
    }
    if (advanced && r.headOffset == 0)
        obs::attributor().blockEnd(obs::attributor().rootLane(),
                                   obs::Phase::NpfDriver);
    if (advanced)
        raiseUserIsr(r);
}

void
EthNic::raiseUserIsr(RxRing &r)
{
    if (r.interruptPending)
        return; // coalesced
    r.interruptPending = true;
    eq_.scheduleAfter(kEthNic.interruptLatency, [this, id = r.id] {
        RxRing &ring = *rings_[id];
        ring.interruptPending = false;
        deliverToUser(ring);
    }, "eth.user_isr");
}

void
EthNic::deliverToUser(RxRing &r)
{
    while (r.userHead < r.head) {
        RxDescriptor &d = r.slot(r.userHead);
        assert(d.filled && "completion boundary passed unfilled slot");
        Frame f = std::move(d.frame);
        d.filled = false;
        ++r.userHead;
        ++r.stats.delivered;
        if (r.rxHandler)
            r.rxHandler(f);
    }
}

} // namespace npf::eth
