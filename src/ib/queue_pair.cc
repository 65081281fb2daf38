#include "ib/queue_pair.hh"

#include <cassert>
#include <type_traits>

#include "fault/fault.hh"
#include "obs/attribution.hh"
#include "sim/log.hh"

namespace npf::ib {

QueuePair::QueuePair(sim::EventQueue &eq, net::Fabric &fabric, unsigned node,
                     core::NpfController &npfc, core::ChannelId channel,
                     QpConfig cfg, std::uint64_t seed)
    : eq_(eq), fabric_(fabric), node_(node), npfc_(npfc), channel_(channel),
      cfg_(cfg), rng_(seed)
{
    obs_.init("ib.qp");
    obs_.counter("data_packets_sent", &stats_.dataPacketsSent);
    obs_.counter("data_packets_delivered", &stats_.dataPacketsDelivered);
    obs_.counter("data_packets_dropped", &stats_.dataPacketsDropped);
    obs_.counter("retransmitted", &stats_.retransmitted);
    obs_.counter("rnr_nacks_sent", &stats_.rnrNacksSent);
    obs_.counter("rnr_nacks_received", &stats_.rnrNacksReceived);
    obs_.counter("nak_seq_sent", &stats_.nakSeqSent);
    obs_.counter("read_rnr_sent", &stats_.readRnrSent);
    obs_.counter("read_rnr_received", &stats_.readRnrReceived);
    obs_.counter("rewinds", &stats_.rewinds);
    obs_.counter("send_npfs", &stats_.sendNpfs);
    obs_.counter("recv_npfs", &stats_.recvNpfs);
    obs_.counter("messages_delivered", &stats_.messagesDelivered);
    obs_.counter("bytes_delivered", &stats_.bytesDelivered);
    obs_.counter("cnps_sent", &stats_.cnpsSent);
    obs_.counter("cnps_received", &stats_.cnpsReceived);
    if (cfg_.dcqcn)
        dcqcn_.init(fabric_.uplink(node_).config().bandwidthBitsPerSec);
}

void
QueuePair::postSend(WorkRequest wr)
{
    assert(wr.len > 0 || wr.op == Opcode::RdmaRead);
    sendQueue_.push_back(wr);
    pumpSend();
}

void
QueuePair::postRecv(WorkRequest wr)
{
    recvQueue_.push_back(wr);
}

// --- sender -----------------------------------------------------------

void
QueuePair::pumpSend()
{
    if (error_)
        return;
    while (!sendQueue_.empty() && inflight_.size() < kQp.maxOutstandingWrs) {
        WorkRequest &wr = sendQueue_.front();
        if (wr.op == Opcode::RdmaRead && readInit_.active)
            break; // one outstanding read per QP

        InflightWr ifw;
        ifw.wr = wr;
        ifw.firstPsn = nextPsn_;
        if (wr.op == Opcode::RdmaRead) {
            // A read request occupies one PSN; responses flow on a
            // separate read stream.
            ifw.lastPsn = ifw.firstPsn;
            readInit_.active = true;
            readInit_.wr = wr;
            readInit_.readId = nextReadId_++;
            readInit_.requestPsn = ifw.firstPsn;
            readInit_.expectedPsn = 0;
            readInit_.limitPsn =
                (wr.len + cfg_.pathMtu - 1) / cfg_.pathMtu;
            readInit_.faultPending = false;
            armReadTimer();
        } else {
            std::size_t pkts = (wr.len + cfg_.pathMtu - 1) / cfg_.pathMtu;
            ifw.lastPsn = ifw.firstPsn + pkts - 1;
        }
        nextPsn_ = ifw.lastPsn + 1;
        inflight_.push_back(ifw);
        sendQueue_.pop_front();
    }
    if (!txScheduled_ && !senderPaused_ && !localFaultPending_ &&
        txPsn_ < nextPsn_) {
        txScheduled_ = true;
        eq_.scheduleAfter(0, [this] {
            txScheduled_ = false;
            transmitOne();
        }, "ib.tx");
    }
}

std::optional<QueuePair::Packet>
QueuePair::buildPacketAt(std::uint64_t psn)
{
    for (const InflightWr &ifw : inflight_) {
        if (psn < ifw.firstPsn || psn > ifw.lastPsn)
            continue;
        Packet pkt;
        pkt.psn = psn;
        pkt.op = ifw.wr.op;
        pkt.wrId = ifw.wr.wrId;
        if (ifw.wr.op == Opcode::RdmaRead) {
            pkt.type = Packet::Type::ReadRequest;
            pkt.remoteAddr = ifw.wr.remote;
            pkt.msgLen = ifw.wr.len;
            pkt.readId = readInit_.readId;
            pkt.bytes = 0;
            return pkt;
        }
        pkt.type = Packet::Type::Data;
        pkt.offset = std::size_t(psn - ifw.firstPsn) * cfg_.pathMtu;
        pkt.bytes = std::min(cfg_.pathMtu, ifw.wr.len - pkt.offset);
        pkt.msgLen = ifw.wr.len;
        pkt.firstOfMsg = psn == ifw.firstPsn;
        pkt.lastOfMsg = psn == ifw.lastPsn;
        pkt.remoteAddr = ifw.wr.remote;
        return pkt;
    }
    return std::nullopt;
}

void
QueuePair::connectRemote(unsigned peer_node, std::uint32_t my_kind,
                         std::uint32_t peer_kind)
{
    assert(peer_ == nullptr && "already pointer-connected");
    static_assert(std::is_trivially_copyable_v<Packet>,
                  "Packet must serialize into a WireRecord");
    remote_ = true;
    peerNode_ = peer_node;
    txKind_ = peer_kind;
    fabric_.bindRx(node_, my_kind, [this](const net::WireRecord &rec) {
        handlePacket(rec.load<Packet>());
    });
}

void
QueuePair::sendPacket(const Packet &pkt, std::size_t bytes,
                      unsigned priority)
{
    if (remote_) {
        net::WireRecord rec;
        rec.src = node_;
        rec.dst = peerNode_;
        rec.kind = txKind_;
        rec.bytes = static_cast<std::uint32_t>(bytes);
        rec.store(pkt);
        fabric_.sendRecord(rec);
        return;
    }
    QueuePair *peer = peer_;
    // The per-packet delivery closure is the hottest allocation site in
    // the whole simulator; pin it to the event queue's inline delegate
    // storage so growing Packet past the small-buffer capacity fails to
    // compile instead of silently costing a heap round trip per packet.
    auto deliver = [peer, pkt] { peer->handlePacket(pkt); };
    static_assert(sim::Delegate::fitsInline<decltype(deliver)>,
                  "ib delivery closure must stay inline");
    fabric_.send(node_, peer->node_, bytes, priority, flowLabel(),
                 std::move(deliver));
}

void
QueuePair::transmitOne()
{
    if (error_ || senderPaused_ || localFaultPending_)
        return;
    if (txPsn_ >= nextPsn_)
        return;
    assert((peer_ != nullptr || remote_) && "QP not connected");

    auto maybe_pkt = buildPacketAt(txPsn_);
    assert(maybe_pkt.has_value() && "txPsn_ outside inflight window");
    Packet pkt = *maybe_pkt;

    // Sender-side NPF: the NIC reads the local buffer via DMA. Local
    // data, so the QP simply stalls until the fault resolves (§4).
    if (pkt.type == Packet::Type::Data) {
        const InflightWr *owner = nullptr;
        for (const InflightWr &ifw : inflight_) {
            if (txPsn_ >= ifw.firstPsn && txPsn_ <= ifw.lastPsn) {
                owner = &ifw;
                break;
            }
        }
        assert(owner != nullptr);
        mem::VirtAddr src = owner->wr.local + pkt.offset;
        if (!npfc_.dmaAccess(channel_, src, pkt.bytes, /*write=*/false)) {
            ++stats_.sendNpfs;
            obs::tracer().instant(obs::Track::Transport, "npf",
                                  "ib.send_npf");
            localFaultPending_ = true;
            obs::attributor().blockBegin(attrLane_,
                                         obs::Phase::NpfDriver);
            // Batched pre-fault: resolve the whole WR's buffer.
            npfc_.raiseNpf(channel_, owner->wr.local, owner->wr.len,
                           /*write=*/false,
                           [this] {
                               obs::attributor().blockEnd(
                                   attrLane_, obs::Phase::NpfDriver);
                               localFaultPending_ = false;
                               pumpSend();
                           });
            return;
        }
    }

    if (txPsn_ < highestTxPsn_)
        ++stats_.retransmitted;
    else
        highestTxPsn_ = txPsn_ + 1;
    ++stats_.dataPacketsSent;

    sendPacket(pkt, pkt.bytes, /*priority=*/0);
    ++txPsn_;

    armRetransmitTimer();
    if (txPsn_ < nextPsn_ && !txScheduled_) {
        txScheduled_ = true;
        eq_.schedule(nextTxTime(pkt.bytes), [this] {
            txScheduled_ = false;
            transmitOne();
        }, "ib.tx");
    }
}

std::uint32_t
QueuePair::flowLabel() const
{
    // One ECMP flow per QP direction: all of a QP's packets take the
    // same path (ordering), distinct QPs spread across paths.
    return (std::uint32_t(node_) << 16) |
           std::uint32_t(peer_ != nullptr || remote_ ? peerNode_ : 0);
}

sim::Time
QueuePair::nextTxTime(std::size_t bytes)
{
    sim::Time next = fabric_.txEta(node_);
    if (dcqcn_.limiting()) {
        // Token clock: each departure books its serialization slot at
        // the current rate; the gate is the later of that and the
        // wire. Carries credit debt across packets so bursts average
        // to the target rate instead of resetting it.
        rateNextTx_ = std::max(rateNextTx_, eq_.now()) +
                      dcqcn_.sendGap(bytes);
        next = std::max(next, rateNextTx_);
    }
    return next;
}

void
QueuePair::armRetransmitTimer()
{
    if (error_ || retransmitTimer_ != sim::kInvalidEvent)
        return;
    ackedAtArm_ = ackedPsn_;
    retransmitTimer_ =
        eq_.scheduleAfter(kQp.retransmitTimeout, [this] {
            retransmitTimer_ = sim::kInvalidEvent;
            if (ackedPsn_ >= nextPsn_)
                return; // everything acked; nothing to do
            if (senderPaused_ || localFaultPending_) {
                armRetransmitTimer();
                return;
            }
            if (ackedPsn_ == ackedAtArm_ && txPsn_ > ackedPsn_) {
                // No progress: rewind to the oldest unacked PSN. The
                // whole expired timer period was a retransmit stall.
                ++stats_.rewinds;
                obs::tracer().instant(obs::Track::Transport, "ib",
                                      "ib.rto_rewind");
                obs::attributor().charge(attrLane_,
                                         obs::Phase::Retransmit,
                                         kQp.retransmitTimeout);
                txPsn_ = ackedPsn_;
                pumpSend();
            }
            armRetransmitTimer();
        }, "ib.rto");
}

void
QueuePair::handleAck(std::uint64_t ackPsn)
{
    if (ackPsn <= ackedPsn_)
        return;
    ackedPsn_ = ackPsn;
    rnrRetries_ = 0;
    // A cumulative ack covers everything below it, so never transmit
    // below ackedPsn_: a stale RNR NACK may have rewound txPsn_ into
    // the range this ack retires, and those inflight entries are
    // popped right below — buildPacketAt() could no longer cover a
    // lower txPsn_.
    if (txPsn_ < ackedPsn_)
        txPsn_ = ackedPsn_;
    while (!inflight_.empty() && inflight_.front().lastPsn < ackedPsn_) {
        InflightWr done = inflight_.front();
        inflight_.pop_front();
        if (done.wr.op != Opcode::RdmaRead) {
            Completion c;
            c.wrId = done.wr.wrId;
            c.ok = true;
            c.isRecv = false;
            c.bytes = done.wr.len;
            c.at = eq_.now();
            deliverCompletion(c);
        }
        // Reads complete when the response stream finishes.
    }
    pumpSend();
}

void
QueuePair::handleRnrNack(std::uint64_t resumePsn)
{
    ++stats_.rnrNacksReceived;
    if (resumePsn < ackedPsn_) {
        // Stale NACK: a later cumulative ack already retired this
        // PSN (the receiver re-NACKs retries while its fault is
        // pending, and delayed/reordered delivery can land one after
        // the recovery it belongs to). Rewinding would strand txPsn_
        // below ackedPsn_, where the RTO rewind condition never
        // triggers and the WRs are gone: a permanent stall.
        return;
    }
    ++stats_.rewinds;
    ++rnrRetries_;
    obs::tracer().instant(obs::Track::Transport, "rnr", "rnr_nack.recv");
    txPsn_ = resumePsn;
    if (rnrRetries_ > cfg_.rnrRetryLimit) {
        // Fatal QP error: flush every posted WR with an error
        // completion and stop all transmit machinery for good.
        error_ = true;
        for (sim::EventId *timer : {&retransmitTimer_, &readTimer_}) {
            eq_.cancel(*timer);
            *timer = sim::kInvalidEvent;
        }
        auto flush = [this](const WorkRequest &wr) {
            Completion c;
            c.wrId = wr.wrId;
            c.ok = false;
            c.at = eq_.now();
            deliverCompletion(c);
        };
        while (!inflight_.empty()) {
            flush(inflight_.front().wr);
            inflight_.pop_front();
        }
        while (!sendQueue_.empty()) {
            flush(sendQueue_.front());
            sendQueue_.pop_front();
        }
        txPsn_ = nextPsn_;
        return;
    }
    senderPaused_ = true;
    obs::tracer().span(obs::Track::Transport, "rnr", "rnr_pause",
                       eq_.now(), core::kOdp.rnrTimer);
    obs::attributor().blockBegin(attrLane_, obs::Phase::RnrBackoff);
    eq_.scheduleAfter(core::kOdp.rnrTimer, [this] {
        obs::attributor().blockEnd(attrLane_, obs::Phase::RnrBackoff);
        senderPaused_ = false;
        pumpSend();
    }, "ib.rnr_resume");
}

void
QueuePair::sendControl(Packet pkt)
{
    assert(peer_ != nullptr || remote_);
    // Control rides the top class: ACKs, NACKs and CNPs must escape
    // the very congestion (and PFC pauses) they exist to report.
    sendPacket(pkt, kQp.controlBytes, net::kControlPriority);
}

// --- receiver -----------------------------------------------------------

void
QueuePair::handlePacket(Packet pkt)
{
    // DCQCN notification point. The CE mark lives in the fabric's
    // per-delivery rx context, which is only valid right now — before
    // any fault action defers processing — so sample it first.
    if (cfg_.dcqcn && fabric_.rx().ecn &&
        (pkt.type == Packet::Type::Data ||
         pkt.type == Packet::Type::ReadResponse))
        maybeSendCnp();
    if (fault::FaultInjector *fi = fault::FaultInjector::active()) {
        if (auto d = fi->decide(fault::Site::IbRx)) {
            switch (d->action) {
              case fault::Action::Drop:
                // Lost on arrival: PSN sequencing + the retransmit
                // timer recover (rewind to the oldest unacked PSN).
                return;
              case fault::Action::Duplicate:
                // The copy is processed after the original, same tick.
                eq_.scheduleAfter(0, [this, pkt] { processPacket(pkt); },
                                  "fault.ib_dup");
                break;
              case fault::Action::Reorder:
              case fault::Action::Delay:
                // Processed late; packets behind it overtake.
                eq_.scheduleAfter(d->delay,
                                  [this, pkt] { processPacket(pkt); },
                                  "fault.ib_delay");
                return;
              default:
                break;
            }
        }
    }
    processPacket(std::move(pkt));
}

void
QueuePair::processPacket(Packet pkt)
{
    switch (pkt.type) {
      case Packet::Type::Ack:
        handleAck(pkt.ackPsn);
        return;
      case Packet::Type::RnrNack:
        handleRnrNack(pkt.psn);
        return;
      case Packet::Type::NakSeq:
        // Rewind request for the read-response stream.
        if (readResp_.readId == pkt.readId) {
            readResp_.active = true;
            readResp_.nextPsn = pkt.psn;
            pumpReadResponse();
        }
        return;
      case Packet::Type::ReadRnr:
        // Extension (§4 proposal): the faulting initiator suspends
        // us; rewind to its PSN and retry after the RNR timer.
        if (readResp_.readId == pkt.readId) {
            ++stats_.readRnrReceived;
            readResp_.active = true;
            readResp_.paused = true;
            readResp_.nextPsn = pkt.psn;
            obs::attributor().blockBegin(attrLane_,
                                         obs::Phase::RnrBackoff);
            eq_.scheduleAfter(core::kOdp.rnrTimer, [this] {
                obs::attributor().blockEnd(attrLane_,
                                           obs::Phase::RnrBackoff);
                readResp_.paused = false;
                pumpReadResponse();
            }, "ib.read_rnr_resume");
        }
        return;
      case Packet::Type::Cnp:
        dcqcnOnCnp();
        return;
      case Packet::Type::ReadResponse:
        handleReadResponse(pkt);
        return;
      case Packet::Type::Data:
      case Packet::Type::ReadRequest:
        handleData(pkt);
        return;
    }
}

void
QueuePair::maybeSendCnp()
{
    if (eq_.now() < cnpNextAllowed_)
        return; // one CNP per interval, however many marks arrive
    cnpNextAllowed_ = eq_.now() + net::kDcqcn.cnpMinInterval;
    ++stats_.cnpsSent;
    obs::tracer().instant(obs::Track::Transport, "dcqcn", "cnp.sent");
    Packet cnp;
    cnp.type = Packet::Type::Cnp;
    sendControl(cnp);
}

void
QueuePair::dcqcnOnCnp()
{
    ++stats_.cnpsReceived;
    if (!cfg_.dcqcn)
        return;
    dcqcn_.onCnp();
    obs::tracer().instant(obs::Track::Transport, "dcqcn", "cnp.recv");
    armDcqcnTimers();
}

void
QueuePair::armDcqcnTimers()
{
    // Both timers run only while the limiter is active and disarm
    // themselves once it fully recovers, so an idle QP schedules
    // nothing and run-to-empty simulations terminate.
    if (alphaTimer_ == sim::kInvalidEvent)
        alphaTimer_ = eq_.scheduleAfter(net::kDcqcn.alphaTimer, [this] {
            alphaTimer_ = sim::kInvalidEvent;
            if (dcqcn_.decayAlpha())
                armDcqcnTimers();
        }, "ib.dcqcn_alpha");
    if (rateTimer_ == sim::kInvalidEvent)
        rateTimer_ = eq_.scheduleAfter(net::kDcqcn.rateTimer, [this] {
            rateTimer_ = sim::kInvalidEvent;
            bool still = dcqcn_.increase();
            pumpSend();
            if (still)
                armDcqcnTimers();
        }, "ib.dcqcn_rate");
}

void
QueuePair::handleData(const Packet &pkt)
{
    if (pkt.psn < expectedPsn_) {
        // Duplicate of something already received: re-ack.
        maybeAck(/*force=*/true);
        return;
    }
    if (rnpfPending_) {
        // Resolution still in progress: drop, and if this is the
        // sender already retrying the faulting PSN, NACK again so it
        // re-pauses instead of burning its retransmit timeout.
        ++stats_.dataPacketsDropped;
        if (pkt.psn == expectedPsn_) {
            ++stats_.rnrNacksSent;
            Packet nack;
            nack.type = Packet::Type::RnrNack;
            nack.psn = pkt.psn;
            sendControl(nack);
        }
        return;
    }
    if (pkt.psn > expectedPsn_) {
        // Follows a dropped packet; the sender will rewind.
        ++stats_.dataPacketsDropped;
        return;
    }

    if (pkt.type == Packet::Type::ReadRequest) {
        ++expectedPsn_;
        maybeAck(/*force=*/true);
        startRead(pkt);
        return;
    }

    // Establish inbound message state on the first packet.
    if (pkt.firstOfMsg) {
        if (pkt.op == Opcode::Send) {
            if (recvQueue_.empty()) {
                // The classic RNR case: no receive WQE posted.
                ++stats_.rnrNacksSent;
                Packet nack;
                nack.type = Packet::Type::RnrNack;
                nack.psn = pkt.psn;
                sendControl(nack);
                return;
            }
            const WorkRequest &rwr = recvQueue_.front();
            inbound_.base = rwr.local;
            inbound_.wrId = rwr.wrId;
        } else {
            inbound_.base = pkt.remoteAddr;
            inbound_.wrId = 0;
        }
        inbound_.active = true;
        inbound_.op = pkt.op;
        inbound_.len = pkt.msgLen;
        inbound_.received = 0;
    }
    if (!inbound_.active) {
        // Mid-message packet without state (sender rewound past a
        // message boundary); drop and wait for the retransmission.
        ++stats_.dataPacketsDropped;
        return;
    }

    mem::VirtAddr target = inbound_.base + pkt.offset;

    // §6.4 what-if: synthetic rNPF injection.
    if (cfg_.syntheticRnpfProb > 0.0 &&
        rng_.bernoulli(cfg_.syntheticRnpfProb)) {
        ++stats_.recvNpfs;
        ++stats_.dataPacketsDropped;
        rnpfPending_ = true;
        if (cfg_.pauseOnRnpf)
            fabric_.setHostRxPause(node_, true);
        obs::attributor().blockBegin(attrLane_, obs::Phase::NpfDriver);
        ++stats_.rnrNacksSent;
        Packet nack;
        nack.type = Packet::Type::RnrNack;
        nack.psn = pkt.psn;
        sendControl(nack);
        std::size_t pages = mem::pagesCovering(target, pkt.bytes);
        sim::Time lat = npfc_.sampleResolveLatency(channel_, pages,
                                                   cfg_.syntheticMajor);
        eq_.scheduleAfter(lat, [this] {
            obs::attributor().blockEnd(attrLane_, obs::Phase::NpfDriver);
            rnpfPending_ = false;
            if (cfg_.pauseOnRnpf)
                fabric_.setHostRxPause(node_, false);
        }, "ib.synthetic_rnpf");
        return;
    }

    // Real DMA write into the (possibly cold) IOuser buffer.
    if (!npfc_.dmaAccess(channel_, target, pkt.bytes, /*write=*/true)) {
        raiseRnpf(target, inbound_.len - pkt.offset, pkt.psn);
        ++stats_.dataPacketsDropped;
        return;
    }

    ++expectedPsn_;
    ++unackedArrivals_;
    ++stats_.dataPacketsDelivered;
    inbound_.received += pkt.bytes;

    if (pkt.lastOfMsg) {
        inbound_.active = false;
        ++stats_.messagesDelivered;
        stats_.bytesDelivered += inbound_.len;
        if (inbound_.op == Opcode::Send) {
            WorkRequest rwr = recvQueue_.front();
            recvQueue_.pop_front();
            Completion c;
            c.wrId = rwr.wrId;
            c.ok = true;
            c.isRecv = true;
            c.bytes = inbound_.len;
            c.at = eq_.now();
            deliverCompletion(c);
        }
        maybeAck(/*force=*/true);
    } else {
        maybeAck(/*force=*/false);
    }
}

void
QueuePair::raiseRnpf(mem::VirtAddr addr, std::size_t len, std::uint64_t psn)
{
    ++stats_.recvNpfs;
    rnpfPending_ = true;
    if (cfg_.pauseOnRnpf)
        fabric_.setHostRxPause(node_, true);
    obs::attributor().blockBegin(attrLane_, obs::Phase::NpfDriver);
    // One flow per RNR suspension: NACK -> fault resolution -> resume.
    rnpfFlow_ = obs::tracer().beginFlow("rnr", "rnr");
    obs::FlowScope fs(rnpfFlow_);
    obs::tracer().instant(obs::Track::Transport, "rnr", "rnr_nack.sent",
                          rnpfFlow_);
    sim::logf(sim::LogLevel::Debug, eq_.now(),
              "rnr: qp node=%u NACK sent psn=%llu addr=0x%llx len=%zu",
              node_, static_cast<unsigned long long>(psn),
              static_cast<unsigned long long>(addr), len);
    // RC lets the receiver suspend the sender: RNR NACK (§4).
    ++stats_.rnrNacksSent;
    Packet nack;
    nack.type = Packet::Type::RnrNack;
    nack.psn = psn;
    sendControl(nack);
    // Resolve the fault; batched pre-fault covers the rest of the
    // message so one flow suffices in the common case.
    npfc_.raiseNpf(channel_, addr, len, /*write=*/true,
                   [this] {
                       obs::FlowScope fs(rnpfFlow_);
                       sim::logf(sim::LogLevel::Debug, eq_.now(),
                                 "rnr: qp node=%u fault resolved, receiver "
                                 "ready", node_);
                       obs::tracer().instant(obs::Track::Transport, "rnr",
                                             "rnr.resolved", rnpfFlow_);
                       obs::tracer().endFlow(rnpfFlow_, "rnr", "rnr");
                       rnpfFlow_ = 0;
                       obs::attributor().blockEnd(attrLane_,
                                                  obs::Phase::NpfDriver);
                       rnpfPending_ = false;
                       if (cfg_.pauseOnRnpf)
                           fabric_.setHostRxPause(node_, false);
                   });
}

void
QueuePair::maybeAck(bool force)
{
    if (!force && unackedArrivals_ < kQp.ackEvery)
        return;
    unackedArrivals_ = 0;
    Packet ack;
    ack.type = Packet::Type::Ack;
    ack.ackPsn = expectedPsn_;
    sendControl(ack);
}

void
QueuePair::deliverCompletion(Completion c)
{
    if (completionHandler_)
        completionHandler_(c);
}

// --- RDMA read ------------------------------------------------------------

void
QueuePair::startRead(const Packet &req)
{
    readResp_.active = true;
    readResp_.base = req.remoteAddr;
    readResp_.len = req.msgLen;
    readResp_.readId = req.readId;
    readResp_.nextPsn = 0;
    readResp_.limitPsn = (req.msgLen + cfg_.pathMtu - 1) / cfg_.pathMtu;
    readResp_.paused = false;
    pumpReadResponse();
}

void
QueuePair::pumpReadResponse()
{
    if (!readResp_.active || readResp_.paused)
        return;
    if (readResp_.nextPsn >= readResp_.limitPsn) {
        readResp_.active = false;
        return;
    }

    std::size_t offset = std::size_t(readResp_.nextPsn) * cfg_.pathMtu;
    std::size_t bytes = std::min(cfg_.pathMtu, readResp_.len - offset);
    mem::VirtAddr src = readResp_.base + offset;

    // Responder-side fault on the read source: local data, so the
    // responder just waits for resolution before streaming (§4).
    if (!npfc_.dmaAccess(channel_, src, bytes, /*write=*/false)) {
        ++stats_.sendNpfs;
        readResp_.paused = true;
        obs::attributor().blockBegin(attrLane_, obs::Phase::NpfDriver);
        npfc_.raiseNpf(channel_, readResp_.base, readResp_.len,
                       /*write=*/false,
                       [this] {
                           obs::attributor().blockEnd(
                               attrLane_, obs::Phase::NpfDriver);
                           readResp_.paused = false;
                           pumpReadResponse();
                       });
        return;
    }

    Packet pkt;
    pkt.type = Packet::Type::ReadResponse;
    pkt.psn = readResp_.nextPsn;
    pkt.readId = readResp_.readId;
    pkt.offset = offset;
    pkt.bytes = bytes;
    pkt.msgLen = readResp_.len;
    pkt.lastOfMsg = readResp_.nextPsn + 1 == readResp_.limitPsn;

    ++stats_.dataPacketsSent;
    sendPacket(pkt, bytes, /*priority=*/0);
    ++readResp_.nextPsn;

    if (!readRespScheduled_) {
        readRespScheduled_ = true;
        eq_.schedule(nextTxTime(bytes), [this] {
            readRespScheduled_ = false;
            pumpReadResponse();
        }, "ib.read_pump");
    }
}

void
QueuePair::handleReadResponse(const Packet &pkt)
{
    ReadInitiatorState &ri = readInit_;
    if (!ri.active || pkt.readId != ri.readId) {
        ++stats_.dataPacketsDropped;
        return;
    }
    if (ri.faultPending || pkt.psn != ri.expectedPsn) {
        ++stats_.dataPacketsDropped;
        // Extension: a retry of the faulting PSN while resolution is
        // still pending earns another suspension, mirroring the
        // Send/Write RNR path.
        if (cfg_.readRnrExtension && ri.faultPending &&
            pkt.psn == ri.expectedPsn) {
            ++stats_.readRnrSent;
            Packet rnr;
            rnr.type = Packet::Type::ReadRnr;
            rnr.psn = ri.expectedPsn;
            rnr.readId = ri.readId;
            sendControl(rnr);
        }
        return;
    }

    mem::VirtAddr target = ri.wr.local + pkt.offset;

    if (cfg_.syntheticRnpfProb > 0.0 &&
        rng_.bernoulli(cfg_.syntheticRnpfProb)) {
        ++stats_.recvNpfs;
        ++stats_.dataPacketsDropped;
        ri.faultPending = true;
        obs::attributor().blockBegin(attrLane_, obs::Phase::NpfDriver);
        std::size_t pages = mem::pagesCovering(target, pkt.bytes);
        sim::Time lat = npfc_.sampleResolveLatency(channel_, pages,
                                                   cfg_.syntheticMajor);
        eq_.scheduleAfter(lat, [this] {
            obs::attributor().blockEnd(attrLane_, obs::Phase::NpfDriver);
            readInit_.faultPending = false;
            sendNakSeq();
        }, "ib.synthetic_rnpf");
        return;
    }

    if (!npfc_.dmaAccess(channel_, target, pkt.bytes, /*write=*/true)) {
        ++stats_.recvNpfs;
        ++stats_.dataPacketsDropped;
        obs::tracer().instant(obs::Track::Transport, "npf",
                              "ib.read_fault");
        ri.faultPending = true;
        obs::attributor().blockBegin(attrLane_, obs::Phase::NpfDriver);
        if (cfg_.readRnrExtension) {
            // Extension (§4 proposal): suspend the responder right
            // away, exactly like the Send/Write RNR path.
            ++stats_.readRnrSent;
            Packet rnr;
            rnr.type = Packet::Type::ReadRnr;
            rnr.psn = ri.expectedPsn;
            rnr.readId = ri.readId;
            sendControl(rnr);
            npfc_.raiseNpf(channel_, ri.wr.local, ri.wr.len,
                           /*write=*/true,
                           [this] {
                               obs::attributor().blockEnd(
                                   attrLane_, obs::Phase::NpfDriver);
                               readInit_.faultPending = false;
                           });
            return;
        }
        // Standard RC provides no RNR for read responses: drop
        // everything and ask for a rewind only once the fault is
        // resolved (§4).
        npfc_.raiseNpf(channel_, ri.wr.local, ri.wr.len, /*write=*/true,
                       [this] {
                           obs::attributor().blockEnd(
                               attrLane_, obs::Phase::NpfDriver);
                           readInit_.faultPending = false;
                           obs::tracer().instant(obs::Track::Transport,
                                                 "ib", "read.nak_seq");
                           sendNakSeq();
                       });
        return;
    }

    ++ri.expectedPsn;
    ++stats_.dataPacketsDelivered;
    if (ri.expectedPsn == ri.limitPsn) {
        ri.active = false;
        eq_.cancel(readTimer_);
        readTimer_ = sim::kInvalidEvent;
        ++stats_.messagesDelivered;
        stats_.bytesDelivered += ri.wr.len;
        Completion c;
        c.wrId = ri.wr.wrId;
        c.ok = true;
        c.isRecv = false;
        c.bytes = ri.wr.len;
        c.at = eq_.now();
        deliverCompletion(c);
        pumpSend();
    }
}

void
QueuePair::sendNakSeq()
{
    ++stats_.nakSeqSent;
    Packet nak;
    nak.type = Packet::Type::NakSeq;
    nak.psn = readInit_.expectedPsn;
    nak.readId = readInit_.readId;
    sendControl(nak);
}

void
QueuePair::armReadTimer()
{
    if (error_ || readTimer_ != sim::kInvalidEvent)
        return;
    readPsnAtArm_ = readInit_.expectedPsn;
    readTimer_ = eq_.scheduleAfter(kQp.retransmitTimeout, [this] {
        readTimer_ = sim::kInvalidEvent;
        const ReadInitiatorState &ri = readInit_;
        if (!ri.active)
            return;
        // Until the request is acked the send RTO covers it; while a
        // local fault resolves, its resolution asks for the rewind.
        if (ri.requestPsn < ackedPsn_ && !ri.faultPending &&
            ri.expectedPsn == readPsnAtArm_) {
            obs::tracer().instant(obs::Track::Transport, "ib",
                                  "ib.read_rto");
            obs::attributor().charge(attrLane_, obs::Phase::Retransmit,
                                     kQp.retransmitTimeout);
            sendNakSeq();
        }
        armReadTimer();
    }, "ib.read_rto");
}

} // namespace npf::ib
