#include "tcp/tcp_connection.hh"

#include <algorithm>
#include <cassert>

#include "fault/fault.hh"
#include "obs/attribution.hh"
#include "obs/flow_tracer.hh"

namespace npf::tcp {

TcpConnection::TcpConnection(sim::EventQueue &eq, std::uint32_t conn_id,
                             SegmentSink sink, TcpConfig cfg)
    : eq_(eq), connId_(conn_id), sink_(std::move(sink)), cfg_(cfg),
      rto_(cfg.initialRto)
{
    cwnd_ = std::min(cfg_.initialCwndSegs * cfg_.mss,
                     cfg_.maxWindowBytes);
    ssthresh_ = cfg_.maxWindowBytes;

    obs_.init("tcp.conn");
    obs_.counter("segments_sent", &stats_.segmentsSent);
    obs_.counter("segments_received", &stats_.segmentsReceived);
    obs_.counter("bytes_sent", &stats_.bytesSent);
    obs_.counter("bytes_delivered", &stats_.bytesDelivered);
    obs_.counter("retransmissions", &stats_.retransmissions);
    obs_.counter("timeouts", &stats_.timeouts);
    obs_.counter("fast_retransmits", &stats_.fastRetransmits);
    obs_.counter("dup_acks_received", &stats_.dupAcksReceived);
    obs_.counter("syn_retries", &stats_.synRetries);
    obs_.gauge("cwnd", [this] { return double(cwnd_); });
}

void
TcpConnection::connect(std::function<void(bool)> on_connected)
{
    assert(state_ == State::Closed);
    onConnected_ = std::move(on_connected);
    state_ = State::SynSent;
    sendSyn();
}

void
TcpConnection::listen()
{
    assert(state_ == State::Closed);
    state_ = State::SynReceived; // waiting; refined on first SYN
}

void
TcpConnection::sendSyn()
{
    Segment s;
    s.connId = connId_;
    s.syn = true;
    ++stats_.segmentsSent;
    synSentAt_ = eq_.now();
    sink_(s, 0);
    // SYN retransmission with exponential backoff (1s, 2s, 4s, ...),
    // clamped to maxRto — an unclamped shift overflows (and is UB past
    // the word size) once synRetries_ grows large.
    sim::Time delay = cfg_.initialRto;
    for (unsigned i = 0; i < synRetries_ && delay < cfg_.maxRto; ++i)
        delay *= 2;
    delay = std::min(delay, cfg_.maxRto);
    rtoTimer_ = eq_.scheduleAfter(delay, [this] {
        rtoTimer_ = sim::kInvalidEvent;
        if (state_ != State::SynSent)
            return;
        if (++synRetries_ > cfg_.maxSynRetries) {
            fail();
            if (onConnected_)
                onConnected_(false);
            return;
        }
        ++stats_.synRetries;
        sendSyn();
    }, "tcp.syn_rto");
}

void
TcpConnection::sendSynAck()
{
    Segment s;
    s.connId = connId_;
    s.synAck = true;
    s.ack = rcvNxt_;
    ++stats_.segmentsSent;
    sink_(s, 0);
}

void
TcpConnection::send(std::size_t bytes, mem::VirtAddr src)
{
    if (bytes == 0 || state_ == State::Failed)
        return;
    std::uint64_t start = sndNxt_ + unsent_;
    if (!records_.empty()) {
        SendRecord &back = records_.back();
        if (src != 0 && back.src != 0 &&
            back.seqStart + back.len == start &&
            back.src + back.len == src) {
            back.len += bytes; // coalesce contiguous buffers
            unsent_ += bytes;
            pumpSend();
            return;
        }
    }
    records_.push_back(SendRecord{start, bytes, src});
    unsent_ += bytes;
    pumpSend();
}

mem::VirtAddr
TcpConnection::srcFor(std::uint64_t seq, std::size_t &len_inout) const
{
    for (const SendRecord &r : records_) {
        if (seq < r.seqStart || seq >= r.seqStart + r.len)
            continue;
        std::uint64_t off = seq - r.seqStart;
        len_inout = std::min<std::size_t>(len_inout, r.len - off);
        return r.src == 0 ? 0 : r.src + off;
    }
    return 0;
}

void
TcpConnection::pumpSend()
{
    if (state_ != State::Established)
        return;
    while (unsent_ > 0) {
        std::size_t in_flight = bytesInFlight();
        if (in_flight + cfg_.mss > cwnd_ && in_flight > 0)
            break;
        std::size_t len = std::min(unsent_, cfg_.mss);
        emitData(sndNxt_, len);
        sndNxt_ += len;
        sndMax_ = std::max(sndMax_, sndNxt_);
        unsent_ -= len;
    }
    if (bytesInFlight() > 0)
        armRto();
}

void
TcpConnection::emitData(std::uint64_t seq, std::size_t len)
{
    std::size_t seg_len = len;
    mem::VirtAddr src = srcFor(seq, seg_len);

    Segment s;
    s.connId = connId_;
    s.seq = seq;
    s.len = seg_len;
    s.ack = rcvNxt_;
    ++stats_.segmentsSent;
    stats_.bytesSent += seg_len;

    if (!rttTiming_ && seq == sndMax_) {
        // Karn: only time segments on first transmission.
        rttTiming_ = true;
        rttSeq_ = seq + seg_len;
        rttSentAt_ = eq_.now();
    }
    sink_(s, src);

    if (seg_len < len) {
        // Source record boundary split the segment; emit the rest.
        emitData(seq + seg_len, len - seg_len);
    }
}

void
TcpConnection::emitAck()
{
    Segment s;
    s.connId = connId_;
    s.seq = sndNxt_;
    s.ack = rcvNxt_;
    ++stats_.segmentsSent;
    sink_(s, 0);
}

void
TcpConnection::receiveSegment(const Segment &seg)
{
    if (fault::FaultInjector *fi = fault::FaultInjector::active()) {
        if (auto d = fi->decide(fault::Site::TcpRx)) {
            switch (d->action) {
              case fault::Action::Drop:
                // Lost on arrival: RTO / fast retransmit recover.
                return;
              case fault::Action::Duplicate: {
                // The copy is processed after the original, same tick.
                auto redo = [this, seg] { processSegment(seg); };
                static_assert(sim::Delegate::fitsInline<decltype(redo)>,
                              "tcp segment closure must stay inline");
                eq_.scheduleAfter(0, std::move(redo), "fault.tcp_dup");
                break;
              }
              case fault::Action::Reorder:
              case fault::Action::Delay:
                // Processed late; segments behind it overtake.
                eq_.scheduleAfter(d->delay,
                                  [this, seg] { processSegment(seg); },
                                  "fault.tcp_delay");
                return;
              default:
                break;
            }
        }
    }
    processSegment(seg);
}

void
TcpConnection::processSegment(const Segment &seg)
{
    if (state_ == State::Failed || state_ == State::Closed)
        return;
    ++stats_.segmentsReceived;

    // --- handshake ---
    if (seg.syn) {
        // Passive side: (re)send SYN-ACK.
        rcvNxt_ = 0;
        sendSynAck();
        return;
    }
    if (seg.synAck) {
        if (state_ == State::SynSent) {
            state_ = State::Established;
            cancelRto();
            // Seed the RTT estimator from the handshake (as Linux
            // does); skip if the SYN was retransmitted (Karn).
            if (synRetries_ == 0)
                updateRtt(eq_.now() - synSentAt_);
            synRetries_ = 0;
            emitAck();
            if (onConnected_)
                onConnected_(true);
            pumpSend();
        } else {
            emitAck(); // duplicate SYN-ACK: re-ack
        }
        return;
    }
    if (state_ == State::SynReceived) {
        // First ACK (or data) completes the passive open.
        state_ = State::Established;
    }
    if (state_ == State::SynSent)
        return; // stray segment before our SYN-ACK

    handleAckField(seg);

    if (seg.len == 0)
        return;

    // --- receiver path ---
    std::uint64_t start = seg.seq;
    std::uint64_t end = seg.seq + seg.len;
    if (end <= rcvNxt_) {
        emitAck(); // stale duplicate
        return;
    }
    if (start > rcvNxt_) {
        // Hole: remember and send a duplicate ACK.
        auto [it, inserted] = oooSegments_.try_emplace(start, end);
        if (!inserted)
            it->second = std::max(it->second, end);
        emitAck();
        return;
    }
    // In order (possibly overlapping the left edge).
    std::uint64_t old_rcv_nxt = rcvNxt_;
    rcvNxt_ = end;
    // Pull any now-contiguous out-of-order data.
    for (auto it = oooSegments_.begin(); it != oooSegments_.end();) {
        if (it->first > rcvNxt_)
            break;
        rcvNxt_ = std::max(rcvNxt_, it->second);
        it = oooSegments_.erase(it);
    }
    std::size_t newly = static_cast<std::size_t>(rcvNxt_ - old_rcv_nxt);
    stats_.bytesDelivered += newly;
    emitAck();
    if (deliverHandler_)
        deliverHandler_(newly);
}

void
TcpConnection::handleAckField(const Segment &seg)
{
    if (seg.ack > sndMax_)
        return; // acks data never sent: nonsensical
    if (seg.ack > sndUna_) {
        std::size_t acked = static_cast<std::size_t>(seg.ack - sndUna_);
        sndUna_ = seg.ack;
        if (seg.ack > sndNxt_) {
            // A go-back-N rewind was overtaken by a cumulative ACK:
            // the bytes we had requeued are in fact received.
            unsent_ -= static_cast<std::size_t>(seg.ack - sndNxt_);
            sndNxt_ = seg.ack;
        }
        dupAcks_ = 0;
        retries_ = 0;
        // Forward progress ends exponential backoff: restore the RTO
        // to the estimator's value (what Linux does on new ACKs).
        if (rttValid_)
            rto_ = std::max(cfg_.minRto, srtt_ + 4 * rttvar_);
        else
            rto_ = cfg_.initialRto;
        rto_ = std::min(rto_, cfg_.maxRto);

        // RTT sample (Karn-compliant).
        if (rttTiming_ && sndUna_ >= rttSeq_) {
            rttTiming_ = false;
            updateRtt(eq_.now() - rttSentAt_);
        }

        // Congestion window growth.
        if (cwnd_ < ssthresh_) {
            cwnd_ += std::min(acked, cfg_.mss); // slow start
        } else {
            cwnd_ += std::max<std::size_t>(
                1, cfg_.mss * cfg_.mss / std::max<std::size_t>(cwnd_, 1));
        }
        cwnd_ = std::min(cwnd_, cfg_.maxWindowBytes);

        // Drop fully acked send records.
        while (!records_.empty() &&
               records_.front().seqStart + records_.front().len <=
                   sndUna_) {
            records_.pop_front();
        }

        cancelRto();
        if (bytesInFlight() > 0)
            armRto();
        pumpSend();
        return;
    }

    // Duplicate ACK. Data-bearing segments count too: with
    // bidirectional traffic the peer's dup-acks ride piggybacked on
    // its own data stream, and a pure-ACK-only test starves fast
    // retransmit (pure ACKs are themselves unreliable).
    if (seg.ack == sndUna_ && bytesInFlight() > 0) {
        ++stats_.dupAcksReceived;
        if (++dupAcks_ == cfg_.dupAckThreshold) {
            ++stats_.fastRetransmits;
            obs::tracer().instant(obs::Track::Transport, "tcp",
                                  "tcp.fast_retransmit");
            ++stats_.retransmissions;
            ssthresh_ = std::max<std::size_t>(bytesInFlight() / 2,
                                              2 * cfg_.mss);
            cwnd_ = ssthresh_ + 3 * cfg_.mss;
            rttTiming_ = false;
            std::size_t len =
                std::min<std::size_t>(cfg_.mss,
                                      static_cast<std::size_t>(
                                          sndMax_ - sndUna_));
            emitData(sndUna_, len);
            cancelRto();
            armRto();
        }
    }
}

void
TcpConnection::armRto()
{
    if (rtoTimer_ != sim::kInvalidEvent)
        return;
    // Armed and cancelled around nearly every ACK: the classic
    // timer-restart pattern the event engine's O(1) cancel exists
    // for. Keep the closure inline so re-arming never allocates.
    auto fire = [this] {
        rtoTimer_ = sim::kInvalidEvent;
        onRtoFire();
    };
    static_assert(sim::Delegate::fitsInline<decltype(fire)>,
                  "tcp rto timer closure must stay inline");
    rtoArmedAt_ = eq_.now();
    rtoTimer_ = eq_.scheduleAfter(rto_, std::move(fire), "tcp.rto");
}

void
TcpConnection::cancelRto()
{
    if (rtoTimer_ != sim::kInvalidEvent) {
        eq_.cancel(rtoTimer_);
        rtoTimer_ = sim::kInvalidEvent;
    }
}

void
TcpConnection::onRtoFire()
{
    if (state_ != State::Established || bytesInFlight() == 0)
        return;
    ++stats_.timeouts;
    ++stats_.retransmissions;
    obs::tracer().instant(obs::Track::Transport, "tcp", "tcp.rto_fire");
    // The silence since arming was a retransmit stall: progress would
    // have restarted the timer via cancelRto()/armRto().
    obs::attributor().charge(attrLane_, obs::Phase::Retransmit,
                             eq_.now() - rtoArmedAt_);
    if (++retries_ > cfg_.maxDataRetries) {
        fail();
        return;
    }
    // Classic RTO reaction: collapse to one segment, halve ssthresh,
    // back the timer off exponentially, go-back-N.
    ssthresh_ = std::max<std::size_t>(bytesInFlight() / 2, 2 * cfg_.mss);
    cwnd_ = cfg_.mss;
    rto_ = std::min(rto_ * 2, cfg_.maxRto);
    rttTiming_ = false;
    std::size_t resend =
        std::min<std::size_t>(cfg_.mss,
                              static_cast<std::size_t>(sndMax_ - sndUna_));
    // Everything past sndUna_ counts as lost; it will be re-sent as
    // the window reopens.
    unsent_ += static_cast<std::size_t>(sndNxt_ - sndUna_);
    sndNxt_ = sndUna_;
    emitData(sndNxt_, resend);
    sndNxt_ += resend;
    unsent_ -= resend;
    armRto();
}

void
TcpConnection::updateRtt(sim::Time sample)
{
    if (!rttValid_) {
        srtt_ = sample;
        rttvar_ = sample / 2;
        rttValid_ = true;
    } else {
        sim::Time err = srtt_ > sample ? srtt_ - sample : sample - srtt_;
        rttvar_ = (3 * rttvar_ + err) / 4;
        srtt_ = (7 * srtt_ + sample) / 8;
    }
    rto_ = std::max(cfg_.minRto, srtt_ + 4 * rttvar_);
    rto_ = std::min(rto_, cfg_.maxRto);
}

void
TcpConnection::fail()
{
    state_ = State::Failed;
    cancelRto();
    if (failureHandler_)
        failureHandler_();
}

} // namespace npf::tcp
