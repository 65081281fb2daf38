#include "app/kv_rpc.hh"

#include <algorithm>

#include "obs/attribution.hh"

namespace npf::app {

KvRcServer::KvRcServer(sim::EventQueue &eq, KvStore &store,
                       HostModel &host, mem::AddressSpace &as,
                       KvRpcConfig cfg)
    : eq_(eq), store_(store), host_(host), as_(as), cfg_(cfg)
{
    scratchBytes_ = std::max<std::size_t>(cfg_.missReplyBytes, 64);
    if (cfg_.copyValues)
        scratchBytes_ =
            std::max(scratchBytes_, cfg_.valueBytes + 48);
    scratch_ = as_.allocRegion(scratchBytes_, "kvrpc-scratch");
    as_.touch(scratch_, scratchBytes_, true);
    as_.pinRange(scratch_, scratchBytes_);
}

void
KvRcServer::addSession(ib::QueuePair &qp, KvRpcRequestQueue requests,
                       KvRpcResponseQueue responses)
{
    auto s = std::make_unique<Session>();
    s->qp = &qp;
    s->requests = std::move(requests);
    s->responses = std::move(responses);
    std::size_t bytes = std::size_t(cfg_.recvSlots) * cfg_.requestBytes;
    s->recvRegion = as_.allocRegion(bytes, "kvrpc-recv");
    // Request buffers are per-packet control memory: warm, pinned and
    // IOMMU-mapped up front, like the rx rings. The interesting
    // (value) memory is not — GET responses DMA-read it cold.
    as_.touch(s->recvRegion, bytes, true);
    as_.pinRange(s->recvRegion, bytes);
    qp.controller().prefault(qp.channel(), s->recvRegion, bytes, true);
    qp.controller().prefault(qp.channel(), scratch_, scratchBytes_,
                             false);

    // Attribution lanes: one lane per session shared by both QP
    // directions (server-side faults land in the client's window),
    // parented on one lane for the shared server core.
    obs::Attributor &at = obs::attributor();
    if (at.enabled()) {
        if (attrLane_ < 0)
            attrLane_ = at.openLane("kvrc.server");
        int lane = at.openLane("kvrc.session", attrLane_);
        qp.setAttrLane(lane);
        if (qp.peer() != nullptr)
            qp.peer()->setAttrLane(lane);
    }

    Session *raw = s.get();
    qp.onCompletion([this, raw](const ib::Completion &c) {
        if (c.isRecv) {
            handleRequest(*raw);
            return;
        }
        if (raw->inflight.empty())
            return;
        // Send completed: the DMA read is over, so a per-IO
        // registration discipline unmaps the value extent now.
        PendingDma d = raw->inflight.front();
        raw->inflight.pop_front();
        if (reg_ != nullptr && d.len != 0) {
            sim::Time t = reg_->afterDma(d.addr, d.len);
            busyUntil_ = std::max(eq_.now(), busyUntil_) + t;
            obs::attributor().charge(attrLane_, obs::Phase::Server, t);
        }
    });
    for (unsigned i = 0; i < cfg_.recvSlots; ++i)
        postRecv(*raw);
    sessions_.push_back(std::move(s));
}

void
KvRcServer::postRecv(Session &s)
{
    ib::WorkRequest wr;
    wr.local = s.recvRegion +
               (s.nextRecv++ % cfg_.recvSlots) * cfg_.requestBytes;
    wr.len = cfg_.requestBytes;
    s.qp->postRecv(wr);
}

void
KvRcServer::handleRequest(Session &s)
{
    if (s.requests->empty())
        return; // stray completion (e.g. after an error rewind)
    KvRpcRequest req = s.requests->front();
    s.requests->pop_front();
    postRecv(s); // keep the WQE pool full

    // SETs write the value with the CPU; GETs only look it up — the
    // response Send below DMA-reads the item memory directly.
    KvResult kr = req.isSet ? store_.set(req.key)
                            : store_.getRef(req.key);
    sim::Time cpu = host_.scaled(cfg_.baseOpCpu) + kr.memCost;

    // The copy discipline stages the value into the pinned scratch
    // region; otherwise the response DMA-reads item memory directly,
    // and a per-IO discipline maps that extent before the post.
    bool hit_payload = !req.isSet && kr.hit;
    bool value_send = hit_payload && !cfg_.copyValues;
    if (hit_payload && cfg_.copyValues)
        cpu += sim::fromSeconds(double(cfg_.valueBytes + 48) /
                                cfg_.copyBwBytesPerSec);
    if (reg_ != nullptr && value_send)
        cpu += reg_->beforeDma(kr.valueAddr, cfg_.valueBytes + 48);

    sim::Time start = std::max(eq_.now(), busyUntil_);
    sim::Time done = start + cpu;
    busyUntil_ = done;
    ++ops_;
    // Shared-resource charge: CPU occupancy on the server-core lane.
    // Every session folds this in, so a request's window shows all
    // server work that delayed it, not just its own service time.
    obs::attributor().charge(attrLane_, obs::Phase::Server, cpu);

    Session *raw = &s;
    eq_.schedule(done, [this, raw, req, kr, hit_payload, value_send] {
        raw->responses->push_back(KvRpcResponse{req.serial,
                                                !req.isSet && kr.hit});
        ib::WorkRequest wr;
        wr.op = ib::Opcode::Send;
        wr.local = value_send ? kr.valueAddr : scratch_;
        wr.len =
            hit_payload ? cfg_.valueBytes + 48 : cfg_.missReplyBytes;
        if (reg_ != nullptr)
            raw->inflight.push_back(PendingDma{
                value_send ? kr.valueAddr : mem::VirtAddr(0),
                value_send ? cfg_.valueBytes + 48 : std::size_t(0)});
        raw->qp->postSend(wr);
    }, "app.kv_rpc.reply");
}

// --- KvRcTransport ----------------------------------------------------

KvRcTransport::KvRcTransport(ib::QueuePair &qp, mem::AddressSpace &as,
                             KvRpcRequestQueue requests,
                             KvRpcResponseQueue responses,
                             KvRpcConfig cfg)
    : qp_(qp), requests_(std::move(requests)),
      responses_(std::move(responses)), cfg_(cfg)
{
    // The client is the standard stack: everything pinned, mapped and
    // prefaulted — the interesting faults are all the server's.
    std::size_t sendBytes = std::size_t(kSlots) * cfg_.requestBytes;
    sendRegion_ = as.allocRegion(sendBytes, "kvrpc-send");
    as.touch(sendRegion_, sendBytes, true);
    as.pinRange(sendRegion_, sendBytes);
    qp_.controller().prefault(qp_.channel(), sendRegion_, sendBytes, false);

    std::size_t slot = cfg_.valueBytes + 48;
    std::size_t recvBytes = std::size_t(kSlots) * slot;
    recvRegion_ = as.allocRegion(recvBytes, "kvrpc-resp");
    as.touch(recvRegion_, recvBytes, true);
    as.pinRange(recvRegion_, recvBytes);
    qp_.controller().prefault(qp_.channel(), recvRegion_, recvBytes, true);
}

void
KvRcTransport::connect(load::ClientPool &pool)
{
    pool_ = &pool;
    ep_ = pool.addEndpoint(*this, qp_.attrLane());
    qp_.onCompletion([this](const ib::Completion &c) {
        if (!c.isRecv || responses_->empty())
            return;
        KvRpcResponse r = responses_->front();
        responses_->pop_front();
        pool_->complete(ep_, r.serial, r.hit);
    });
}

void
KvRcTransport::issue(std::uint32_t serial, std::uint64_t key,
                     bool is_set, std::size_t bytes)
{
    requests_->push_back(KvRpcRequest{serial, key, is_set});

    ib::WorkRequest recv;
    recv.local =
        recvRegion_ + (nextRecv_++ % kSlots) * (cfg_.valueBytes + 48);
    recv.len = cfg_.valueBytes + 48;
    qp_.postRecv(recv);

    ib::WorkRequest send;
    send.op = ib::Opcode::Send;
    send.local = sendRegion_ + (nextSend_++ % kSlots) * cfg_.requestBytes;
    send.len = bytes != 0 ? bytes : cfg_.requestBytes;
    qp_.postSend(send);
}

} // namespace npf::app
