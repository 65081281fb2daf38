#include "app/storage.hh"

#include <cassert>

namespace npf::app {

namespace {

constexpr std::size_t kMsgBytes = 64;     ///< request/response size
constexpr std::size_t kPoolBytes = 1ull << 30; ///< tgt's comm pool (§6.1)

} // namespace

StorageTarget::StorageTarget(sim::EventQueue &eq, mem::AddressSpace &as,
                             StorageConfig cfg, core::Registration reg)
    : eq_(eq), as_(as), reg_(std::move(reg)), disk_(kStorage.disk)
{
    cache_ = std::make_unique<mem::PageCache>(
        as_, cfg.lunBytes, [this](std::uint64_t, std::size_t bytes) {
            return disk_.read(bytes);
        });

    // tgt statically allocates a 1 GB communication buffer pool;
    // the baseline pins it, the NPF build leaves it demand-paged.
    poolBase_ = as_.allocRegion(kPoolBytes, "comm-pool");
    if (reg_.copies()) {
        mem::AccessResult res = as_.pinRange(poolBase_, kPoolBytes);
        if (!res.ok) {
            // "the pinned configuration fails to load the tgt
            // service" (Fig. 8(a)) — not enough pinnable memory.
            ok_ = false;
        }
    }
}

void
StorageTarget::addSession(
    ib::QueuePair &qp, std::shared_ptr<std::deque<IoRequest>> request_queue)
{
    auto s = std::make_unique<Session>();
    s->qp = &qp;
    s->requests = std::move(request_queue);
    std::size_t per_session = kStorage.chunkBytes * kStorage.chunksPerSession;
    std::size_t idx = sessions_.size();
    assert((idx + 1) * per_session <= kPoolBytes &&
           "comm pool exhausted: too many sessions");
    s->chunkRegion = poolBase_ + idx * per_session;

    // Post receive WQEs for inbound requests.
    s->recvRegion = as_.allocRegion(kMsgBytes * 64, "req-bufs");
    if (reg_.perIo()) {
        // Per-IO registration modes map the control ring up front
        // (the NIC must never fault — there is no NPF/RNR path).
        as_.touch(s->recvRegion, kMsgBytes * 64, true);
        qp.controller().prefault(qp.channel(), s->recvRegion,
                                 kMsgBytes * 64, true);
    }
    for (unsigned i = 0; i < 64; ++i) {
        ib::WorkRequest r;
        r.local = s->recvRegion + (i % 64) * kMsgBytes;
        r.len = kMsgBytes;
        r.wrId = s->nextRecvId++;
        qp.postRecv(r);
    }

    Session *sp = s.get();
    qp.onCompletion([this, sp](const ib::Completion &c) {
        if (c.isRecv) {
            if (c.ok)
                handleRequest(*sp);
            return;
        }
        // Send completed: a per-IO discipline unmaps the extent now.
        if (sim::Time t = sp->inflight.complete(reg_))
            busyUntil_ = std::max(eq_.now(), busyUntil_) + t;
    });
    sessions_.push_back(std::move(s));
}

void
StorageTarget::handleRequest(Session &s)
{
    assert(!s.requests->empty() &&
           "request descriptor channel out of sync");
    IoRequest req = s.requests->front();
    s.requests->pop_front();

    mem::VirtAddr chunk =
        s.chunkRegion + s.nextChunk * kStorage.chunkBytes;
    s.nextChunk = (s.nextChunk + 1) % kStorage.chunksPerSession;

    // CPU + page-cache (possibly disk) + staging copy into the
    // communication chunk. Only the first req.len bytes of the
    // 512 KB chunk are ever touched — with NPFs the tail never gets
    // physical memory (Fig. 8(b)).
    sim::Time cost = kStorage.perIoCpu;
    cost += cache_->access(req.offset, req.len);
    mem::AccessResult tr = as_.touch(chunk, req.len, /*write=*/true);
    cost += tr.cost;

    // Per-IO registration: map the data chunk and the response-header
    // extent before posting (NP-RDMA style dynamic DMA mapping).
    cost += reg_.beforeDma(chunk, req.len);
    cost += reg_.beforeDma(s.chunkRegion, kMsgBytes);

    sim::Time start = std::max(eq_.now(), busyUntil_);
    sim::Time done = start + cost;
    busyUntil_ = done;
    ++ios_;

    eq_.schedule(done, [this, &s, chunk, req] {
        // Data lands via RDMA Write, then a response Send; RC
        // ordering guarantees the data precedes the response.
        ib::WorkRequest w;
        w.op = ib::Opcode::RdmaWrite;
        w.local = chunk;
        w.remote = req.initiatorBuf;
        w.len = req.len;
        w.wrId = req.id;
        if (reg_.perIo()) {
            s.inflight.push(chunk, req.len);
            s.inflight.push(s.chunkRegion, kMsgBytes);
        }
        s.qp->postSend(w);

        ib::WorkRequest rsp;
        rsp.op = ib::Opcode::Send;
        rsp.local = s.chunkRegion; // tiny header from the first chunk
        rsp.len = kMsgBytes;
        rsp.wrId = req.id;
        s.qp->postSend(rsp);

        // Replenish the consumed receive WQE.
        ib::WorkRequest r;
        r.local = s.recvRegion + (s.nextRecvId % 64) * kMsgBytes;
        r.len = kMsgBytes;
        r.wrId = s.nextRecvId++;
        s.qp->postRecv(r);
    }, "app.storage.reply");
}

FioClient::FioClient(sim::EventQueue &eq, ib::QueuePair &qp,
                     mem::AddressSpace &as,
                     std::shared_ptr<std::deque<IoRequest>> request_queue,
                     std::size_t block_bytes, unsigned queue_depth,
                     std::size_t lun_bytes, std::uint64_t seed)
    : eq_(eq), qp_(qp), requests_(std::move(request_queue)),
      blockBytes_(block_bytes), queueDepth_(queue_depth),
      lunBytes_(lun_bytes), rng_(seed)
{
    // The initiator runs an unmodified kernel stack: its buffers are
    // pinned and registered (IOMMU-mapped) the classic way.
    bufRegion_ = as.allocRegion(blockBytes_ * queueDepth_, "fio-bufs");
    mem::AccessResult res = as.pinRange(bufRegion_,
                                        blockBytes_ * queueDepth_);
    assert(res.ok && "initiator buffer pinning failed");
    (void)res;
    respRegion_ = as.allocRegion(kMsgBytes * queueDepth_, "fio-rsp");
    as.pinRange(respRegion_, kMsgBytes * queueDepth_);
    qp_.controller().prefault(qp_.channel(), bufRegion_,
                              blockBytes_ * queueDepth_, true);
    qp_.controller().prefault(qp_.channel(), respRegion_,
                              kMsgBytes * queueDepth_, true);

    qp_.onCompletion([this](const ib::Completion &c) {
        if (!c.isRecv || !c.ok)
            return;
        ++completed_;
        bytesRead_ += blockBytes_;
        if (rec_ && !submitTimes_.empty()) {
            sim::Time sent = submitTimes_.front();
            submitTimes_.pop_front();
            rec_->recordLatency(recClass_, sent, sent, eq_.now());
        }
        submit();
    });
}

void
FioClient::start()
{
    for (unsigned i = 0; i < queueDepth_; ++i) {
        ib::WorkRequest r;
        r.local = respRegion_ + i * kMsgBytes;
        r.len = kMsgBytes;
        r.wrId = i;
        qp_.postRecv(r);
    }
    for (unsigned i = 0; i < queueDepth_; ++i)
        submit();
}

void
FioClient::submit()
{
    std::uint64_t blocks = lunBytes_ / blockBytes_;
    std::uint64_t block = rng_.uniformInt(0, blocks - 1);

    IoRequest req;
    req.offset = block * blockBytes_;
    req.len = blockBytes_;
    req.initiatorBuf = bufRegion_ + (nextBuf_ % queueDepth_) * blockBytes_;
    nextBuf_ = (nextBuf_ + 1) % queueDepth_;
    req.id = nextId_++;
    requests_->push_back(req);
    if (rec_)
        submitTimes_.push_back(eq_.now());

    ib::WorkRequest s;
    s.op = ib::Opcode::Send;
    s.local = req.initiatorBuf; // header rides in the data buffer
    s.len = kMsgBytes;
    s.wrId = req.id;
    qp_.postSend(s);

    // Re-post a receive WQE for the response that will follow.
    ib::WorkRequest r;
    r.local = respRegion_;
    r.len = kMsgBytes;
    r.wrId = req.id;
    qp_.postRecv(r);
}

} // namespace npf::app
