#include "tcp/endpoint.hh"

#include <cassert>

#include "sim/thread_owned.hh"

namespace npf::tcp {

sim::Pool<Segment> &
segmentPool()
{
    // Outlives all frames; freed only by an exiting shard worker.
    static thread_local auto *pool =
        sim::newThreadOwned<sim::Pool<Segment>>("tcp::segmentPool");
    return *pool;
}

Endpoint::Endpoint(sim::EventQueue &eq, eth::EthNic &nic,
                   mem::AddressSpace &as, core::ChannelId ch,
                   eth::RxRingConfig ring_cfg, unsigned peer_ring,
                   EndpointConfig cfg)
    : eq_(eq), nic_(nic), as_(as), ch_(ch), cfg_(cfg),
      peerRing_(peer_ring), ringSize_(ring_cfg.size)
{
    if (cfg_.pinRxBuffers)
        ring_cfg.policy = eth::RxFaultPolicy::Pin;

    ringId_ = nic_.createRxRing(
        ch_, ring_cfg, [this](const eth::Frame &f) { handleFrame(f); });
    txq_ = nic_.createTxQueue(ch_);

    // Ring buffers live in IOuser memory: nothing is pinned unless
    // the baseline configuration asks for it.
    rxRegion_ = as_.allocRegion(ringSize_ * cfg_.rxBufBytes, "rx-ring");
    txScratch_ = as_.allocRegion(mem::kPageSize, "tx-scratch");

    if (cfg_.pinRxBuffers) {
        mem::AccessResult pin =
            as_.pinRange(rxRegion_, ringSize_ * cfg_.rxBufBytes);
        assert(pin.ok && "failed to pin rx buffers");
        (void)pin;
        as_.pinRange(txScratch_, mem::kPageSize);
        nic_.npfc().prefault(ch_, rxRegion_, ringSize_ * cfg_.rxBufBytes,
                             /*write=*/true);
        nic_.npfc().prefault(ch_, txScratch_, mem::kPageSize,
                             /*write=*/true);
    } else if (cfg_.prefaultRxBuffers) {
        nic_.npfc().prefault(ch_, rxRegion_, ringSize_ * cfg_.rxBufBytes,
                             /*write=*/true);
        nic_.npfc().prefault(ch_, txScratch_, mem::kPageSize,
                             /*write=*/true);
    }

    for (std::size_t i = 0; i < ringSize_; ++i) {
        nic_.postRxBuffer(ringId_, rxRegion_ + i * cfg_.rxBufBytes,
                          cfg_.rxBufBytes);
    }
}

TcpConnection &
Endpoint::connection(std::uint32_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) {
        auto conn = std::make_unique<TcpConnection>(
            eq_, conn_id,
            [this](const Segment &seg, mem::VirtAddr src) {
                sendSegment(seg, src);
            },
            cfg_.tcp);
        it = conns_.emplace(conn_id, std::move(conn)).first;
    }
    return *it->second;
}

void
Endpoint::handleFrame(const eth::Frame &f)
{
    const Segment *seg = f.payload.as<const Segment>();
    if (seg == nullptr)
        return;
    // lwIP-style: the stack processes the segment out of the ring
    // buffer and immediately reposts the buffer (same address), so a
    // warmed-up ring stays warm.
    connection(seg->connId).receiveSegment(*seg);
    eth::RxRing &r = nic_.ring(ringId_);
    if (r.postableSlots() > 0) {
        std::uint64_t idx = r.tail % ringSize_;
        nic_.postRxBuffer(ringId_, rxRegion_ + idx * cfg_.rxBufBytes,
                          cfg_.rxBufBytes);
    }
}

void
Endpoint::sendSegment(const Segment &seg, mem::VirtAddr src)
{
    // Slab-allocated segment metadata: the frame's PoolRef releases
    // the slot wherever the packet's journey ends (delivery, drop,
    // corruption — see eth/frame.hh), so steady-state traffic runs
    // without touching the heap.
    mem::VirtAddr dma_src = src != 0 ? src : txScratch_;
    nic_.send(txq_, peerRing_, dma_src, seg.len + kTcpIpHeaderBytes,
              segmentPool().acquire(seg));
}

} // namespace npf::tcp
