/**
 * @file
 * IOuser-side TCP endpoint over a direct Ethernet channel: the role
 * lwIP plays in the paper's running example (§5). Owns the receive
 * ring buffers (allocated, not pinned — so a cold ring genuinely
 * faults), demultiplexes inbound segments to connections, and feeds
 * outbound segments to a NIC transmit queue.
 */

#ifndef NPF_TCP_ENDPOINT_HH
#define NPF_TCP_ENDPOINT_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "eth/eth_nic.hh"
#include "mem/address_space.hh"
#include "sim/ring_deque.hh"
#include "tcp/tcp_connection.hh"

namespace npf::tcp {

/** Endpoint parameters. */
struct EndpointConfig
{
    std::size_t rxBufBytes = 2048; ///< per receive descriptor
    TcpConfig tcp;
    /** Pre-fault and pin the ring buffers at startup (the paper's
     *  "pin" baseline). Off = demand-paged (cold ring at start). */
    bool pinRxBuffers = false;
    /** Pre-fault (but not pin) buffers, e.g. for what-if runs that
     *  must eliminate the cold-ring effect. */
    bool prefaultRxBuffers = false;
};

/**
 * A user-level TCP stack bound to one NIC receive ring and one
 * transmit queue.
 */
class Endpoint
{
  public:
    /**
     * @param as IOuser address space the ring buffers live in.
     * @param ch NpfController channel of this IOchannel.
     * @param ring_cfg receive-ring geometry and fault policy.
     * @param peer_ring ring id on the connected NIC to address.
     */
    Endpoint(sim::EventQueue &eq, eth::EthNic &nic, mem::AddressSpace &as,
             core::ChannelId ch, eth::RxRingConfig ring_cfg,
             unsigned peer_ring, EndpointConfig cfg = {});

    /** Create (or fetch) the connection with id @p conn_id. */
    TcpConnection &connection(std::uint32_t conn_id);

    unsigned ringId() const { return ringId_; }
    eth::EthNic &nic() { return nic_; }
    mem::AddressSpace &space() { return as_; }

    /** Total faults the ring has taken (for reporting). */
    const eth::RxRing::Stats &ringStats() const
    {
        return nic_.ring(ringId_).stats;
    }

  private:
    void handleFrame(const eth::Frame &f);
    void sendSegment(const Segment &seg, mem::VirtAddr src);

    sim::EventQueue &eq_;
    eth::EthNic &nic_;
    mem::AddressSpace &as_;
    core::ChannelId ch_;
    EndpointConfig cfg_;
    unsigned ringId_ = 0;
    unsigned txq_ = 0;
    unsigned peerRing_;
    mem::VirtAddr rxRegion_ = 0;
    mem::VirtAddr txScratch_ = 0;
    std::size_t ringSize_;
    std::unordered_map<std::uint32_t, std::unique_ptr<TcpConnection>>
        conns_;
};

/**
 * Message framing over one direction of a TCP connection pair.
 *
 * Payload content is not simulated, so framing metadata travels
 * out-of-band between the two simulated endpoints: the sender pushes
 * a message boundary, the receiver pops it when the in-order byte
 * stream crosses it. Semantics match length-prefixed framing on a
 * real stack.
 */
class MessageStream
{
  public:
    using MessageHandler =
        std::function<void(std::uint64_t cookie, std::size_t len)>;

    /**
     * @param sender the transmitting endpoint's connection.
     * @param receiver the remote connection delivering the stream.
     */
    MessageStream(TcpConnection &sender, TcpConnection &receiver)
        : sender_(sender)
    {
        receiver.onDeliver([this](std::size_t bytes) {
            delivered_ += bytes;
            while (!boundaries_.empty() &&
                   boundaries_.front().boundary <= delivered_) {
                Boundary b = boundaries_.front();
                boundaries_.pop_front();
                if (handler_)
                    handler_(b.cookie, b.len);
            }
        });
    }

    /** Send one framed message of @p len payload bytes. */
    void
    sendMessage(std::size_t len, mem::VirtAddr src = 0,
                std::uint64_t cookie = 0)
    {
        sent_ += len;
        boundaries_.push_back(Boundary{sent_, len, cookie});
        sender_.send(len, src);
    }

    void onMessage(MessageHandler h) { handler_ = std::move(h); }

    std::uint64_t messagesPending() const { return boundaries_.size(); }

  private:
    struct Boundary
    {
        std::uint64_t boundary;
        std::size_t len;
        std::uint64_t cookie;
    };

    TcpConnection &sender_;
    MessageHandler handler_;
    sim::RingDeque<Boundary> boundaries_;
    std::uint64_t sent_ = 0;
    std::uint64_t delivered_ = 0;
};

} // namespace npf::tcp

#endif // NPF_TCP_ENDPOINT_HH
