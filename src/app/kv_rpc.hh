/**
 * @file
 * KV RPC over InfiniBand RC: a zero-copy key-value server and the
 * matching load::Transport, so the workload subsystem can drive the
 * KvStore over real QueuePairs (with real NPFs) instead of TCP.
 *
 * Protocol: the client posts a small Send per request; the server
 * answers with one Send whose DMA *source is the item memory itself*
 * on a GET hit (KvStore::getRef — the CPU never touches the value),
 * so values paged out under memory pressure resolve through the full
 * network-page-fault flow on the send side. Request metadata (key,
 * op, serial) travels out-of-band through shared descriptor deques,
 * the same idiom the storage target uses for IoRequest — app-level
 * cookies do not cross the simulated IB wire.
 *
 * RC Sends complete and deliver in order, so descriptor order always
 * matches wire order and the pool's FIFO matching holds.
 */

#ifndef NPF_APP_KV_RPC_HH
#define NPF_APP_KV_RPC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "app/host_model.hh"
#include "app/kv_store.hh"
#include "core/registration.hh"
#include "ib/queue_pair.hh"
#include "load/client_pool.hh"
#include "sim/ring_deque.hh"

namespace npf::app {

/** Pre-posted receive WQEs per server session. */
inline constexpr unsigned kKvRpcRecvSlots = 64;

/** Server parameters. */
struct KvRpcConfig
{
    std::size_t valueBytes = 1024;
    /** Per-request CPU; lower than the TCP path (kernel-bypass verbs,
     *  no stack traversal, no value copy). */
    sim::Time baseOpCpu = sim::fromMicroseconds(2.0);
    std::size_t requestBytes = 64;
    std::size_t missReplyBytes = 64;
    /** memcpy bandwidth when the registration copies values. */
    double copyBwBytesPerSec = 12e9;
};

/** Out-of-band request descriptor (client -> server). */
struct KvRpcRequest
{
    std::uint32_t serial = 0;
    std::uint64_t key = 0;
    bool isSet = false;
};

/** Out-of-band response descriptor (server -> client). */
struct KvRpcResponse
{
    std::uint32_t serial = 0;
    bool hit = false;
};

// Flat FIFO rings: std::deque churns allocator blocks as descriptors
// cycle through; RingDeque reaches its high-water mark once and then
// recycles in place (the alloc-gate benches count on this).
using KvRpcRequestQueue = std::shared_ptr<sim::RingDeque<KvRpcRequest>>;
using KvRpcResponseQueue = std::shared_ptr<sim::RingDeque<KvRpcResponse>>;

/**
 * RC key-value server. One instance serializes all sessions on a
 * single worker core (busy-until, like MemcachedServer); each
 * session pairs a connected server-side QP with the descriptor
 * queues shared with its client transport.
 */
class KvRcServer
{
  public:
    /**
     * @param reg the value memory's discipline. NPF (the default)
     *   posts GET-hit responses straight from item memory and faults
     *   on access; a copying one stages values into the pinned
     *   scratch region; a perIo() one brackets each value extent with
     *   beforeDma()/afterDma().
     */
    KvRcServer(sim::EventQueue &eq, KvStore &store, HostModel &host,
               mem::AddressSpace &as, KvRpcConfig cfg = {},
               core::Registration reg = {});

    /** Register one session (QP already connected). */
    void addSession(ib::QueuePair &qp, KvRpcRequestQueue requests,
                    KvRpcResponseQueue responses);

    std::uint64_t opsServed() const { return ops_; }
    const core::Registration &registration() const { return reg_; }

  private:
    struct Session
    {
        ib::QueuePair *qp = nullptr;
        KvRpcRequestQueue requests;
        KvRpcResponseQueue responses;
        mem::VirtAddr recvRegion = 0;
        unsigned nextRecv = 0;
        /// Sends in flight under a perIo() registration.
        core::InflightDma inflight;
    };

    void postRecv(Session &s);
    void handleRequest(Session &s);

    sim::EventQueue &eq_;
    KvStore &store_;
    HostModel &host_;
    mem::AddressSpace &as_;
    KvRpcConfig cfg_;
    core::Registration reg_;
    mem::VirtAddr scratch_ = 0; ///< miss/ack reply source (warm)
    std::size_t scratchBytes_ = 0;
    sim::Time busyUntil_ = 0;
    std::uint64_t ops_ = 0;
    int attrLane_ = -1; ///< server-core lane (shared by all sessions)
    std::vector<std::unique_ptr<Session>> sessions_;
};

/**
 * load::Transport over one client-side QP. Request buffers and
 * response receive buffers are cycled slot pools in the client's
 * (pinned, pre-touched) address space — the client host is the
 * standard stack; the interesting faults are the server's.
 */
class KvRcTransport final : public load::Transport
{
  public:
    KvRcTransport(ib::QueuePair &qp, mem::AddressSpace &as,
                  KvRpcRequestQueue requests,
                  KvRpcResponseQueue responses, KvRpcConfig cfg = {});

    /** Register as a pool endpoint and install the completion hook. */
    void connect(load::ClientPool &pool);

    void issue(std::uint32_t serial, std::uint64_t key, bool is_set,
               std::size_t bytes) override;

  private:
    static constexpr unsigned kSlots = 256;

    ib::QueuePair &qp_;
    KvRpcRequestQueue requests_;
    KvRpcResponseQueue responses_;
    KvRpcConfig cfg_;
    mem::VirtAddr sendRegion_ = 0;
    mem::VirtAddr recvRegion_ = 0;
    unsigned nextSend_ = 0;
    unsigned nextRecv_ = 0;
    load::ClientPool *pool_ = nullptr;
    unsigned ep_ = 0;
};

} // namespace npf::app

#endif // NPF_APP_KV_RPC_HH
