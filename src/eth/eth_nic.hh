/**
 * @file
 * Ethernet NIC with true backup-ring rNPF support (the hardware the
 * paper's §5 prototype emulates by packet duplication — we simulate
 * the real design: faulting packets are steered to the IOprovider's
 * pinned backup ring, with the metadata the driver needs to merge
 * them back).
 */

#ifndef NPF_ETH_ETH_NIC_HH
#define NPF_ETH_ETH_NIC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/npf_controller.hh"
#include "eth/frame.hh"
#include "eth/rx_ring.hh"
#include "net/link.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/ring_deque.hh"

namespace npf::net {
class Fabric;
}

namespace npf::eth {

class BackupRingManager;

/** Fixed NIC and driver parameters. */
struct EthNicParams
{
    sim::Time interruptLatency = sim::fromMicroseconds(4);
    /** CPU copy bandwidth for merging backup packets (Fig. 5 step 4). */
    double copyBytesPerSec = 8e9;
};

/** Every Ethernet NIC's fixed parameters. */
inline constexpr EthNicParams kEthNic{};

/** NIC-wide configuration. */
struct EthNicConfig
{
    std::size_t backupRingSize = 1024; ///< pinned provider entries
};

/**
 * One Ethernet NIC. Rings are IOchannels: each pairs a hardware
 * receive ring with an NpfController channel (its IOMMU view of the
 * owning IOuser's address space).
 */
class EthNic
{
  public:
    using RxHandler = std::function<void(const Frame &)>;

    struct Stats
    {
        std::uint64_t framesSent = 0;
        std::uint64_t framesReceived = 0;
        std::uint64_t txNpfs = 0;
        std::uint64_t unroutable = 0;
        std::uint64_t rxCorrupt = 0; ///< fault-injected FCS drops
        std::uint64_t rxStalls = 0;  ///< fault-injected RX stalls
    };

    EthNic(sim::EventQueue &eq, core::NpfController &npfc,
           EthNicConfig cfg = {}, std::uint64_t seed = 17);
    ~EthNic();

    EthNic(const EthNic &) = delete;
    EthNic &operator=(const EthNic &) = delete;

    /** Attach the transmit wire toward @p peer (call on both NICs). */
    void connectTo(EthNic &peer, net::LinkConfig link_cfg = {});

    /**
     * Alternative to connectTo(): transmit through @p fabric as host
     * @p self toward host @p peer_node, so frames cross real switch
     * queues (ECN marks, PFC pauses, fabric fault sites) instead of a
     * private point-to-point wire. Call on both NICs with the roles
     * swapped. The fabric must outlive the NIC.
     */
    void connectVia(net::Fabric &fabric, unsigned self,
                    unsigned peer_node, EthNic &peer);

    // --- receive rings (IOchannels) --------------------------------

    /** Create a receive ring bound to NpfController channel @p ch. */
    unsigned createRxRing(core::ChannelId ch, RxRingConfig cfg,
                          RxHandler handler);

    /** IOuser: post one receive buffer (advances Fig. 6 tail). */
    void postRxBuffer(unsigned ring, mem::VirtAddr buf, std::size_t len);

    RxRing &ring(unsigned id) { return *rings_[id]; }
    const RxRing &ring(unsigned id) const { return *rings_[id]; }
    core::ChannelId ringChannel(unsigned id) const
    {
        return ringChannel_[id];
    }

    // --- transmit ----------------------------------------------------

    /** Create a transmit queue DMA-reading through channel @p ch. */
    unsigned createTxQueue(core::ChannelId ch);

    /**
     * Transmit @p len bytes from @p src (IOuser memory; may fault —
     * a send-side NPF stalls the queue until resolution) toward ring
     * @p dst_ring of the connected peer NIC. The NIC takes ownership
     * of the pooled @p payload; it is released exactly once wherever
     * the frame's journey ends (see eth/frame.hh).
     */
    void send(unsigned txq, unsigned dst_ring, mem::VirtAddr src,
              std::size_t len, sim::PoolRef payload);

    // --- hardware receive path (invoked by the wire) -----------------

    void receive(Frame f);

    /**
     * Driver -> hardware: rNPF at @p bit_index of @p ring resolved
     * (Fig. 6 resolve_rNPFs): clear the bit and sweep head forward
     * over resolved entries.
     */
    void resolveRnpf(unsigned ring, std::uint64_t bit_index);

    core::NpfController &npfc() { return npfc_; }
    sim::EventQueue &eventQueue() { return eq_; }
    BackupRingManager &backupManager() { return *backup_; }
    const Stats &stats() const { return stats_; }
    net::Link *txLink() { return txLink_.get(); }

  private:
    struct TxJob
    {
        Frame frame;
        mem::VirtAddr src;
    };

    struct TxQueue
    {
        core::ChannelId channel;
        sim::RingDeque<TxJob> q; ///< grows once, then allocation-free
        bool pumpScheduled = false;
        bool faultPending = false;
    };

    void dispatchRx(Frame f);
    void recvToRing(RxRing &r, Frame f);
    void raiseUserIsr(RxRing &r);
    void deliverToUser(RxRing &r);
    void pumpTx(unsigned txq);

    sim::EventQueue &eq_;
    core::NpfController &npfc_;
    sim::Rng rng_;
    Stats stats_;

    EthNic *peer_ = nullptr;
    std::unique_ptr<net::Link> txLink_;
    net::Fabric *fabric_ = nullptr; ///< connectVia() transport
    unsigned fabricSelf_ = 0;
    unsigned fabricPeer_ = 0;
    std::vector<std::unique_ptr<RxRing>> rings_;
    std::vector<core::ChannelId> ringChannel_;
    std::vector<std::unique_ptr<TxQueue>> txQueues_;
    std::unique_ptr<BackupRingManager> backup_;
    std::uint64_t rxSeq_ = 0;
    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::eth

#endif // NPF_ETH_ETH_NIC_HH
