/**
 * @file
 * The paper's §6 Ethernet testbed, the memcached instance that runs on
 * it, and the one-host NIC rig, defined once for the benches, tests
 * and examples. Each builds in a fixed order: construction order is
 * part of the simulated result, so the order is a parameter here,
 * never a caller's choice.
 */

#ifndef NPF_SCENARIO_ETH_WORLD_HH
#define NPF_SCENARIO_ETH_WORLD_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "app/memcached.hh"
#include "core/npf_controller.hh"
#include "eth/eth_nic.hh"
#include "mem/memory_manager.hh"
#include "tcp/endpoint.hh"

namespace npf::scenario {

/**
 * Two back-to-back hosts on Ethernet: a server host with a direct
 * channel under a selectable receive fault policy, and a client host
 * with a standard pinned stack, on the paper's §5 prototype wire
 * (eth::kEthNic.wire: a 12 Gb/s NIC and a 1 us cable).
 */
struct EthBed
{
    sim::EventQueue eq;
    std::unique_ptr<mem::MemoryManager> serverMm, clientMm;
    mem::AddressSpace *serverAs = nullptr, *clientAs = nullptr;
    std::unique_ptr<core::NpfController> serverNpfc, clientNpfc;
    core::ChannelId serverCh{}, clientCh{};
    std::unique_ptr<eth::EthNic> serverNic, clientNic;
    std::unique_ptr<tcp::Endpoint> server, client;

    struct Options
    {
        eth::RxFaultPolicy policy = eth::RxFaultPolicy::BackupRing;
        std::size_t ringSize = 64;      ///< server receive-ring entries
        std::size_t serverMemBytes = 2ull << 30;
        std::string serverCgroup{};     ///< optional cgroup for the VM
        std::size_t cgroupLimit = 0;
        std::size_t mss = 1448;
        std::size_t rxBufBytes = 2048;
        double syntheticRnpfProb = 0.0;
        bool syntheticMajor = false;
        bool prefaultRxBuffers = false;
        mem::BackingStoreConfig serverSwap{};
        mem::MemoryManager *sharedServerMm = nullptr; ///< co-located VMs
    };

    explicit EthBed(const Options &o);

    /** Open connection @p id (the client opens actively); true once the
     *  handshake succeeded and the client side is established. */
    bool connect(std::uint32_t id, sim::Time deadline = 300 * sim::kSecond);
};

/**
 * memcached on an EthBed: a KvStore and a MemcachedServer on the
 * server host, one RpcChannel per connection (ids 1..connections),
 * and optionally a Memaslap over the channels, built but not started.
 */
struct MemcachedInstance
{
    struct Options
    {
        std::size_t kvBytes = 64ull << 20; ///< KvStore capacity
        /// Server costs; its valueBytes is also the store's item size.
        app::MemcachedConfig server{};
        unsigned connections = 4;
        std::uint64_t preloadKeys = 0; ///< keys 0..n-1 set up front
        /// Set the keys after the handshakes instead of before them.
        bool preloadAfterConnect = false;
        std::optional<app::MemaslapConfig> slap{};
        std::uint64_t slapSeed = 99;
    };

    EthBed &bed;
    app::KvStore kv;
    app::MemcachedServer server;
    std::deque<app::RpcChannel> chans;
    std::unique_ptr<app::Memaslap> slap;
    /// First connection whose handshake failed; 0 when all connected.
    std::uint32_t failedConnect = 0;

    /** Counts itself as one more instance on @p host. */
    MemcachedInstance(EthBed &bed, app::HostModel &host, const Options &o);
};

/**
 * One 1 GiB host whose NIC receives from a raw-frame peer NIC: both
 * share the host's NpfController, wired back to back on the prototype
 * wire (eth::kEthNic.wire). The peer only transmits; send() puts a frame on
 * its wire toward the NIC, and addRing() gives the NIC receive rings
 * on the host's channel.
 */
struct NicRig
{
    /** A ring addRing() made: its id and the base of its buffers. */
    struct Ring
    {
        unsigned id = 0;
        mem::VirtAddr bufs = 0;
    };

    sim::EventQueue eq;
    mem::MemoryManager mm;
    mem::AddressSpace &as;
    core::NpfController npfc;
    core::ChannelId ch;
    eth::EthNic nic, peer;

    NicRig();

    /** A receive ring under @p cfg with one page-sized buffer per
     *  entry, all posted (prefaulted first when @p prefault). Each
     *  frame delivered goes to @p onFrame, then a buffer is reposted
     *  in the slot it freed. */
    Ring addRing(const eth::RxRingConfig &cfg, bool prefault,
                 eth::EthNic::RxHandler onFrame);

    /** Put @p f on the peer's wire toward the NIC. */
    void send(eth::Frame f);

  private:
    std::deque<Ring> rings_; ///< stable: the ring handlers point here
};

} // namespace npf::scenario

#endif // NPF_SCENARIO_ETH_WORLD_HH
