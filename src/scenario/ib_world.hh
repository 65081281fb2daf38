/**
 * @file
 * The InfiniBand worlds, defined once for the benches, tests and
 * examples: the connected RC pair, the two-host IB base, the KV-RPC
 * world over RC QPs on top of it, the incast world of the switched
 * fabric, and the cross-shard RC stream ring of the sharded engine's
 * scaling runs.
 * Each builds in a fixed order, because construction order is part of
 * the simulated result. A caller that must act between stages (open
 * an obs session on the base, or set a registration discipline before
 * any QP exists) builds the stages one by one.
 */

#ifndef NPF_SCENARIO_IB_WORLD_HH
#define NPF_SCENARIO_IB_WORLD_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "app/kv_rpc.hh"
#include "core/npf_controller.hh"
#include "ib/queue_pair.hh"
#include "load/client_pool.hh"
#include "load/recorder.hh"
#include "mem/memory_manager.hh"
#include "net/fabric.hh"
#include "net/topology.hh"
#include "sim/shard.hh"

namespace npf::scenario {

/**
 * Two independent hosts on a two-node net::kFdrFabric, one RC QP each,
 * connected to each other: host A is node 0, host B node 1. Both QPs
 * take Options::qp; synthetic receive faults draw from seed 1 on A and
 * seed 2 on B. The caller owns the event queue, so it can open an obs
 * session or install a fault plan before anything is built.
 *
 * IbBed below is the same flat two-host fabric with 2 GiB hosts and
 * no QPs (KvWorld adds them per endpoint). Its construction sits under
 * the KV worlds' pinned digests, perfbench's among them, so the two
 * merge only when those digests may be re-pinned.
 */
struct RcPair
{
    struct Options
    {
        std::size_t memA = 1ull << 30; ///< host A's memory, bytes
        std::size_t memB = 1ull << 30; ///< host B's memory, bytes
        ib::QpConfig qp{};
    };

    sim::EventQueue &eq;
    net::Fabric fabric;
    mem::MemoryManager mmA, mmB;
    mem::AddressSpace &asA, &asB;
    core::NpfController npfcA, npfcB;
    core::ChannelId chA, chB;
    ib::QueuePair qpA, qpB;

    RcPair(sim::EventQueue &eq, const Options &o);
    explicit RcPair(sim::EventQueue &eq) : RcPair(eq, Options{}) {}
};

/**
 * Two IB sides on one fabric, 2 GiB of memory each. The server host is
 * node 0 with one NIC. The client side is node 1 of a flat two-node
 * 56 Gb/s fabric, or, given a topology, every other host of it, one
 * NIC each; all client NICs share the load generator's address space.
 */
struct IbBed
{
    sim::EventQueue &eq;
    std::unique_ptr<net::Fabric> fabric;
    mem::MemoryManager serverMm, clientMm;
    mem::AddressSpace &serverAs, &clientAs;
    core::NpfController serverNpfc;
    core::ChannelId sch;
    std::deque<core::NpfController> clientNpfcs; ///< one per client host
    std::vector<core::ChannelId> cchs;

    explicit IbBed(sim::EventQueue &eq, const net::Topology *topo = nullptr);
};

/**
 * KV RPC over RC on an IbBed: a zero-copy KvRcServer on the server
 * host with keys 0..n-1 of the pool's key space set (server, items
 * and transports at the default app::KvRpcConfig), and a
 * load::ClientPool recording into a load::Recorder whose latency
 * histograms are pre-sized for allocation-gated windows. connect()
 * adds the endpoints; the caller starts the pool.
 */
struct KvWorld
{
    struct Options
    {
        std::size_t kvBytes = 64ull << 20; ///< KvStore capacity
        /// The server's registration discipline (value memory).
        core::RegMode reg = core::RegMode::Npf;
        /// Client-side QPs, e.g. synthetic receive faults. Endpoint i's
        /// server QP is seeded 2i + 1 and its client QP 2i + 2; a seed
        /// is drawn only when synthetic faults are on.
        ib::QpConfig clientQp{};
    };

    IbBed &bed;
    Options opt;
    app::HostModel host;
    app::KvStore kv;
    app::KvRcServer server;
    load::Recorder rec;
    load::ClientPool pool;
    std::deque<ib::QueuePair> qps;
    std::deque<app::KvRcTransport> transports;

    KvWorld(IbBed &bed, const load::PoolConfig &pc,
            const load::RecorderConfig &rc, const Options &o);

    /** Add @p endpoints RC QP pairs, one server session and one pool
     *  transport each, dealt round-robin over the client hosts. */
    void connect(unsigned endpoints);
};

/**
 * Incast on a switched fabric: a victim host at node 0 and one host
 * per listed sender, 2 GiB each. Sender host h has one RC QP (seed
 * 100 + h) connected to a victim-side QP (seed 200 + h) on a channel
 * of its own on the victim's controller, as a multi-QP NIC has. Each
 * sender gets a prefaulted source region and a region on the victim:
 * prefaulted when warm, only CPU-touched when cold, so that the
 * victim's NIC raises rNPFs on it. Built in this order: the victim,
 * then per sender its host, both channels, both QPs, the connects and
 * the regions. The rig owns its event queue.
 */
struct IncastRig
{
    struct Options
    {
        std::vector<unsigned> senders; ///< sender hosts, none of them 0
        ib::QpConfig qp{};             ///< every QP on both sides
        std::size_t regionBytes = 0;   ///< each region, per sender
        bool warmVictim = true;        ///< prefault the victim regions
    };

    struct Sender
    {
        mem::MemoryManager mm;
        mem::AddressSpace &as;
        core::NpfController npfc;
        core::ChannelId ch, vch; ///< sender side, victim side
        ib::QueuePair qp;        ///< at the sender host
        ib::QueuePair vqp;       ///< its peer on the victim
        mem::VirtAddr src = 0;   ///< source region, sender side
        mem::VirtAddr dst = 0;   ///< destination region, victim side

        Sender(IncastRig &rig, unsigned host, const Options &o);
    };

    sim::EventQueue eq;
    net::Fabric fabric;
    mem::MemoryManager victimMm;
    mem::AddressSpace &victimAs;
    core::NpfController victimNpfc;
    std::deque<Sender> senders;

    IncastRig(const net::Topology &topo, const Options &o);
};

/**
 * Shard s's endpoint of the cross-shard RC ring: node s of an S-node
 * fabric facet, streaming Sends to shard (s+1) % S over the record
 * plane while receiving from (s-1) % S. With S == 1 the ring
 * degenerates to the fabric loopback path (same code, no threads).
 */
struct StreamWorld
{
    static constexpr std::size_t kMsgBytes = 8192;
    static constexpr unsigned kRecvDepth = 16;
    static constexpr unsigned kSendWindow = 4;
    /** Long-haul links, so the record lookahead (propagation + switch
     *  latency = 2.5 us) buys a sharded engine a useful horizon. */
    static constexpr net::FabricConfig kFabric{
        net::LinkConfig{56e9, 2000, 32}, 500};

    sim::EventQueue &eq;
    std::unique_ptr<net::Fabric> fabric;
    mem::MemoryManager mm;
    mem::AddressSpace &as;
    core::NpfController npfc;
    core::ChannelId ch;
    std::unique_ptr<ib::QueuePair> tx, rx;
    mem::VirtAddr sbuf = 0, rbuf = 0;
    std::uint64_t sent = 0, received = 0;
    bool stopped = false;

    StreamWorld(sim::EventQueue &eq, sim::ShardedEngine &engine,
                unsigned s, unsigned shards);

    void postSend(unsigned slot);
    void postRecv(unsigned slot);
};

} // namespace npf::scenario

#endif // NPF_SCENARIO_IB_WORLD_HH
