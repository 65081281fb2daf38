/**
 * @file
 * Switched fabric, in two modes behind one API.
 *
 * Legacy mode (the default constructor): N nodes star-wired through
 * one transparent switch — dedicated uplink/downlink per node, a
 * fixed cut-through latency, unbounded implicit queueing on the
 * links themselves. This is the paper's testbed (8 servers on a
 * SwitchX-2) and the path every existing call site rides; its event
 * sequence is pinned bit-identical by scripts/golden_digests.sha256.
 *
 * Topology mode (construct with a net::Topology): real multi-switch
 * fabrics — per-port bounded egress queues, ECMP next-hop selection,
 * ECN marking and per-priority PFC pause/resume (net/switch.hh),
 * with host uplinks modeled as queueing NIC ports that PFC can
 * pause. Destination-side metadata (CE mark, class) is published
 * through rx() for the duration of the delivery callback, which is
 * how ib::QueuePair's DCQCN notification point sees marks without
 * the fabric knowing transport framing.
 *
 * Every packet of every plane parks in one pooled net::FabricPacket
 * (net/packet.hh) while it crosses, and a src == dst packet turns
 * around on one more net::Link: infinitely fast, no framing, one
 * switch latency of propagation (loopbackLink()).
 */

#ifndef NPF_NET_FABRIC_HH
#define NPF_NET_FABRIC_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hh"
#include "net/packet.hh"
#include "net/switch.hh"
#include "net/topology.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/shard.hh"

namespace npf::net {

/** Legacy-mode fabric parameters. */
struct FabricConfig
{
    LinkConfig link;                         ///< per-port link
    sim::Time switchLatency = 200;           ///< cut-through forwarding

    /** Lower bound on any record's src->dst latency: what a
     *  ShardedEngine coupling fabric facets may use as lookahead. */
    constexpr sim::Time
    recordLookahead() const
    {
        return link.propagation + switchLatency;
    }
};

/** The paper's InfiniBand testbed (§6): 56 Gb/s FDR links with IB
 *  framing on one cut-through switch. */
inline constexpr FabricConfig kFdrFabric{LinkConfig{56e9, 300, 32}, 200};

/**
 * The fabric facade (see file comment for the two modes).
 */
class Fabric
{
  public:
    struct Stats
    {
        std::uint64_t hostPauses = 0; ///< rNPF-driven host rx pauses
    };

    /** Destination-side packet metadata, valid only while the
     *  delivery callback runs (single-threaded simulation). Always
     *  default (no CE) in legacy mode and for loopback. */
    struct RxContext
    {
        bool ecn = false;
        unsigned priority = 0;
    };

    /** Legacy single-switch mode. */
    Fabric(sim::EventQueue &eq, unsigned nodes, FabricConfig cfg = {});

    /**
     * Legacy mode when @p topology_spec is empty, otherwise topology
     * mode parsed from it (net/topology.hh grammar; the spec's host
     * count must equal @p nodes). Malformed specs abort with a
     * diagnostic — a config error, not a runtime condition.
     */
    Fabric(sim::EventQueue &eq, unsigned nodes, FabricConfig cfg,
           const std::string &topology_spec);

    /** Topology mode over an already-built (validated) topology. */
    Fabric(sim::EventQueue &eq, const Topology &topo);

    ~Fabric();

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    unsigned
    nodes() const
    {
        return topo_ ? topo_->hosts : static_cast<unsigned>(up_.size());
    }

    /**
     * Send @p bytes from @p src to @p dst; @p deliver runs at the
     * destination's arrival time. Class-0 traffic with a flow label
     * derived from the endpoints — transports that care pass their
     * own (the overload below).
     *
     * Loopback (src == dst) turns around below the first switch hop
     * on loopbackLink(): it costs the forwarding latency but never a
     * node's wire, and it polls fault::Site::Link and counts in that
     * link's stats like any other hop.
     */
    void
    send(unsigned src, unsigned dst, std::size_t bytes,
         sim::EventQueue::Callback deliver)
    {
        send(src, dst, bytes, 0,
             (std::uint32_t(src) << 16) | std::uint32_t(dst),
             std::move(deliver));
    }

    /** As above with an explicit traffic class and ECMP flow label. */
    void send(unsigned src, unsigned dst, std::size_t bytes,
              unsigned priority, std::uint32_t flow,
              sim::EventQueue::Callback deliver);

    // --- record-based delivery plane (legacy mode) -------------------
    //
    // The closure path above cannot cross threads; the record path
    // carries a serializable WireRecord instead, over exactly the
    // same wire model (shared Link instances, shared fault dice,
    // same hop structure: uplink -> switch latency -> downlink). In
    // a sharded world each shard holds a *facet* of the logical
    // fabric — same node count, private links — and the switch hop
    // is where a record jumps shards: the source facet accounts the
    // uplink, the destination facet accounts the downlink. With one
    // shard (or none), the record path schedules the switch hop
    // through EventQueue::scheduleBoundary with the *same* order key
    // it would have carried across shards, which is what makes
    // 1-shard and N-shard runs execute bit-identically.

    /** Receives records addressed to (dst, kind); runs at arrival
     *  time on dst's shard. */
    using RxHandler = std::function<void(const WireRecord &)>;

    /** Register the handler for records addressed to (node, kind).
     *  One handler per key; re-binding aborts. */
    void bindRx(unsigned node, std::uint32_t kind, RxHandler h);

    /**
     * Couple this facet to @p engine: records whose destination node
     * is owned by another shard cross as BoundaryMsgs of
     * @p engineKind. @p owner_of_node maps node -> owning shard and
     * must be identical across facets. Legacy mode only.
     */
    void shardBind(sim::ShardedEngine &engine, unsigned my_shard,
                   std::vector<std::uint16_t> owner_of_node,
                   std::uint32_t engineKind = 1);

    /**
     * Send @p rec from rec.src to rec.dst (legacy mode only). The
     * registered (dst, kind) handler runs at arrival time, on dst's
     * owning shard when shardBind() is in effect. rec.src must be a
     * node this facet's shard owns.
     */
    void sendRecord(const WireRecord &rec);

    /** FabricConfig::recordLookahead() of this fabric. */
    sim::Time recordLookahead() const { return cfg_.recordLookahead(); }

    /** The node's transmit wire: legacy uplink, or the host NIC
     *  port's wire in topology mode. busyUntil() remains the
     *  transport pacing signal in both. */
    Link &
    uplink(unsigned node)
    {
        return topo_ ? hostUp_[node]->link() : *up_[node];
    }

    /** The node's receive wire (last hop toward the host). */
    Link &downlink(unsigned node);

    /** Where src == dst packets of either plane turn around: a link
     *  with no serialization time whose propagation is one switch
     *  latency. Its stats are the fabric's loopback accounting. */
    Link &loopbackLink() { return *loop_; }

    /**
     * When a packet sent from @p node right now would start
     * serializing — the transport pacing signal. Legacy mode: the
     * uplink's busyUntil(), which already carries the whole backlog
     * (legacy links occupy the wire at send() time). Topology mode:
     * the host NIC port's queue-aware ETA (Egress::txEta()), because
     * there the queue sits in front of the wire and busyUntil() alone
     * would let a transport dump its entire window into the port in
     * one tick.
     */
    sim::Time
    txEta(unsigned node)
    {
        return topo_ ? hostUp_[node]->txEta() : up_[node]->busyUntil();
    }

    bool topologyMode() const { return topo_ != nullptr; }
    const Topology *topology() const { return topo_.get(); }

    unsigned switchCount() const
    {
        return static_cast<unsigned>(switches_.size());
    }
    Switch &switchAt(unsigned i) { return *switches_[i]; }

    /** The host's NIC egress port (topology mode only). */
    Egress &hostPort(unsigned node) { return *hostUp_[node]; }

    const RxContext &rx() const { return rx_; }
    const Stats &stats() const { return stats_; }

    /**
     * Host receive-side backpressure (topology mode; no-op legacy):
     * while on, the last-hop switch pauses class-0 delivery toward
     * @p node — the NIC asserting PFC while an rNPF drains its
     * receive capacity. Reference-counted so overlapping QPs on one
     * host compose; control-class traffic keeps flowing (NACKs and
     * CNPs must escape the congestion they report).
     */
    void setHostRxPause(unsigned node, bool on);

  private:
    friend class Egress;
    friend class Switch;

    /** What every constructor ends with: the loopback link and obs. */
    void initCommon();
    void buildTopology(const Topology &topo);
    void sendTopo(unsigned src, unsigned dst, std::size_t bytes,
                  unsigned priority, std::uint32_t flow,
                  sim::EventQueue::Callback deliver);
    void sendLegacy(unsigned src, unsigned dst, std::size_t bytes,
                    sim::EventQueue::Callback deliver);
    /** A record packet's last wire hop: the downlink (or the loopback
     *  link) clocks it out, deliverToHost() hands it over. */
    void lastHop(sim::PoolRef pkt);
    void dispatch(const WireRecord &rec);
    /** Per-source-node record sequence: the same-tick order key,
     *  identical across shard counts by construction. */
    std::uint64_t
    nextOrderKey(unsigned src)
    {
        return (std::uint64_t(src + 1) << 40) | nodeSeq_[src]++;
    }
    /** A packet finished a wire hop at @p vertex; takes ownership. */
    void arrive(unsigned vertex, sim::PoolRef pkt);
    /** Hand @p pkt to its destination: run its delegate, or dispatch
     *  its record to the (dst, kind) handler. */
    void deliverToHost(sim::PoolRef pkt);

    sim::EventQueue &eq_;
    FabricConfig cfg_;

    // legacy mode
    std::vector<std::unique_ptr<Link>> up_;
    std::vector<std::unique_ptr<Link>> down_;

    std::unique_ptr<Link> loop_; ///< src == dst turnaround, both modes

    // record plane
    std::unordered_map<std::uint64_t, RxHandler> rxHandlers_;
    std::vector<std::uint64_t> nodeSeq_;
    sim::ShardedEngine *engine_ = nullptr;
    unsigned myShard_ = 0;
    std::uint32_t engineKind_ = 1;
    std::vector<std::uint16_t> ownerOf_; ///< node -> shard (empty: all local)

    // topology mode
    std::unique_ptr<Topology> topo_;
    std::vector<std::unique_ptr<Egress>> ports_;
    std::vector<std::unique_ptr<Switch>> switches_;
    std::vector<Egress *> hostUp_;   ///< per host: its NIC port
    std::vector<Egress *> hostDown_; ///< per host: last-hop switch port
    std::vector<unsigned> hostPauseDepth_;

    RxContext rx_;
    Stats stats_;
    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::net

#endif // NPF_NET_FABRIC_HH
