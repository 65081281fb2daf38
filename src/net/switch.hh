/**
 * @file
 * The switched-fabric runtime: egress ports with per-priority
 * bounded queues, output-queued switches with ECMP next-hop
 * selection, ECN marking and per-priority PFC pause/resume
 * propagating hop by hop (thresholds in net/pfc.hh).
 *
 * Object graph: the owning Fabric instantiates one Egress per
 * directed edge end (a host has one, its uplink; a switch has one
 * per neighbor) and one Switch per switch vertex. Packets travel as
 * pooled FabricPacket descriptors (net/packet.hh); an Egress pump
 * transmits exactly one packet per invocation and re-arms at the
 * wire's busyUntil(), so a pause frame landing between packets takes
 * effect at the next packet boundary — the granularity real PFC
 * gives you.
 *
 * Steady state is allocation-free: descriptors come from a slab,
 * queues are grow-once rings, and every closure crossing the event
 * queue is held inline in a sim::Delegate.
 */

#ifndef NPF_NET_SWITCH_HH
#define NPF_NET_SWITCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.hh"
#include "net/packet.hh"
#include "net/pfc.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/ring_deque.hh"

namespace npf::net {

class Fabric;
class Switch;

/**
 * One egress port: a wire plus per-priority queues feeding it.
 * Strict-priority scheduling, highest class first. @p owner is the
 * switch whose PFC thresholds govern these queues (nullptr for host
 * uplink ports — hosts queue but never assert pause or mark ECN).
 */
class Egress
{
  public:
    struct Stats
    {
        std::uint64_t txPackets = 0;
        std::uint64_t queuedBytes = 0;  ///< cumulative bytes enqueued
        std::uint64_t capDropped = 0;   ///< hard queue-cap drops
        std::uint64_t downDropped = 0;  ///< port-flap drops
        std::uint64_t pauseRx = 0;      ///< pause frames honored
        std::uint64_t resumeRx = 0;
    };

    Egress(sim::EventQueue &eq, Fabric &fabric, unsigned to,
           LinkConfig link_cfg, const SwitchConfig &cfg, Switch *owner);

    /**
     * Queue one packet; takes ownership. Applies the cap, ECN mark
     * and XOFF threshold, then pumps. @return false when the packet
     * was dropped (cap exceeded or port down).
     */
    bool enqueue(sim::PoolRef pkt);

    /** PFC pause/resume for @p priority, reference-counted so
     *  overlapping sources (downstream PFC, fault storms, host rNPF
     *  backpressure) compose. */
    void setPaused(unsigned priority, bool on);

    /** Fault actions: port down / queue frozen until @p until. */
    void flapUntil(sim::Time until);
    void stallUntil(sim::Time until);

    /**
     * When a packet handed to this port right now would reach the
     * wire: the wire's busyUntil plus the serialization time of
     * everything already queued. This is the transport pacing signal
     * in topology mode — legacy links occupy the wire eagerly at
     * send(), so busyUntil() alone carried the backlog; a queueing
     * port must fold its queue depth in or senders dump their whole
     * window into it at once and end-host rate control (DCQCN) never
     * touches the offered load. Deliberately ignores PFC pause state:
     * a paused port's ETA is unknowable, and underestimating it just
     * means the sender queues a little — bounded by the pacing loop
     * re-reading the (now deeper) queue each packet.
     */
    sim::Time txEta() const;

    Link &link() { return link_; }
    unsigned dest() const { return to_; }
    bool paused(unsigned priority) const
    {
        return pauseCount_[priority] > 0;
    }
    std::size_t
    queueBytesTotal() const
    {
        std::size_t total = 0;
        for (unsigned p = 0; p < kPriorities; ++p)
            total += queueBytes_[p];
        return total;
    }
    const Stats &stats() const { return stats_; }

  private:
    friend class Switch;

    void pump();
    void schedulePump(sim::Time when);
    void maybeXon(unsigned priority);

    sim::EventQueue &eq_;
    Fabric &fabric_;
    unsigned to_; ///< vertex this port's wire terminates at
    const SwitchConfig &cfg_;
    Switch *owner_; ///< nullptr for host uplinks
    Link link_;
    sim::RingDeque<sim::PoolRef> q_[kPriorities];
    std::size_t queueBytes_[kPriorities] = {};
    std::size_t queueWireBytes_ = 0; ///< queued payload + framing
    unsigned pauseCount_[kPriorities] = {};
    bool xoff_[kPriorities] = {}; ///< this queue asserted XOFF
    bool pumpScheduled_ = false;
    sim::Time downUntil_ = 0;
    sim::Time frozenUntil_ = 0;
    Stats stats_;
    obs::Instrumented obs_; ///< last member: deregisters first
};

/**
 * One output-queued switch: routes arrivals to an egress port by
 * ECMP flow hash, and runs the PFC control loop against every
 * upstream port feeding it.
 */
class Switch
{
  public:
    struct Stats
    {
        std::uint64_t rxPackets = 0;
        std::uint64_t ecnMarked = 0;
        std::uint64_t pauseTx = 0;   ///< pause frames sent upstream
        std::uint64_t resumeTx = 0;
        std::uint64_t injDropped = 0; ///< fault-injected drops
        std::uint64_t injStalls = 0;
        std::uint64_t injFlaps = 0;
        std::uint64_t injPauseStorms = 0;
        std::uint64_t queueHwmBytes = 0; ///< deepest egress queue seen
    };

    Switch(sim::EventQueue &eq, Fabric &fabric, unsigned vertex,
           const SwitchConfig &cfg);

    /** Wiring, done once by the Fabric after all ports exist. */
    void addEgress(Egress *port) { egress_.push_back(port); }
    void addUpstream(Egress *port) { upstream_.push_back(port); }
    void setRoutes(std::vector<std::vector<Egress *>> routes)
    {
        routes_ = std::move(routes);
    }

    /** One packet arrived on some ingress wire; takes ownership. */
    void receive(sim::PoolRef pkt);

    /** PFC: pause/resume @p priority on every upstream transmitter
     *  (one pause frame each, delivered after that wire's
     *  propagation delay). */
    void pauseUpstream(unsigned priority, bool on);

    /** A queue crossed XOFF (on) or XON (off); pause frames go out
     *  on 0 -> 1 and 1 -> 0 transitions of the per-priority count. */
    void queueXoffChanged(unsigned priority, bool on);

    void noteQueueDepth(std::size_t bytes)
    {
        if (bytes > stats_.queueHwmBytes)
            stats_.queueHwmBytes = bytes;
    }

    /** An egress queue marked CE on an enqueued packet. */
    void noteEcnMark();

    unsigned vertex() const { return vertex_; }
    const Stats &stats() const { return stats_; }
    const std::vector<Egress *> &egressPorts() const { return egress_; }

  private:
    Egress *route(const FabricPacket &pkt);

    sim::EventQueue &eq_;
    Fabric &fabric_;
    unsigned vertex_;
    SwitchConfig cfg_;
    std::vector<Egress *> egress_;   ///< this switch's ports
    std::vector<Egress *> upstream_; ///< ports transmitting toward us
    std::vector<std::vector<Egress *>> routes_; ///< [dst host] -> ECMP set
    unsigned xoffCount_[kPriorities] = {};
    Stats stats_;
    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::net

#endif // NPF_NET_SWITCH_HH
