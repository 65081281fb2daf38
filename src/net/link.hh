/**
 * @file
 * Point-to-point link model: FIFO serialization at a configured
 * bandwidth plus propagation delay. Payloads travel inside the
 * delivery closures, so the link is protocol-agnostic.
 */

#ifndef NPF_NET_LINK_HH
#define NPF_NET_LINK_HH

#include <cstdint>

#include "fault/fault.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace npf::net {

/** Static link parameters. */
struct LinkConfig
{
    double bandwidthBitsPerSec = 40e9;
    sim::Time propagation = 500; ///< cable + PHY, one way
    /** Framing overhead added to every packet (headers, preamble,
     *  inter-frame gap). */
    std::size_t perPacketOverheadBytes = 38;
};

/**
 * Unidirectional link. send() queues the packet behind earlier
 * traffic (transmission starts when the wire frees up) and schedules
 * the delivery callback at arrival time. Lossless by default: loss in
 * npfsim happens at NIC rings, never on the wire — unless an active
 * fault plan injects drop/duplicate/reorder/delay at the Link site.
 */
class Link
{
  public:
    struct Stats
    {
        std::uint64_t packets = 0;
        std::uint64_t payloadBytes = 0;
        std::uint64_t wireBytes = 0;
        std::uint64_t injDropped = 0;    ///< fault-injected drops
        std::uint64_t injDuplicated = 0; ///< fault-injected dups
        std::uint64_t injDelayed = 0;    ///< fault-injected delay/reorder
        /** Wire bytes that had to wait behind earlier traffic (the
         *  link's implicit queue, since payloads queue on the wire
         *  itself rather than in a buffer). */
        std::uint64_t queuedBytes = 0;
    };

    Link(sim::EventQueue &eq, LinkConfig cfg = {}) : eq_(eq), cfg_(cfg)
    {
        obs_.init("net.link");
        obs_.counter("packets", &stats_.packets);
        obs_.counter("payload_bytes", &stats_.payloadBytes);
        obs_.counter("wire_bytes", &stats_.wireBytes);
        obs_.counter("inj_dropped", &stats_.injDropped);
        obs_.counter("inj_duplicated", &stats_.injDuplicated);
        obs_.counter("inj_delayed", &stats_.injDelayed);
        obs_.counter("queued_bytes", &stats_.queuedBytes);
        // Backlog as time: how far busyUntil_ runs ahead of now, i.e.
        // the serialization delay a packet sent this instant would
        // see before reaching the wire.
        obs_.gauge("backlog_ns", [this] {
            sim::Time now = eq_.now();
            return busyUntil_ > now ? double(busyUntil_ - now) : 0.0;
        });
    }

    /**
     * Transmit @p bytes of payload; @p deliver runs at arrival.
     * Delivery closures ride inline in the event queue's Delegate,
     * so per-packet sends never allocate.
     *
     * Payload ownership under fault injection: the closure owns the
     * (pooled) frame it captured, so each fault action keeps the
     * release-exactly-once contract by construction —
     *  - Drop: @p deliver is destroyed unscheduled when send()
     *    returns, releasing the frame's payload slot then and there;
     *  - Duplicate: scheduling a *copy* of @p deliver clones the
     *    payload into a fresh slot (sim::PoolRef copy semantics), so
     *    the duplicate and the original retire independently;
     *  - Reorder/Delay: the one owner just arrives later.
     * tests/frame_lifecycle_test.cc pins all three with pool
     * live-count assertions. @p site labels the delivery event(s).
     * @p deliver is any callable the event queue takes, forwarded
     * to it untouched, so the event's entry is the only place the
     * closure is built.
     * @return the arrival time.
     */
    template <typename F>
    sim::Time
    send(std::size_t bytes, F &&deliver,
         const char *site = "net.link.deliver")
    {
        TxOutcome tx = transmit(bytes);
        if (tx.dropped) {
            // Take the closure and destroy it unscheduled, releasing
            // the captured frame's payload slot before send() returns.
            [[maybe_unused]] std::remove_cvref_t<F> dead(
                std::forward<F>(deliver));
            return tx.arrival;
        }
        if (tx.duplicated)
            eq_.schedule(tx.dupArrival, deliver, site);
        eq_.schedule(tx.arrival, std::forward<F>(deliver), site);
        return tx.arrival;
    }

    /**
     * The timing/fault half of send(), decoupled from closure
     * scheduling so record-based delivery (the shard boundary path,
     * fabric.hh) shares one wire model with the closure path.
     * Occupies the wire and rolls the fault dice exactly like send();
     * the caller is responsible for acting on the outcome:
     * schedule/forward nothing when `dropped`, a second copy at
     * `dupArrival` when `duplicated` (the duplicate consumed its own
     * wire time and arrives *first*), and the packet itself at
     * `arrival`.
     */
    struct TxOutcome
    {
        sim::Time arrival = 0; ///< the packet (meaningless if dropped)
        sim::Time dupArrival = 0; ///< the extra copy, if duplicated
        bool dropped = false;
        bool duplicated = false;
    };

    TxOutcome
    transmit(std::size_t bytes)
    {
        TxOutcome out;
        sim::Time extra = 0;
        if (fault::FaultInjector *fi = fault::FaultInjector::active()) {
            if (auto d = fi->decide(fault::Site::Link)) {
                switch (d->action) {
                  case fault::Action::Drop:
                    // The packet still occupies the wire; it just
                    // never arrives.
                    ++stats_.injDropped;
                    out.dropped = true;
                    out.arrival = occupyWire(bytes);
                    return out;
                  case fault::Action::Duplicate:
                    // The copy consumes wire time of its own and
                    // arrives first; the original follows behind it.
                    ++stats_.injDuplicated;
                    out.duplicated = true;
                    out.dupArrival = occupyWire(bytes);
                    break;
                  case fault::Action::Reorder:
                  case fault::Action::Delay:
                    // Arrival slips without holding the wire, so
                    // later packets overtake this one.
                    ++stats_.injDelayed;
                    extra = d->delay;
                    break;
                  default:
                    break;
                }
            }
        }
        out.arrival = occupyWire(bytes) + extra;
        return out;
    }

    /** Wire time to clock out @p wire_bytes. */
    sim::Time
    transmissionTime(std::size_t wire_bytes) const
    {
        double secs = double(wire_bytes) * 8.0 / cfg_.bandwidthBitsPerSec;
        return sim::fromSeconds(secs);
    }

    /** Earliest time a new packet could start transmitting. */
    sim::Time busyUntil() const { return busyUntil_; }

    const LinkConfig &config() const { return cfg_; }
    const Stats &stats() const { return stats_; }

  private:
    /** FIFO-serialize one packet onto the wire; @return arrival time. */
    sim::Time
    occupyWire(std::size_t bytes)
    {
        std::size_t wire_bytes = bytes + cfg_.perPacketOverheadBytes;
        sim::Time tx_time = transmissionTime(wire_bytes);
        sim::Time start = std::max(eq_.now(), busyUntil_);
        if (start > eq_.now())
            stats_.queuedBytes += wire_bytes;
        busyUntil_ = start + tx_time;

        ++stats_.packets;
        stats_.payloadBytes += bytes;
        stats_.wireBytes += wire_bytes;
        return busyUntil_ + cfg_.propagation;
    }

    sim::EventQueue &eq_;
    LinkConfig cfg_;
    sim::Time busyUntil_ = 0;
    Stats stats_;
    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::net

#endif // NPF_NET_LINK_HH
