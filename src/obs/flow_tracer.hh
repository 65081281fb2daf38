/**
 * @file
 * Cross-layer flow tracing with Chrome trace_event export.
 *
 * A *flow* is one logical journey through the stack — an NPF from
 * firmware interrupt to resume, an rNPF from backup-ring park to
 * merge-back, an RNR suspension from NACK to resolution. Each flow
 * gets a process-unique id; components emit spans (duration events on
 * a per-layer track) and instants tagged with that id. The exporter
 * writes trace_event JSON loadable in chrome://tracing / Perfetto:
 * spans appear on their layer's track, and each flow additionally
 * appears as an async lane so one fault's journey reads top to
 * bottom.
 *
 * Both capture modes write one preallocated event ring through the
 * same emit entry points:
 *
 *  - **Full tracing** (`enable(true)`): a 2^22-event ring for a
 *    complete Chrome trace of the run; a longer run keeps its newest
 *    2^22 events.
 *  - **Flight recorder** (`setFlightCapacity(N)`): the last N events,
 *    in an N-event ring of their own or, with full tracing on, as the
 *    tail of the trace ring. It stays armed for a whole run at
 *    negligible cost and is dumped *after* something interesting
 *    happens (SLO violation, fault clause, explicit request) to show
 *    what led up to it.
 *
 * The ring is reserved on sim::PageAllocator pages when a mode turns
 * on, so it costs address space until it fills, and recording
 * allocates nothing. No per-flow table exists: whoever ends a flow
 * passes the cat/name it began with.
 *
 * Both off (the default) costs one predictable inline `active()`
 * branch per emit call.
 */

#ifndef NPF_OBS_FLOW_TRACER_HH
#define NPF_OBS_FLOW_TRACER_HH

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/page_allocator.hh"
#include "sim/time.hh"

namespace npf::obs {

/** Identifies one cross-layer flow; 0 = no flow. */
using FlowId = std::uint64_t;

/** Trace tracks, one per architectural layer (Chrome "tid"). */
enum class Track : int {
    Nic = 1,       ///< NIC hardware + firmware
    Driver = 2,    ///< IOprovider driver / OS software
    Iommu = 3,     ///< IOMMU page-table + IOTLB operations
    Mem = 4,       ///< host memory manager (reclaim, swap)
    Net = 5,       ///< links and fabric
    Transport = 6, ///< IB QPs / TCP connections
    App = 7,       ///< application models
    Sim = 8,       ///< event-queue / harness internals
};

class FlowTracer
{
  public:
    /** The process-wide tracer. */
    static FlowTracer &global();

    /** Events a full trace keeps (its newest, past this many). */
    static constexpr std::size_t kTraceEvents = std::size_t(1) << 22;

    bool enabled() const { return enabled_; }
    /** Full tracing on/off; a change of ring size empties the ring. */
    void enable(bool on);

    /** True when any capture mode (full trace or flight ring) is on. */
    bool active() const { return ringCap_ != 0; }

    /** Timestamps come from this queue; nullptr reads as t=0. */
    void setClock(const sim::EventQueue *eq) { clock_ = eq; }
    sim::Time now() const { return clock_ != nullptr ? clock_->now() : 0; }

    /** Start a flow at the current time. @return 0 when inactive. */
    FlowId beginFlow(const char *cat, const char *name);
    FlowId beginFlowAt(const char *cat, const char *name, sim::Time t);

    /**
     * Finish flow @p f, which began with @p cat and @p name. No-op for
     * id 0 and for flows begun before the last clear() or ring resize.
     */
    void endFlow(FlowId f, const char *cat, const char *name);
    void endFlowAt(FlowId f, const char *cat, const char *name,
                   sim::Time t);

    /** Duration event of @p dur starting at @p start on @p track. */
    void span(Track track, const char *cat, const char *name,
              sim::Time start, sim::Time dur, FlowId f = 0);

    /** Zero-duration marker at the current time / at @p t. */
    void instant(Track track, const char *cat, const char *name,
                 FlowId f = 0);
    void instantAt(Track track, const char *cat, const char *name,
                   sim::Time t, FlowId f = 0);

    /**
     * Flow context for log correlation: the flow whose callback is
     * currently executing. Maintained via FlowScope; read by the log
     * annotator.
     */
    FlowId currentFlow() const { return current_; }
    void setCurrentFlow(FlowId f) { current_ = f; }

    /** Events held in the ring. */
    std::size_t eventCount() const { return ring_.size(); }

    /**
     * Arm (cap > 0) or disarm (cap == 0) the flight recorder's view:
     * the last @p cap events. A change of ring size empties the ring.
     */
    void setFlightCapacity(std::size_t cap);

    std::size_t flightCapacity() const { return flightCap_; }
    /** Events a flight dump would write now (<= capacity). */
    std::size_t
    flightSize() const
    {
        return std::min(ring_.size(), flightCap_);
    }
    /** Events emitted since arming/clear that a dump no longer holds. */
    std::uint64_t
    flightOverwritten() const
    {
        return flightCap_ != 0 && pushed_ > flightCap_ ? pushed_ - flightCap_
                                                        : 0;
    }

    /** Drop all buffered events. */
    void clear();

    /** Write the trace (newest kTraceEvents) as Chrome trace JSON. */
    void
    writeChromeTrace(std::ostream &os) const
    {
        write(os, std::min(ring_.size(), kTraceEvents));
    }

    /** Write the flight window (oldest first) as Chrome trace JSON. */
    void
    writeFlightTrace(std::ostream &os) const
    {
        write(os, flightSize());
    }

  private:
    struct Event
    {
        char ph;         ///< 'X', 'i', 'b', 'e'
        int tid;
        FlowId flow;
        const char *cat; ///< string literal
        const char *name;
        sim::Time ts;
        sim::Time dur;   ///< 'X' only
    };

    void resizeRing();
    void push(const Event &e);
    /** Write the newest @p n ring events, oldest first. */
    void write(std::ostream &os, std::size_t n) const;
    void writeEventJson(std::ostream &os, const Event &e) const;

    bool enabled_ = false;
    const sim::EventQueue *clock_ = nullptr;
    FlowId nextFlow_ = 1;
    FlowId firstFlow_ = 1; ///< flows below began before the last clear
    FlowId current_ = 0;
    std::size_t flightCap_ = 0;

    // --- the ring: reserved by resizeRing(), filled by push() ---
    std::size_t ringCap_ = 0;
    std::size_t head_ = 0;      ///< oldest slot (0 until the ring fills)
    std::uint64_t pushed_ = 0;  ///< events emitted since clear/resize
    std::vector<Event, sim::PageAllocator<Event>> ring_;
};

/** Process-wide tracer accessor (shorthand). */
inline FlowTracer &
tracer()
{
    return FlowTracer::global();
}

/**
 * RAII flow context: makes @p f the tracer's current flow for the
 * enclosing scope (typically one event callback), restoring the
 * previous value on exit. Log lines emitted inside the scope carry
 * the flow id when tracing is enabled.
 */
class FlowScope
{
  public:
    explicit FlowScope(FlowId f) : prev_(tracer().currentFlow())
    {
        tracer().setCurrentFlow(f);
    }
    ~FlowScope() { tracer().setCurrentFlow(prev_); }

    FlowScope(const FlowScope &) = delete;
    FlowScope &operator=(const FlowScope &) = delete;

  private:
    FlowId prev_;
};

} // namespace npf::obs

#endif // NPF_OBS_FLOW_TRACER_HH
