/**
 * @file
 * obs::Session — one-line observability setup for a simulation run.
 *
 *   sim::EventQueue eq;
 *   obs::Session session(eq, {.trace = true,
 *                             .traceOut = "trace.json",
 *                             .metricsOut = "metrics.json"});
 *   ... build models, run the simulation ...
 *   session.finish();   // or let the destructor do it
 *
 * While active, a session:
 *  - binds the global FlowTracer's clock to @p eq and (optionally)
 *    enables tracing;
 *  - raises the registry detail flag so components record optional
 *    latency histograms;
 *  - exports the EventQueue's own stats as `sim.eqN.*` gauges and
 *    turns on the queue's per-site execution counts;
 *  - optionally runs a periodic sampler that turns selected counters
 *    into sim::RateSeries (events/s over time).
 *
 * finish() writes the metrics snapshot and Chrome trace to the
 * configured paths and restores all global state. Create the session
 * *after* the event queue so destruction order keeps the registered
 * gauges valid.
 */

#ifndef NPF_OBS_SESSION_HH
#define NPF_OBS_SESSION_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/flow_tracer.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/series.hh"

namespace npf::obs {

struct SessionOptions
{
    bool trace = false;        ///< enable the FlowTracer
    std::string traceOut;      ///< Chrome trace path ("" = don't write)
    std::string metricsOut;    ///< metrics JSON path ("" = don't write)

    /** Periodic sampling interval; 0 disables the sampler. The
     *  sampler stops rescheduling once no other live events remain,
     *  so it never keeps a draining queue alive. */
    sim::Time sampleInterval = 0;

    /** Counter/gauge names to sample into RateSeries. When empty,
     *  the session samples its own `sim.eqN.executed` counter. */
    std::vector<std::string> sampledCounters;

    /** Flight recorder: ring capacity in events (0 = off). */
    std::size_t flightCapacity = 0;
    /** Dump-file stem; dumps are numbered (flight.000.json, ...). */
    std::string flightDumpPath = "flight.json";
    /** Dump the ring whenever an SloMonitor window violates. */
    bool flightDumpOnSlo = false;
    /** Dump whatever the ring holds when the session finishes. */
    bool flightDumpAtEnd = false;

    /** Enable causal latency attribution (obs::Attributor). */
    bool attribution = false;

    /** Enable the event-loop profiler (per-site wall/sim time). */
    bool profileEventLoop = false;
};

class Session
{
  public:
    Session(sim::EventQueue &eq, SessionOptions opt = {});
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Write configured outputs and restore global observability
     * state (tracer disabled, detail flag lowered, site counting off).
     * Idempotent; also invoked by the destructor.
     */
    void finish();

    /** Serialize the full metrics snapshot (registry + eq sites +
     *  sampled series) to @p os. */
    void writeMetrics(std::ostream &os) const;

    /** Serialize the buffered trace to @p os. */
    void writeTrace(std::ostream &os) const;

    /** Sampled series for @p counter name; nullptr if not sampled. */
    const sim::RateSeries *series(const std::string &counter) const;

  private:
    struct Sampled
    {
        std::string name;
        double last = 0.0;
        std::unique_ptr<sim::RateSeries> series;
    };

    void sampleTick();

    sim::EventQueue &eq_;
    SessionOptions opt_;
    bool finished_ = false;
    bool priorDetail_ = false;
    std::vector<Sampled> sampled_;
    /** Pending sampler event; cancelled by finish() so a destroyed
     *  session can never be called back by the queue. */
    sim::EventId samplerEvent_ = sim::kInvalidEvent;
    Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::obs

#endif // NPF_OBS_SESSION_HH
