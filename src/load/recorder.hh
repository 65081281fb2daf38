/**
 * @file
 * Latency/SLO recording for workload generators.
 *
 * A Recorder keeps, per request class (GET, SET, READ, ...), two
 * log-bucketed histograms over a warmup/measure window:
 *
 *  - *response* latency: completion minus the request's **intended**
 *    arrival time, i.e. the open-loop schedule position. Queueing a
 *    request behind a stalled server counts against it, so this is
 *    the coordinated-omission-free number the paper's tail tables
 *    need;
 *  - *service* latency: completion minus the actual send time — what
 *    a naive (coordinated-omission-blind) client would report.
 *
 * Timeouts are counted and floored into the response histogram at
 * the elapsed wait, so a run where the server never answers still
 * has an honest tail. An SloMonitor periodically evaluates a
 * percentile target over the most recent window and raises an obs
 * counter + flow-tracer instant on violation.
 */

#ifndef NPF_LOAD_RECORDER_HH
#define NPF_LOAD_RECORDER_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/histogram.hh"
#include "sim/time.hh"

namespace npf::load {

using sim::Histogram;

/** Measurement windowing. */
struct RecorderConfig
{
    sim::Time warmup = 0;   ///< discard completions before this time
    sim::Time duration = 0; ///< measure window length (0 = unbounded)

    /** Phase breakdowns retained per class (the slowest K by e2e);
     *  only filled when attribution is on and the pool has lanes. */
    std::size_t slowK = 64;
};

class Recorder
{
  public:
    using ClassId = unsigned;

    explicit Recorder(RecorderConfig cfg = {});

    /** Register a request class; returns its id. */
    ClassId addClass(const std::string &name);

    std::size_t classes() const { return perClass_.size(); }
    const std::string &className(ClassId c) const
    {
        return perClass_[c].name;
    }

    /** True when @p t falls inside the measure window. */
    bool
    measuring(sim::Time t) const
    {
        return t >= cfg_.warmup &&
               (cfg_.duration == 0 || t < cfg_.warmup + cfg_.duration);
    }

    /**
     * Record one completed request. @p intended is the open-loop
     * schedule time (equals @p sent for closed-loop generators);
     * @p sent the actual transmit time; @p completed the response
     * time. Gated on measuring(completed).
     */
    void recordLatency(ClassId c, sim::Time intended, sim::Time sent,
                       sim::Time completed);

    /** Record an abandoned (timed-out) request at its elapsed wait. */
    void recordTimeout(ClassId c, sim::Time intended, sim::Time now);

    /** Count one retry transmission. */
    void recordRetry(ClassId c, sim::Time now);

    /**
     * Record a phase-attributed breakdown for a completed request;
     * the slowest slowK by e2e are retained per class. Gated on
     * measuring(@p completed) like recordLatency.
     */
    void recordBreakdown(ClassId c, const obs::PhaseBreakdown &bd,
                         sim::Time completed);

    /** Retained breakdowns (unordered; the slowest slowK by e2e). */
    const std::vector<obs::PhaseBreakdown> &slowSamples(ClassId c) const
    {
        return perClass_[c].slow;
    }

    /** CO-corrected response-latency distribution [us]. */
    const Histogram &response(ClassId c) const
    {
        return perClass_[c].response;
    }
    /** Send-to-completion (naive) distribution [us]. */
    const Histogram &service(ClassId c) const
    {
        return perClass_[c].service;
    }

    std::uint64_t completions(ClassId c) const
    {
        return perClass_[c].completions;
    }
    std::uint64_t timeouts(ClassId c) const
    {
        return perClass_[c].timeouts;
    }
    std::uint64_t retries(ClassId c) const
    {
        return perClass_[c].retries;
    }

    /**
     * Sliding-window response histogram, filled regardless of the
     * warmup gate; an SloMonitor drains it each evaluation period.
     */
    Histogram &window(ClassId c) { return perClass_[c].window; }

    /**
     * Pre-extend every class's histogram bucket windows to cover
     * latencies in [@p lo_us, @p hi_us], so recording inside an
     * alloc-gated measure window never grows a bucket array. Call
     * after addClass(), before the measure window opens.
     */
    void
    reserveLatencyRange(double lo_us, double hi_us)
    {
        for (PerClass &pc : perClass_) {
            pc.response.reserveRange(lo_us, hi_us);
            pc.service.reserveRange(lo_us, hi_us);
            pc.window.reserveRange(lo_us, hi_us);
        }
    }

    /**
     * Write the SLO report: one row per class with throughput over
     * the effective measure window and the corrected latency
     * percentiles. @p now bounds the window for still-running or
     * unbounded configs.
     */
    void writeReport(std::ostream &os, sim::Time now) const;

  private:
    struct PerClass
    {
        std::string name;
        Histogram response; ///< corrected: completion - intended [us]
        Histogram service;  ///< naive: completion - sent [us]
        Histogram window;   ///< recent, drained by SloMonitor
        std::uint64_t completions = 0;
        std::uint64_t timeouts = 0;
        std::uint64_t retries = 0;
        /** Min-heap on e2e: front is the fastest retained sample. */
        std::vector<obs::PhaseBreakdown> slow;
    };

    RecorderConfig cfg_;
    std::deque<PerClass> perClass_; ///< deque: stable registered addrs
    obs::Instrumented obs_;         ///< last member: deregisters first
};

/** One percentile target on one request class. */
struct SloConfig
{
    Recorder::ClassId cls = 0;
    double percentile = 99.0;
    sim::Time target = 0;               ///< violated when exceeded
    sim::Time window = 100 * sim::kMillisecond; ///< evaluation period
};

/**
 * Periodically evaluates the recorder's recent window against the
 * target; violations bump `load.slo*.violations` and emit a
 * flow-tracer instant so traces show when the tail went bad.
 */
class SloMonitor
{
  public:
    SloMonitor(sim::EventQueue &eq, Recorder &rec, SloConfig cfg);
    ~SloMonitor();

    SloMonitor(const SloMonitor &) = delete;
    SloMonitor &operator=(const SloMonitor &) = delete;

    std::uint64_t checks() const { return checks_; }
    std::uint64_t violations() const { return violations_; }

  private:
    void tick();

    sim::EventQueue &eq_;
    Recorder &rec_;
    SloConfig cfg_;
    sim::EventId timer_ = sim::kInvalidEvent;
    std::uint64_t checks_ = 0;
    std::uint64_t violations_ = 0;
    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::load

#endif // NPF_LOAD_RECORDER_HH
