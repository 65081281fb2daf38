/**
 * @file
 * Observability-overhead microbenchmark: proves that the always-on
 * instrumentation hooks are free when nothing is armed.
 *
 * Two claims, both gates that scripts/check.sh tier 6 requires:
 *
 *  - disabled_overhead_pct (soft): an engine_speed-class event loop
 *    whose every callback hits the disabled-path gates (FlowTracer
 *    emits, Attributor block/charge calls) runs within 2% of the same
 *    loop without any instrumentation. Bare and disabled trials
 *    alternate (B D B D ...), so clock drift lands on both sides, and
 *    the gate reads the median of the per-pair overheads.
 *  - flight_steady_allocs (hard): with the flight ring armed,
 *    steady-state recording (begin/instant/end well past one ring
 *    wrap) performs zero heap allocations, verified by a counting
 *    global operator new.
 *  - trace_steady_allocs (hard): the same for full tracing: once
 *    armed, recording flows into the trace ring allocates nothing.
 *
 * An armed-ring timing is also reported (informational) so the cost
 * of leaving the flight recorder on for a whole run is visible.
 *
 * Emits BENCH_obs.json (override with --json=FILE); --smoke divides
 * the workload by 8 for CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "bench/common.hh"
#include "bench/report.hh"
#include "obs/attribution.hh"
#include "obs/flight.hh"
#include "obs/flow_tracer.hh"
#include "scenario/alloc_counter.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"

using namespace npf;
using npf::bench::secondsSince;

namespace {

/** What each trial's callbacks do on top of the xorshift work. */
enum class Mode {
    Bare,        ///< no instrumentation calls at all
    Disabled,    ///< gated calls, nothing armed (the claim under test)
    FlightArmed, ///< gated calls with the flight ring recording
};

/**
 * engine_speed-class workload: @p n packet deliveries scheduled at
 * random offsets and drained, each callback doing a short xorshift
 * chain. In Disabled/FlightArmed mode every callback additionally
 * hits the instrumentation entry points the real stack uses on its
 * fault hot paths: one flow begin/instant/end triple and an
 * Attributor block pair + charge.
 */
double
runTrial(Mode mode, std::uint64_t n, std::uint64_t *sink_out)
{
    sim::EventQueue eq;
    obs::FlowTracer &tr = obs::tracer();
    obs::Attributor &at = obs::attributor();
    tr.setClock(&eq);

    std::mt19937_64 rng(42);
    std::uniform_int_distribution<sim::Time> d(sim::kMicrosecond,
                                               10 * sim::kMillisecond);
    std::uint64_t sink = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto work = [&sink, &x] {
        for (int i = 0; i < 16; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        sink += x;
    };

    auto t0 = std::chrono::steady_clock::now();
    if (mode == Mode::Bare) {
        for (std::uint64_t i = 0; i < n; ++i)
            eq.scheduleAfter(d(rng), work, "obs_overhead.bare");
    } else {
        for (std::uint64_t i = 0; i < n; ++i) {
            eq.scheduleAfter(
                d(rng),
                [&work, &tr, &at] {
                    obs::FlowId f = tr.beginFlow("bench", "pkt");
                    tr.instant(obs::Track::Nic, "bench", "rx", f);
                    int lane = at.rootLane();
                    at.blockBegin(lane, obs::Phase::NpfDriver);
                    work();
                    at.blockEnd(lane, obs::Phase::NpfDriver);
                    at.charge(lane, obs::Phase::Server, 1);
                    tr.endFlow(f, "bench", "pkt");
                },
                "obs_overhead.gated");
        }
    }
    eq.run();
    double secs = secondsSince(t0);
    tr.setClock(nullptr);
    *sink_out = sink;
    return secs;
}

/** The @p q quantile of sorted @p v, interpolating linearly. */
double
quantile(const std::vector<double> &v, double q)
{
    double pos = q * double(v.size() - 1);
    std::size_t lo = std::size_t(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
minOfTrials(Mode mode, std::uint64_t n, unsigned trials,
            std::uint64_t *sink_out)
{
    double best = 1e99;
    for (unsigned t = 0; t < trials; ++t) {
        double s = runTrial(mode, n, sink_out);
        if (s < best)
            best = s;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json = "BENCH_obs.json";
    bool smoke = false;
    bench::parseFlagsOrExit(argc, argv, bench::timingFlags(&json, &smoke));
    const std::uint64_t scale = smoke ? 8 : 1;

    const std::uint64_t kEvents = 1'000'000 / scale;
    const unsigned kTrials = scale == 1 ? 5 : 3;
    constexpr double kThresholdPct = 2.0;

    std::printf("obs_overhead: instrumentation cost when nothing is "
                "armed (%llu events, %u bare/disabled trial pairs)\n",
                static_cast<unsigned long long>(kEvents), kTrials);

    // Nothing armed: tracing off, flight ring off, attribution off.
    obs::tracer().enable(false);
    obs::flightRecorder().disarm();
    obs::attributor().enable(false);

    // Alternate the two sides (B D B D ...) so drift in the machine's
    // speed lands on both; the gate reads the median pair.
    bench::Report rep("obs_overhead", json);
    std::uint64_t sink = 0;
    double bare = 1e99, disabled = 1e99;
    std::vector<double> overheads;
    for (unsigned t = 0; t < kTrials; ++t) {
        double b = runTrial(Mode::Bare, kEvents, &sink);
        double d = runTrial(Mode::Disabled, kEvents, &sink);
        bare = std::min(bare, b);
        disabled = std::min(disabled, d);
        overheads.push_back(100.0 * (d - b) / b);
        rep.row("pairs").set("bare_seconds", b).set("disabled_seconds", d)
            .set("overhead_pct", overheads.back());
    }
    std::sort(overheads.begin(), overheads.end());
    double overhead_pct = quantile(overheads, 0.5);
    double overhead_iqr =
        quantile(overheads, 0.75) - quantile(overheads, 0.25);
    std::printf("  bare      %8.3f s  %12.0f ev/s  (fastest trial)\n", bare,
                double(kEvents) / bare);
    std::printf("  disabled  %8.3f s  %12.0f ev/s  (fastest trial)\n",
                disabled, double(kEvents) / disabled);
    std::printf("  overhead  %+7.2f %%  median of %u pairs, IQR %.2f %%\n",
                overhead_pct, kTrials, overhead_iqr);

    // Informational: same loop with the flight ring recording.
    obs::FlightRecorder &fr = obs::flightRecorder();
    fr.arm(obs::FlightOptions{1u << 14, "obs_overhead_flight.json",
                              false, 0});
    double armed =
        minOfTrials(Mode::FlightArmed, kEvents, kTrials, &sink);
    std::printf("  armed     %8.3f s  %12.0f ev/s  (+%.1f%% vs bare, "
                "informational)\n",
                armed, double(kEvents) / armed,
                100.0 * (armed - bare) / bare);

    // Steady-state allocation checks: count every global new over a
    // large batch of begin/instant/span/end cycles. The flight ring is
    // already warm from the armed trials (well past one wrap); the
    // full-trace ring is armed and warmed right before its batch.
    sim::EventQueue eq;
    obs::tracer().setClock(&eq);
    const std::uint64_t kSteady = 100'000 / scale;
    auto steadyAllocs = [&eq](std::uint64_t cycles) {
        std::uint64_t before = scenario::allocCount();
        for (std::uint64_t i = 0; i < cycles; ++i) {
            obs::FlowId f = obs::tracer().beginFlow("bench", "steady");
            obs::tracer().instant(obs::Track::Nic, "bench", "rx", f);
            obs::tracer().span(obs::Track::Driver, "bench", "svc",
                               eq.now(), 1, f);
            obs::tracer().endFlow(f, "bench", "steady");
        }
        return scenario::allocCount() - before;
    };
    std::uint64_t flight_allocs = steadyAllocs(kSteady);
    std::printf("  ring: size=%zu overwritten=%llu\n",
                obs::tracer().flightSize(),
                static_cast<unsigned long long>(
                    obs::tracer().flightOverwritten()));
    fr.disarm();
    obs::tracer().enable(true);
    steadyAllocs(1000);
    std::uint64_t trace_allocs = steadyAllocs(kSteady);
    std::printf("  trace: events=%zu\n", obs::tracer().eventCount());
    obs::tracer().enable(false);
    obs::tracer().setClock(nullptr);

    rep.params.set("events", kEvents).set("trials", kTrials);
    rep.values.set("bare_seconds", bare).set("disabled_seconds", disabled)
        .set("armed_seconds", armed)
        .set("disabled_overhead_iqr_pct", overhead_iqr);
    rep.gate("disabled_overhead_pct", overhead_pct, bench::Cmp::Le,
             kThresholdPct, bench::Severity::Soft);
    rep.gate("flight_steady_allocs", flight_allocs, bench::Cmp::Eq, 0);
    rep.gate("trace_steady_allocs", trace_allocs, bench::Cmp::Eq, 0);
    return rep.finish();
}
