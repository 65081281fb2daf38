#include "obs/session.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>

#include "obs/attribution.hh"
#include "obs/flight.hh"
#include "obs/json.hh"
#include "sim/log.hh"

namespace npf::obs {

namespace {

/**
 * Merge pointer-keyed per-site entries by text with @p add: distinct
 * literals with identical spelling (one per TU) must read as one
 * site. The empty label (an unlabeled event) reads "(unlabeled)".
 */
template <typename V, typename Add>
std::map<std::string, V>
bySiteText(const std::unordered_map<const char *, V> &sites, Add add)
{
    std::map<std::string, V> merged;
    for (const auto &[site, v] : sites)
        add(merged[site[0] != '\0' ? site : "(unlabeled)"], v);
    return merged;
}

} // namespace

Session::Session(sim::EventQueue &eq, SessionOptions opt)
    : eq_(eq), opt_(std::move(opt))
{
    Registry &reg = Registry::global();
    priorDetail_ = reg.detail();
    reg.setDetail(true);
    // Archive the final values of components destroyed mid-run (sweep
    // benches tear models down every iteration) so the snapshot still
    // shows them.
    reg.setRetain(true);
    reg.clearRetired();

    FlowTracer &tr = tracer();
    tr.clear();
    tr.setClock(&eq_);
    tr.enable(opt_.trace);

    if (opt_.flightCapacity > 0) {
        FlightOptions fo;
        fo.capacity = opt_.flightCapacity;
        fo.dumpPath = opt_.flightDumpPath;
        fo.dumpOnSlo = opt_.flightDumpOnSlo;
        FlightRecorder::global().arm(std::move(fo));
    }

    Attributor &at = attributor();
    at.setClock(&eq_);
    at.enable(opt_.attribution);

    // The queue's site table is the one per-site account: it counts
    // every executed event (keyed by the label's address, so a site
    // allocates once, on its first event) and times them only under
    // profileEventLoop.
    eq_.clearProfile();
    eq_.enableSiteCounts(true);
    eq_.enableProfile(opt_.profileEventLoop);

    obs_.init("sim.eq");
    const sim::EventQueue::Stats &st = eq_.stats();
    obs_.counter("scheduled", &st.scheduled);
    obs_.counter("executed", &st.executed);
    obs_.counter("cancelled", &st.cancelled);
    obs_.gauge("live", [this] { return double(eq_.live()); });

    if (opt_.sampleInterval > 0) {
        std::vector<std::string> names = opt_.sampledCounters;
        if (names.empty())
            names.push_back(obs_.name() + ".executed");
        for (auto &n : names) {
            Sampled s;
            s.name = std::move(n);
            s.last = Registry::global().value(s.name).value_or(0.0);
            s.series =
                std::make_unique<sim::RateSeries>(opt_.sampleInterval);
            sampled_.push_back(std::move(s));
        }
        samplerEvent_ = eq_.scheduleAfter(
            opt_.sampleInterval, [this] { sampleTick(); }, "obs.sampler");
    }
}

Session::~Session()
{
    finish();
}

void
Session::sampleTick()
{
    for (Sampled &s : sampled_) {
        double cur = Registry::global().value(s.name).value_or(0.0);
        s.series->record(eq_.now(), cur - s.last);
        s.last = cur;
    }
    // Reschedule only while something else is live, so a draining
    // queue actually drains (eq.run() would otherwise never return).
    if (eq_.live() > 0)
        samplerEvent_ = eq_.scheduleAfter(
            opt_.sampleInterval, [this] { sampleTick(); }, "obs.sampler");
    else
        samplerEvent_ = sim::kInvalidEvent;
}

void
Session::finish()
{
    if (finished_)
        return;
    finished_ = true;

    eq_.enableSiteCounts(false);
    eq_.enableProfile(false);
    // A still-queued sampler tick would otherwise fire on a dead (or
    // finished) session: cancel it.
    eq_.cancel(samplerEvent_);
    samplerEvent_ = sim::kInvalidEvent;

    if (!opt_.metricsOut.empty()) {
        std::ofstream f(opt_.metricsOut);
        if (f)
            writeMetrics(f);
        else
            sim::logf(sim::LogLevel::Warn, eq_.now(),
                      "obs: cannot write metrics to %s",
                      opt_.metricsOut.c_str());
    }
    if (opt_.trace && !opt_.traceOut.empty()) {
        std::ofstream f(opt_.traceOut);
        if (f)
            writeTrace(f);
        else
            sim::logf(sim::LogLevel::Warn, eq_.now(),
                      "obs: cannot write trace to %s",
                      opt_.traceOut.c_str());
    }

    if (opt_.flightDumpAtEnd)
        FlightRecorder::global().dump("end-of-run");
    if (opt_.flightCapacity > 0)
        FlightRecorder::global().disarm();

    Attributor &at = attributor();
    at.enable(false);
    at.setClock(nullptr);

    FlowTracer &tr = tracer();
    tr.enable(false);
    tr.setClock(nullptr);
    Registry::global().setDetail(priorDetail_);
    Registry::global().setRetain(false);
    Registry::global().clearRetired();
}

void
Session::writeMetrics(std::ostream &os) const
{
    os << "{\"sim_time_ns\":" << eq_.now() << ",\"metrics\":";
    Registry::global().writeJson(os);

    auto merged = bySiteText(
        eq_.siteProfiles(), [](sim::EventQueue::SiteProfile &m,
                               const sim::EventQueue::SiteProfile &sp) {
            m.count += sp.count;
            m.wallNs += sp.wallNs;
            m.maxWallNs = std::max(m.maxWallNs, sp.maxWallNs);
            m.simLagNs += sp.simLagNs;
        });
    os << ",\"event_sites\":{";
    JsonSep sep;
    for (const auto &[site, sp] : merged) {
        sep.emit(os);
        jsonString(os, site);
        os << ':' << sp.count;
    }
    os << '}';

    if (opt_.profileEventLoop) {
        os << ",\"event_loop_profile\":{";
        sep.reset();
        for (const auto &[site, sp] : merged) {
            sep.emit(os);
            jsonString(os, site);
            os << ":{\"count\":" << sp.count
               << ",\"wall_ns\":" << sp.wallNs
               << ",\"max_wall_ns\":" << sp.maxWallNs
               << ",\"sim_lag_ns\":" << sp.simLagNs << '}';
        }
        os << '}';
    }

    os << ",\"series\":{";
    sep.reset();
    for (const Sampled &s : sampled_) {
        sep.emit(os);
        jsonString(os, s.name);
        os << ":{\"bucket_ns\":" << opt_.sampleInterval
           << ",\"counts\":[";
        JsonSep inner;
        for (std::size_t i = 0; i < s.series->buckets(); ++i) {
            inner.emit(os);
            jsonNumber(os, s.series->count(i));
        }
        os << "]}";
    }
    os << "}}";
}

void
Session::writeTrace(std::ostream &os) const
{
    tracer().writeChromeTrace(os);
}

const sim::RateSeries *
Session::series(const std::string &counter) const
{
    for (const Sampled &s : sampled_) {
        if (s.name == counter)
            return s.series.get();
    }
    return nullptr;
}

} // namespace npf::obs
