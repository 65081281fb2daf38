#include "obs/flow_tracer.hh"

#include "obs/json.hh"
#include "sim/log.hh"
#include "sim/thread_owned.hh"

namespace npf::obs {

namespace {

/** Log annotator: prefix log lines with the active flow id. */
void
annotateLogLine(std::FILE *out)
{
    FlowTracer &t = tracer();
    // Only in full-trace mode: flow-id prefixes are for correlating
    // logs against a complete trace, not against the flight ring.
    if (t.enabled() && t.currentFlow() != 0)
        std::fprintf(out, "[flow %llu] ",
                     static_cast<unsigned long long>(t.currentFlow()));
}

const char *
trackName(int tid)
{
    switch (static_cast<Track>(tid)) {
      case Track::Nic:
        return "nic-fw";
      case Track::Driver:
        return "driver";
      case Track::Iommu:
        return "iommu";
      case Track::Mem:
        return "mem";
      case Track::Net:
        return "net";
      case Track::Transport:
        return "transport";
      case Track::App:
        return "app";
      case Track::Sim:
        return "sim";
    }
    return "other";
}

} // namespace

FlowTracer &
FlowTracer::global()
{
    static thread_local FlowTracer *t = [] {
        auto *tr = sim::newThreadOwned<FlowTracer>();
        sim::setLogAnnotator(&annotateLogLine);
        return tr;
    }();
    return *t;
}

void
FlowTracer::enable(bool on)
{
    enabled_ = on;
    resizeRing();
}

void
FlowTracer::setFlightCapacity(std::size_t cap)
{
    flightCap_ = cap;
    resizeRing();
}

void
FlowTracer::resizeRing()
{
    std::size_t cap = std::max(enabled_ ? kTraceEvents : 0, flightCap_);
    if (cap == ringCap_)
        return;
    decltype(ring_)().swap(ring_);
    ring_.reserve(cap);
    ringCap_ = cap;
    clear();
}

void
FlowTracer::push(const Event &e)
{
    if (ring_.size() < ringCap_) {
        ring_.push_back(e);
    } else {
        ring_[head_] = e;
        head_ = head_ + 1 == ringCap_ ? 0 : head_ + 1;
    }
    ++pushed_;
}

FlowId
FlowTracer::beginFlow(const char *cat, const char *name)
{
    if (!active())
        return 0;
    return beginFlowAt(cat, name, now());
}

FlowId
FlowTracer::beginFlowAt(const char *cat, const char *name, sim::Time t)
{
    if (!active())
        return 0;
    FlowId f = nextFlow_++;
    push(Event{'b', 0, f, cat, name, t, 0});
    return f;
}

void
FlowTracer::endFlow(FlowId f, const char *cat, const char *name)
{
    if (!active() || f == 0)
        return;
    endFlowAt(f, cat, name, now());
}

void
FlowTracer::endFlowAt(FlowId f, const char *cat, const char *name,
                      sim::Time t)
{
    if (!active() || f < firstFlow_)
        return;
    push(Event{'e', 0, f, cat, name, t, 0});
}

void
FlowTracer::span(Track track, const char *cat, const char *name,
                 sim::Time start, sim::Time dur, FlowId f)
{
    if (!active())
        return;
    push(Event{'X', static_cast<int>(track), f, cat, name, start, dur});
}

void
FlowTracer::instant(Track track, const char *cat, const char *name,
                    FlowId f)
{
    if (!active())
        return;
    instantAt(track, cat, name, now(), f);
}

void
FlowTracer::instantAt(Track track, const char *cat, const char *name,
                      sim::Time t, FlowId f)
{
    if (!active())
        return;
    push(Event{'i', static_cast<int>(track), f, cat, name, t, 0});
}

void
FlowTracer::clear()
{
    ring_.clear();
    head_ = 0;
    pushed_ = 0;
    firstFlow_ = nextFlow_;
}

void
FlowTracer::writeEventJson(std::ostream &os, const Event &e) const
{
    // ts in microseconds (Chrome's unit), sub-us as fractions.
    double ts = static_cast<double>(e.ts) / 1000.0;
    os << "{\"ph\":\"" << e.ph << "\",\"pid\":0";
    switch (e.ph) {
      case 'X':
        os << ",\"tid\":" << e.tid << ",\"ts\":";
        jsonNumber(os, ts);
        os << ",\"dur\":";
        jsonNumber(os, static_cast<double>(e.dur) / 1000.0);
        break;
      case 'i':
        os << ",\"tid\":" << e.tid << ",\"ts\":";
        jsonNumber(os, ts);
        os << ",\"s\":\"t\"";
        break;
      case 'b':
      case 'e':
        os << ",\"tid\":0,\"id\":" << e.flow << ",\"ts\":";
        jsonNumber(os, ts);
        break;
    }
    os << ",\"cat\":";
    jsonString(os, e.cat);
    os << ",\"name\":";
    jsonString(os, e.name);
    if (e.flow != 0)
        os << ",\"args\":{\"flow\":" << e.flow << '}';
    os << '}';
}

void
FlowTracer::write(std::ostream &os, std::size_t n) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    JsonSep sep;

    // Track-name metadata so the viewer labels each layer.
    for (int tid = 1; tid <= 8; ++tid) {
        sep.emit(os);
        os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
           << ",\"name\":\"thread_name\",\"args\":{\"name\":";
        jsonString(os, trackName(tid));
        os << "}}";
    }
    // head_ is the oldest slot; skip to the newest n, oldest first.
    std::size_t idx = head_ + (ring_.size() - n);
    for (std::size_t i = 0; i < n; ++i, ++idx) {
        if (idx >= ring_.size())
            idx -= ring_.size();
        os << ',';
        writeEventJson(os, ring_[idx]);
    }
    os << "]}";
}

} // namespace npf::obs
