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

bool
FlowTracer::admit()
{
    if (events_.size() >= capacity_) {
        ++dropped_;
        return false;
    }
    return true;
}

void
FlowTracer::push(const Event &e)
{
    if (enabled_ && admit())
        events_.push_back(e);
    if (flightCap_ != 0) {
        flight_[flightHead_] = e;
        flightHead_ = flightHead_ + 1 == flightCap_ ? 0 : flightHead_ + 1;
        if (flightCount_ < flightCap_)
            ++flightCount_;
        else
            ++flightOverwritten_;
    }
}

void
FlowTracer::setFlightCapacity(std::size_t cap)
{
    flightCap_ = cap;
    flightHead_ = 0;
    flightCount_ = 0;
    flightOverwritten_ = 0;
    flight_.assign(cap, Event{});
    flight_.shrink_to_fit();
    if (cap != 0)
        flightOpen_.assign(kFlightOpenSlots, FlightOpen{0, "", ""});
    else {
        flightOpen_.clear();
        flightOpen_.shrink_to_fit();
    }
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
    if (enabled_)
        open_[f] = FlowInfo{cat, name};
    else
        // Flight-only: fixed-slot table, no allocation. A collision
        // evicts the older flow; its end event is then skipped, which
        // the ring (itself lossy by design) tolerates.
        flightOpen_[f & (kFlightOpenSlots - 1)] = FlightOpen{f, cat, name};
    push(Event{'b', 0, f, cat, name, t, 0, 0.0});
    return f;
}

void
FlowTracer::endFlow(FlowId f)
{
    if (!active() || f == 0)
        return;
    endFlowAt(f, now());
}

void
FlowTracer::endFlowAt(FlowId f, sim::Time t)
{
    if (!active() || f == 0)
        return;
    if (enabled_) {
        auto it = open_.find(f);
        if (it == open_.end())
            return;
        push(Event{'e', 0, f, it->second.cat, it->second.name, t, 0,
                   0.0});
        open_.erase(it);
        return;
    }
    FlightOpen &slot = flightOpen_[f & (kFlightOpenSlots - 1)];
    if (slot.id != f)
        return;
    push(Event{'e', 0, f, slot.cat, slot.name, t, 0, 0.0});
    slot.id = 0;
}

void
FlowTracer::span(Track track, const char *cat, const char *name,
                 sim::Time start, sim::Time dur, FlowId f)
{
    if (!active())
        return;
    push(Event{'X', static_cast<int>(track), f, cat, name, start, dur,
               0.0});
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
    push(Event{'i', static_cast<int>(track), f, cat, name, t, 0, 0.0});
}

void
FlowTracer::counter(const char *name, double value)
{
    if (!active())
        return;
    push(Event{'C', static_cast<int>(Track::Sim), 0, "counter", name,
               now(), 0, value});
}

void
FlowTracer::clear()
{
    events_.clear();
    open_.clear();
    dropped_ = 0;
    flightHead_ = 0;
    flightCount_ = 0;
    flightOverwritten_ = 0;
    for (FlightOpen &s : flightOpen_)
        s.id = 0;
}

void
FlowTracer::writeProlog(std::ostream &os) const
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
      case 'C':
        os << ",\"tid\":" << e.tid << ",\"ts\":";
        jsonNumber(os, ts);
        break;
    }
    os << ",\"cat\":";
    jsonString(os, e.cat);
    os << ",\"name\":";
    jsonString(os, e.name);
    if (e.ph == 'C') {
        os << ",\"args\":{\"value\":";
        jsonNumber(os, e.value);
        os << '}';
    } else if (e.flow != 0) {
        os << ",\"args\":{\"flow\":" << e.flow << '}';
    }
    os << '}';
}

void
FlowTracer::writeChromeTrace(std::ostream &os) const
{
    writeProlog(os);
    for (const Event &e : events_) {
        os << ',';
        writeEventJson(os, e);
    }
    os << "]}";
}

void
FlowTracer::writeFlightTrace(std::ostream &os) const
{
    writeProlog(os);
    // Oldest event first: when full, the head slot (next overwrite
    // target) is the oldest; otherwise the ring starts at slot 0.
    std::size_t start =
        flightCount_ == flightCap_ ? flightHead_ : 0;
    for (std::size_t i = 0; i < flightCount_; ++i) {
        std::size_t idx = start + i;
        if (idx >= flightCap_)
            idx -= flightCap_;
        os << ',';
        writeEventJson(os, flight_[idx]);
    }
    os << "]}";
}

} // namespace npf::obs
