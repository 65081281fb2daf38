#include "fault/fault.hh"

#include <cassert>
#include <cctype>
#include <cstdlib>

#include "obs/flow_tracer.hh"

namespace npf::fault {

const char *
siteName(Site s)
{
    switch (s) {
      case Site::Link:  return "link";
      case Site::EthRx: return "eth.rx";
      case Site::IbRx:  return "ib.rx";
      case Site::TcpRx: return "tcp.rx";
      case Site::Npf:   return "npf";
      case Site::Mem:   return "mem";
      case Site::Iotlb: return "iotlb";
      case Site::Switch: return "switch";
    }
    return "?";
}

const char *
actionName(Action a)
{
    switch (a) {
      case Action::Drop:       return "drop";
      case Action::Duplicate:  return "dup";
      case Action::Reorder:    return "reorder";
      case Action::Delay:      return "delay";
      case Action::Corrupt:    return "corrupt";
      case Action::Stall:      return "stall";
      case Action::ForceFault: return "force";
      case Action::Pressure:   return "pressure";
      case Action::Evict:      return "evict";
      case Action::Pause:      return "pause";
      case Action::Flap:       return "flap";
    }
    return "?";
}

namespace {

/** Tracer names must be string literals (stored as const char*), so
 *  each valid (site, action) pair gets its own. */
const char *
injectionLabel(Site s, Action a)
{
    switch (s) {
      case Site::Link:
        switch (a) {
          case Action::Drop:      return "fault.link.drop";
          case Action::Duplicate: return "fault.link.dup";
          case Action::Reorder:   return "fault.link.reorder";
          case Action::Delay:     return "fault.link.delay";
          default: break;
        }
        break;
      case Site::EthRx:
        switch (a) {
          case Action::Corrupt: return "fault.eth.rx.corrupt";
          case Action::Stall:   return "fault.eth.rx.stall";
          default: break;
        }
        break;
      case Site::IbRx:
        switch (a) {
          case Action::Drop:      return "fault.ib.rx.drop";
          case Action::Duplicate: return "fault.ib.rx.dup";
          case Action::Reorder:   return "fault.ib.rx.reorder";
          case Action::Delay:     return "fault.ib.rx.delay";
          default: break;
        }
        break;
      case Site::TcpRx:
        switch (a) {
          case Action::Drop:      return "fault.tcp.rx.drop";
          case Action::Duplicate: return "fault.tcp.rx.dup";
          case Action::Reorder:   return "fault.tcp.rx.reorder";
          case Action::Delay:     return "fault.tcp.rx.delay";
          default: break;
        }
        break;
      case Site::Npf:
        if (a == Action::ForceFault)
            return "fault.npf.force";
        break;
      case Site::Mem:
        if (a == Action::Pressure)
            return "fault.mem.pressure";
        break;
      case Site::Iotlb:
        if (a == Action::Evict)
            return "fault.iotlb.evict";
        break;
      case Site::Switch:
        switch (a) {
          case Action::Drop:  return "fault.sw.drop";
          case Action::Stall: return "fault.sw.stall";
          case Action::Pause: return "fault.sw.pause";
          case Action::Flap:  return "fault.sw.flap";
          default: break;
        }
        break;
    }
    return "fault.inject";
}

bool
isTimedSite(Site s)
{
    return s == Site::Mem || s == Site::Iotlb;
}

/** Which actions make sense at which site. */
bool
actionValidAt(Site s, Action a)
{
    switch (s) {
      case Site::Link:
      case Site::IbRx:
      case Site::TcpRx:
        return a == Action::Drop || a == Action::Duplicate ||
               a == Action::Reorder || a == Action::Delay;
      case Site::EthRx:
        return a == Action::Corrupt || a == Action::Stall;
      case Site::Npf:
        return a == Action::ForceFault;
      case Site::Mem:
        return a == Action::Pressure;
      case Site::Iotlb:
        return a == Action::Evict;
      case Site::Switch:
        return a == Action::Drop || a == Action::Stall ||
               a == Action::Pause || a == Action::Flap;
    }
    return false;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

/** "200" (ns), "30us", "1.5ms", "2s". */
bool
parseTimeValue(const std::string &v, sim::Time &out)
{
    if (v.empty())
        return false;
    const char *begin = v.c_str();
    char *end = nullptr;
    double x = std::strtod(begin, &end);
    if (end == begin || x < 0.0)
        return false;
    std::string unit(end);
    double scale;
    if (unit.empty() || unit == "ns")
        scale = 1.0;
    else if (unit == "us")
        scale = double(sim::kMicrosecond);
    else if (unit == "ms")
        scale = double(sim::kMillisecond);
    else if (unit == "s")
        scale = double(sim::kSecond);
    else
        return false;
    out = static_cast<sim::Time>(x * scale);
    return true;
}

bool
parseU64(const std::string &v, std::uint64_t &out)
{
    if (v.empty())
        return false;
    char *end = nullptr;
    unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (end != v.c_str() + v.size())
        return false;
    out = x;
    return true;
}

bool
parseSite(const std::string &v, Site &out)
{
    for (unsigned i = 0; i < kSiteCount; ++i) {
        if (v == siteName(Site(i))) {
            out = Site(i);
            return true;
        }
    }
    return false;
}

bool
parseAction(const std::string &v, Action &out)
{
    for (unsigned i = 0; i < kActionCount; ++i) {
        if (v == actionName(Action(i))) {
            out = Action(i);
            return true;
        }
    }
    // long-form aliases
    if (v == "duplicate") {
        out = Action::Duplicate;
        return true;
    }
    return false;
}

bool
fail(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = msg;
    return false;
}

bool
parseClause(const std::string &text, FaultClause &c, std::string *error)
{
    std::vector<std::string> parts = split(text, ':');
    if (parts.size() < 2)
        return fail(error, "clause '" + text + "': want site:action[:params]");
    if (parts.size() > 3)
        return fail(error, "clause '" + text + "': too many ':' fields");

    if (!parseSite(trim(parts[0]), c.site))
        return fail(error, "unknown site '" + trim(parts[0]) + "'");
    if (!parseAction(trim(parts[1]), c.action))
        return fail(error, "unknown action '" + trim(parts[1]) + "'");
    if (!actionValidAt(c.site, c.action))
        return fail(error, std::string("action '") + actionName(c.action) +
                               "' not valid at site '" + siteName(c.site) +
                               "'");

    bool trigger_set = false;
    auto set_trigger = [&](FaultClause::Trigger t) {
        if (trigger_set)
            return false;
        c.trigger = t;
        trigger_set = true;
        return true;
    };

    if (parts.size() == 3) {
        for (const std::string &kv_text : split(parts[2], ',')) {
            std::string kv = trim(kv_text);
            if (kv.empty())
                continue;
            std::size_t eq = kv.find('=');
            if (eq == std::string::npos)
                return fail(error, "param '" + kv + "': want key=value");
            std::string key = trim(kv.substr(0, eq));
            std::string val = trim(kv.substr(eq + 1));

            if (key == "rate") {
                char *end = nullptr;
                c.rate = std::strtod(val.c_str(), &end);
                if (end != val.c_str() + val.size() || c.rate < 0.0 ||
                    c.rate > 1.0)
                    return fail(error, "rate '" + val + "': want 0..1");
                if (!set_trigger(FaultClause::Trigger::Rate))
                    return fail(error, "clause has two triggers");
            } else if (key == "burst") {
                // width@period, e.g. burst=50us@1ms
                std::size_t sep = val.find('@');
                if (sep == std::string::npos ||
                    !parseTimeValue(trim(val.substr(0, sep)), c.width) ||
                    !parseTimeValue(trim(val.substr(sep + 1)), c.period) ||
                    c.period == 0 || c.width == 0 || c.width > c.period)
                    return fail(error, "burst '" + val +
                                           "': want width@period, "
                                           "0 < width <= period");
                if (!set_trigger(FaultClause::Trigger::Burst))
                    return fail(error, "clause has two triggers");
            } else if (key == "nth") {
                if (!parseU64(val, c.nth) || c.nth == 0)
                    return fail(error, "nth '" + val + "': want >= 1");
                if (!set_trigger(FaultClause::Trigger::Nth))
                    return fail(error, "clause has two triggers");
            } else if (key == "at") {
                if (!parseTimeValue(val, c.at))
                    return fail(error, "at '" + val + "': bad time");
                // 'at' doubles as the first-fire offset of 'every';
                // only claim the trigger if none is set yet.
                if (!trigger_set)
                    set_trigger(FaultClause::Trigger::At);
                else if (c.trigger != FaultClause::Trigger::Every)
                    return fail(error, "clause has two triggers");
            } else if (key == "every") {
                if (!parseTimeValue(val, c.period) || c.period == 0)
                    return fail(error, "every '" + val + "': bad period");
                if (trigger_set && c.trigger == FaultClause::Trigger::At)
                    c.trigger = FaultClause::Trigger::Every; // at= came 1st
                else if (!set_trigger(FaultClause::Trigger::Every))
                    return fail(error, "clause has two triggers");
            } else if (key == "count") {
                if (!parseU64(val, c.count) || c.count == 0)
                    return fail(error, "count '" + val + "': want >= 1");
            } else if (key == "from") {
                if (!parseTimeValue(val, c.from))
                    return fail(error, "from '" + val + "': bad time");
            } else if (key == "until") {
                if (!parseTimeValue(val, c.until))
                    return fail(error, "until '" + val + "': bad time");
            } else if (key == "delay") {
                if (!parseTimeValue(val, c.delay))
                    return fail(error, "delay '" + val + "': bad time");
            } else if (key == "pages" || key == "entries") {
                if (!parseU64(val, c.magnitude))
                    return fail(error, key + " '" + val + "': bad count");
            } else {
                return fail(error, "unknown param '" + key + "'");
            }
        }
    }

    if (isTimedSite(c.site)) {
        if (!trigger_set || (c.trigger != FaultClause::Trigger::At &&
                             c.trigger != FaultClause::Trigger::Every))
            return fail(error, std::string("site '") + siteName(c.site) +
                                   "' needs at= or every=");
        if (c.site == Site::Mem && c.magnitude == 0)
            c.magnitude = 256; // default pressure spike, in pages
    } else {
        if (!trigger_set || (c.trigger != FaultClause::Trigger::Rate &&
                             c.trigger != FaultClause::Trigger::Burst &&
                             c.trigger != FaultClause::Trigger::Nth))
            return fail(error, std::string("site '") + siteName(c.site) +
                                   "' needs rate=, burst= or nth=");
    }
    if (c.until <= c.from)
        return fail(error, "empty [from, until) window");
    return true;
}

} // namespace

std::optional<FaultPlan>
FaultPlan::parse(const std::string &spec, std::string *error)
{
    FaultPlan plan;
    plan.spec = spec;
    for (const std::string &clause_text : split(spec, ';')) {
        std::string t = trim(clause_text);
        if (t.empty())
            continue;
        FaultClause c;
        if (!parseClause(t, c, error))
            return std::nullopt;
        plan.clauses.push_back(c);
    }
    return plan;
}

// --- FaultInjector ----------------------------------------------------

FaultInjector::FaultInjector(sim::EventQueue &eq, FaultPlan plan,
                             std::uint64_t seed)
    : eq_(eq), plan_(std::move(plan)), seed_(seed)
{
    assert(active_ == nullptr && "one FaultInjector at a time");
    st_.reserve(plan_.clauses.size());
    for (std::size_t i = 0; i < plan_.clauses.size(); ++i) {
        // Independent stream per clause, derived from the plan seed.
        st_.emplace_back(seed_ ^
                         (0x9e3779b97f4a7c15ull * (std::uint64_t(i) + 1)));
        bySite_[unsigned(plan_.clauses[i].site)].push_back(i);
    }

    obs_.init("fault.inj");
    for (unsigned s = 0; s < kSiteCount; ++s) {
        obs_.counter(std::string(siteName(Site(s))) + ".injected",
                     &injected_[s]);
    }

    active_ = this;

    for (std::size_t i = 0; i < plan_.clauses.size(); ++i) {
        const FaultClause &c = plan_.clauses[i];
        if (c.trigger == FaultClause::Trigger::At) {
            scheduleTimed(i, std::max(c.at, c.from));
        } else if (c.trigger == FaultClause::Trigger::Every) {
            sim::Time first = c.at != 0 ? c.at : c.period;
            first = std::max(first, c.from);
            if (first < c.until)
                scheduleTimed(i, first);
        }
    }
}

FaultInjector::~FaultInjector()
{
    for (ClauseState &cs : st_) {
        if (cs.timer != sim::kInvalidEvent) {
            eq_.cancel(cs.timer);
            cs.timer = sim::kInvalidEvent;
        }
    }
    assert(active_ == this);
    active_ = nullptr;
}

std::optional<FaultInjector::Decision>
FaultInjector::decide(Site site)
{
    unsigned s = unsigned(site);
    ++observed_[s];
    sim::Time now = eq_.now();
    std::optional<Decision> hit;
    for (std::size_t idx : bySite_[s]) {
        const FaultClause &c = plan_.clauses[idx];
        ClauseState &cs = st_[idx];
        ++cs.seen;
        bool match = false;
        switch (c.trigger) {
          case FaultClause::Trigger::Rate:
            // Draw unconditionally: a clause's stream depends only on
            // how many site events it has seen, never on whether a
            // sibling clause fired first.
            match = cs.rng.bernoulli(c.rate);
            break;
          case FaultClause::Trigger::Burst:
            match = now >= c.from && ((now - c.from) % c.period) < c.width;
            break;
          case FaultClause::Trigger::Nth:
            match = cs.seen == c.nth;
            break;
          case FaultClause::Trigger::At:
          case FaultClause::Trigger::Every:
            break; // timed triggers never match polled events
        }
        if (!match || hit.has_value() || now < c.from || now >= c.until)
            continue;
        ++cs.fired;
        ++injected_[s];
        obs::FlowTracer &tr = obs::tracer();
        if (tr.active())
            tr.instant(obs::Track::Sim, "fault",
                       injectionLabel(site, c.action));
        if (clauseHook_)
            clauseHook_(idx, site, c.action, cs.fired);
        hit = Decision{c.action, c.delay};
    }
    return hit;
}

void
FaultInjector::onTimedAction(Site site, TimedHandler h)
{
    handlers_[unsigned(site)] = std::move(h);
}

std::uint64_t
FaultInjector::injectedTotal() const
{
    std::uint64_t total = 0;
    for (unsigned s = 0; s < kSiteCount; ++s)
        total += injected_[s];
    return total;
}

std::uint64_t
FaultInjector::clauseFired(std::size_t idx) const
{
    return st_.at(idx).fired;
}

void
FaultInjector::scheduleTimed(std::size_t idx, sim::Time when)
{
    st_[idx].timer = eq_.schedule(when, [this, idx] {
        st_[idx].timer = sim::kInvalidEvent;
        fireTimed(idx);
    }, "fault.timed");
}

void
FaultInjector::fireTimed(std::size_t idx)
{
    const FaultClause &c = plan_.clauses[idx];
    ClauseState &cs = st_[idx];
    unsigned s = unsigned(c.site);
    ++cs.fired;
    ++injected_[s];
    obs::FlowTracer &tr = obs::tracer();
    if (tr.active())
        tr.instant(obs::Track::Sim, "fault",
                   injectionLabel(c.site, c.action));
    if (clauseHook_)
        clauseHook_(idx, c.site, c.action, cs.fired);
    if (handlers_[s])
        handlers_[s](c.magnitude);
    if (c.trigger == FaultClause::Trigger::Every) {
        if (c.count != 0 && cs.fired >= c.count)
            return;
        sim::Time next = eq_.now() + c.period;
        if (next < c.until)
            scheduleTimed(idx, next);
    }
}

} // namespace npf::fault
