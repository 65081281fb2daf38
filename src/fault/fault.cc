#include "fault/fault.hh"

#include <cassert>

#include "obs/flow_tracer.hh"
#include "sim/spec_text.hh"

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

bool
parseSite(std::string_view v, Site &out)
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
parseAction(std::string_view v, Action &out)
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

/** Returns "" or what is wrong with clause @p text. */
std::string
parseClause(std::string_view text, FaultClause &c)
{
    using Trigger = FaultClause::Trigger;
    std::vector<std::string_view> parts = spec::split(text, ':');
    if (parts.size() < 2)
        return "want site:action[:params]";
    if (parts.size() > 3)
        return "too many ':' fields";

    if (!parseSite(parts[0], c.site))
        return "unknown site '" + std::string(parts[0]) + "'";
    if (!parseAction(parts[1], c.action))
        return "unknown action '" + std::string(parts[1]) + "'";
    if (!actionValidAt(c.site, c.action))
        return std::string("action '") + actionName(c.action) +
               "' not valid at site '" + siteName(c.site) + "'";

    // One trigger per clause; 'at' doubles as the first-fire offset of
    // 'every', in either order.
    bool triggerSet = false;
    auto trigger = [&c, &triggerSet](Trigger t, spec::Setter value) {
        return [&c, &triggerSet, t, value](const std::string &v)
                   -> std::string {
            if (std::string err = value(v); !err.empty())
                return err;
            bool atAndEvery = triggerSet && t != c.trigger &&
                              (t == Trigger::At || t == Trigger::Every) &&
                              (c.trigger == Trigger::At ||
                               c.trigger == Trigger::Every);
            if (triggerSet && !atAndEvery)
                return "clause has two triggers";
            c.trigger = atAndEvery ? Trigger::Every : t;
            triggerSet = true;
            return {};
        };
    };
    spec::Setter burst = [&c](const std::string &v) -> std::string {
        auto [width, period] = spec::cut(v, '@');
        if (!spec::parseDuration(width, &c.width) ||
            !spec::parseDuration(period, &c.period) || c.period == 0 ||
            c.width == 0 || c.width > c.period)
            return "want width@period, 0 < width <= period";
        return {};
    };
    std::string err = spec::applyKeys(
        parts.size() == 3 ? parts[2] : std::string_view(),
        {{"rate", trigger(Trigger::Rate, spec::number(&c.rate, 0.0, 1.0))},
         {"burst", trigger(Trigger::Burst, burst)},
         {"nth",
          trigger(Trigger::Nth, spec::count(&c.nth, std::uint64_t(1)))},
         {"at", trigger(Trigger::At, spec::duration(&c.at))},
         {"every", trigger(Trigger::Every, spec::duration(&c.period, 1))},
         {"count", spec::count(&c.count, std::uint64_t(1))},
         {"from", spec::duration(&c.from)},
         {"until", spec::duration(&c.until)},
         {"delay", spec::duration(&c.delay)},
         {"pages", spec::count(&c.magnitude)},
         {"entries", spec::count(&c.magnitude)}});
    if (!err.empty())
        return err;

    if (isTimedSite(c.site)) {
        if (!triggerSet ||
            (c.trigger != Trigger::At && c.trigger != Trigger::Every))
            return std::string("site '") + siteName(c.site) +
                   "' needs at= or every=";
        if (c.site == Site::Mem && c.magnitude == 0)
            c.magnitude = 256; // default pressure spike, in pages
    } else {
        if (!triggerSet ||
            (c.trigger != Trigger::Rate && c.trigger != Trigger::Burst &&
             c.trigger != Trigger::Nth))
            return std::string("site '") + siteName(c.site) +
                   "' needs rate=, burst= or nth=";
    }
    if (c.until <= c.from)
        return "empty [from, until) window";
    return {};
}

} // namespace

std::optional<FaultPlan>
FaultPlan::parse(const std::string &text, std::string *error)
{
    FaultPlan plan;
    plan.spec = text;
    for (std::string_view clause : spec::split(text, ';')) {
        if (clause.empty())
            continue;
        FaultClause c;
        if (std::string err = parseClause(clause, c); !err.empty()) {
            spec::fail(error, "clause '" + std::string(clause) + "': " + err);
            return std::nullopt;
        }
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
