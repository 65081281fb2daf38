#include "obs/metrics.hh"

#include "obs/json.hh"
#include "sim/thread_owned.hh"

namespace npf::obs {

Registry &
Registry::global()
{
    // Never destroyed while its thread runs: components may
    // deregister from arbitrary static-destruction contexts; an
    // exiting shard worker frees it. thread_local so every shard
    // worker gets a private registry — components built via
    // ShardedEngine::invokeOn register with their own shard's
    // registry and never contend (docs/SHARDING.md).
    static thread_local Registry *r = sim::newThreadOwned<Registry>();
    return *r;
}

std::string
Registry::instanceName(const std::string &prefix)
{
    checkOwner("instanceName");
    unsigned n = instances_[prefix]++;
    return prefix + std::to_string(n);
}

Registry::Id
Registry::insert(std::string name, Entry e)
{
    checkOwner("insert");
    e.id = nextId_++;
    // Re-registering a name replaces the entry; drop the stale id
    // mapping so a later remove() of the old id cannot delete (or,
    // with retain on, archive over) the replacement.
    if (auto old = entries_.find(name); old != entries_.end())
        idToName_.erase(old->second.id);
    idToName_[e.id] = name;
    entries_[std::move(name)] = std::move(e);
    return nextId_ - 1;
}

Registry::Id
Registry::addCounter(std::string name, const std::uint64_t *v)
{
    Entry e;
    e.kind = Kind::Counter;
    e.counter = v;
    return insert(std::move(name), std::move(e));
}

Registry::Id
Registry::addGauge(std::string name, std::function<double()> fn)
{
    Entry e;
    e.kind = Kind::Gauge;
    e.gauge = std::move(fn);
    return insert(std::move(name), std::move(e));
}

Registry::Id
Registry::addHistogram(std::string name, const sim::Histogram *h)
{
    Entry e;
    e.kind = Kind::Histogram;
    e.histogram = h;
    return insert(std::move(name), std::move(e));
}

void
Registry::remove(Id id)
{
    checkOwner("remove");
    auto it = idToName_.find(id);
    if (it == idToName_.end())
        return;
    auto eit = entries_.find(it->second);
    if (eit != entries_.end() && eit->second.id == id) {
        if (retain_) {
            const Entry &e = eit->second;
            switch (e.kind) {
              case Kind::Counter:
                retiredCounters_[eit->first] = *e.counter;
                break;
              case Kind::Gauge:
                retiredGauges_[eit->first] = e.gauge();
                break;
              case Kind::Histogram:
                if (e.histogram->count() > 0)
                    retiredHistograms_[eit->first] = *e.histogram;
                break;
            }
        }
        entries_.erase(eit);
    }
    idToName_.erase(it);
}

void
Registry::removeAll(const std::vector<Id> &ids)
{
    for (Id id : ids)
        remove(id);
}

void
Registry::clearRetired()
{
    checkOwner("clearRetired");
    retiredCounters_.clear();
    retiredGauges_.clear();
    retiredHistograms_.clear();
}

std::size_t
Registry::retiredSize() const
{
    return retiredCounters_.size() + retiredGauges_.size() +
           retiredHistograms_.size();
}

std::optional<double>
Registry::value(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        if (auto rc = retiredCounters_.find(name);
            rc != retiredCounters_.end())
            return static_cast<double>(rc->second);
        if (auto rg = retiredGauges_.find(name);
            rg != retiredGauges_.end())
            return rg->second;
        return std::nullopt;
    }
    const Entry &e = it->second;
    switch (e.kind) {
      case Kind::Counter:
        return static_cast<double>(*e.counter);
      case Kind::Gauge:
        return e.gauge();
      case Kind::Histogram:
        return std::nullopt;
    }
    return std::nullopt;
}

std::vector<std::string>
Registry::names(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (const auto &[name, e] : entries_) {
        if (prefix.empty() || name.compare(0, prefix.size(), prefix) == 0)
            out.push_back(name);
    }
    return out;
}

namespace {

void
histogramJson(std::ostream &os, const sim::Histogram &h)
{
    os << "{\"count\":" << h.count() << ",\"mean\":";
    jsonNumber(os, h.mean());
    os << ",\"p50\":";
    jsonNumber(os, h.percentile(50));
    os << ",\"p90\":";
    jsonNumber(os, h.percentile(90));
    os << ",\"p99\":";
    jsonNumber(os, h.percentile(99));
    os << ",\"p99.9\":";
    jsonNumber(os, h.percentile(99.9));
    os << ",\"min\":";
    jsonNumber(os, h.min());
    os << ",\"max\":";
    jsonNumber(os, h.max());
    os << '}';
}

} // namespace

void
Registry::writeJson(std::ostream &os) const
{
    os << '{';
    JsonSep top;

    top.emit(os);
    os << "\"counters\":{";
    JsonSep sep;
    for (const auto &[name, v] : retiredCounters_) {
        sep.emit(os);
        jsonString(os, name);
        os << ':' << v;
    }
    for (const auto &[name, e] : entries_) {
        if (e.kind != Kind::Counter)
            continue;
        sep.emit(os);
        jsonString(os, name);
        os << ':' << *e.counter;
    }
    os << '}';

    top.emit(os);
    os << "\"gauges\":{";
    sep.reset();
    for (const auto &[name, v] : retiredGauges_) {
        sep.emit(os);
        jsonString(os, name);
        os << ':';
        jsonNumber(os, v);
    }
    for (const auto &[name, e] : entries_) {
        if (e.kind != Kind::Gauge)
            continue;
        sep.emit(os);
        jsonString(os, name);
        os << ':';
        jsonNumber(os, e.gauge());
    }
    os << '}';

    top.emit(os);
    os << "\"histograms\":{";
    sep.reset();
    for (const auto &[name, h] : retiredHistograms_) {
        sep.emit(os);
        jsonString(os, name);
        os << ':';
        histogramJson(os, h);
    }
    for (const auto &[name, e] : entries_) {
        if (e.kind != Kind::Histogram)
            continue;
        sep.emit(os);
        jsonString(os, name);
        os << ':';
        histogramJson(os, *e.histogram);
    }
    os << '}';

    os << '}';
}

} // namespace npf::obs
