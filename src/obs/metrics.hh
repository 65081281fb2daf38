/**
 * @file
 * The simulation-wide metrics registry.
 *
 * Every model component keeps its ad-hoc `struct Stats` exactly as
 * before — the registry holds *pointers* into those structs, so
 * registration costs a few string allocations at construction time
 * and the hot paths keep bumping plain integers. A snapshot walks
 * the registered entries and serializes them to JSON.
 *
 * Names are hierarchical, dot-separated, and instance-numbered:
 * `ib.qp0.rnr_nacks_sent`, `core.npf0.driver_ns`, `mem.mm1.evictions`.
 * Components obtain their instance prefix through an Instrumented
 * handle held as their last data member, which also guarantees
 * deregistration on destruction — before any registered field dies.
 */

#ifndef NPF_OBS_METRICS_HH
#define NPF_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#ifndef NDEBUG
#include <cstdio>
#include <cstdlib>
#include <thread>
#endif

#include "sim/histogram.hh"

namespace npf::obs {

/**
 * Registry of named metrics. One instance per thread via global();
 * separate registries can be created for tests.
 */
class Registry
{
  public:
    using Id = std::uint64_t;

    /**
     * The calling thread's registry. PER-THREAD, not process-wide:
     * global() is thread_local so that components built on a shard
     * worker (via ShardedEngine::invokeOn) register into that
     * shard's private registry with no locking. The flip side: a
     * registry only ever sees metrics registered on its own thread,
     * and writeJson() from the main thread reports none of the shard
     * workers' entries — snapshot each shard's registry on its own
     * thread (inside an invokeOn body) and merge the dumps. Debug
     * builds abort on any cross-thread mutation (checkOwner); in
     * release builds a component constructed on the wrong thread
     * silently lands in that thread's registry, so audit with a
     * debug run when metrics seem to be missing.
     */
    static Registry &global();

    /**
     * Allocate an instance-numbered prefix: instanceName("ib.qp")
     * returns "ib.qp0", then "ib.qp1", ... Monotonic per prefix for
     * the registry's lifetime, so names never collide.
     */
    std::string instanceName(const std::string &prefix);

    /** Register a counter backed by @p v (must outlive the entry). */
    Id addCounter(std::string name, const std::uint64_t *v);

    /** Register a gauge computed on snapshot by @p fn. */
    Id addGauge(std::string name, std::function<double()> fn);

    /** Register a latency/size distribution backed by @p h. */
    Id addHistogram(std::string name, const sim::Histogram *h);

    /** Remove one entry (no-op for unknown ids). */
    void remove(Id id);

    /** Remove several entries (the Instrumented destructor path). */
    void removeAll(const std::vector<Id> &ids);

    /** Number of registered entries. */
    std::size_t size() const { return entries_.size(); }

    /**
     * Current value of a counter or gauge by full name (live or
     * retired); nullopt for unknown names and histograms.
     */
    std::optional<double> value(const std::string &name) const;

    /** All registered names, sorted, optionally filtered by prefix. */
    std::vector<std::string> names(const std::string &prefix = {}) const;

    /**
     * Detail flag: when false (the default), components skip
     * optional per-event sample recording (e.g. per-NPF latency
     * histograms) so idle-path overhead stays at plain counter
     * increments. obs::Session raises it for its lifetime.
     */
    bool detail() const { return detail_; }
    void setDetail(bool on) { detail_ = on; }

    /**
     * Retain flag: while true, remove() archives the final value of
     * the departing entry instead of dropping it, so a snapshot taken
     * after a component died (sweep benches destroy models per
     * iteration; helpers build them in inner scopes) still shows its
     * counters. Instance numbering guarantees retired names never
     * clash with live ones. obs::Session raises this for its
     * lifetime and clears the retired set when it finishes.
     */
    void setRetain(bool on) { retain_ = on; }

    /** Drop all retired values. */
    void clearRetired();

    /** Number of retired (archived) entries. */
    std::size_t retiredSize() const;

    /**
     * Serialize every entry:
     * {"counters":{...},"gauges":{...},"histograms":{name:
     * {"count":..,"mean":..,"p50":..,"p90":..,"p99":..,"p99.9":..,
     * "min":..,"max":..}}}
     */
    void writeJson(std::ostream &os) const;

  private:
    /**
     * Registries are per-thread (global() is thread_local); debug
     * builds abort on mutation from any other thread — the loud
     * failure mode for a component leaking across a shard boundary
     * instead of registering through ShardedEngine::invokeOn.
     */
    void
    checkOwner(const char *op) const
    {
#ifndef NDEBUG
        if (std::this_thread::get_id() == owner_)
            return;
        std::fprintf(stderr,
                     "obs::Registry: %s from non-owner thread "
                     "(component crossed a shard boundary)\n",
                     op);
        std::abort();
#else
        (void)op;
#endif
    }

    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind = Kind::Counter;
        Id id = 0;
        const std::uint64_t *counter = nullptr;
        std::function<double()> gauge;
        const sim::Histogram *histogram = nullptr;
    };

    Id insert(std::string name, Entry e);

    std::map<std::string, Entry> entries_;     ///< sorted for output
    std::map<Id, std::string> idToName_;
    std::map<std::string, unsigned> instances_;
    std::map<std::string, std::uint64_t> retiredCounters_;
    std::map<std::string, double> retiredGauges_;
    std::map<std::string, sim::Histogram> retiredHistograms_;
    Id nextId_ = 1;
    bool detail_ = false;
    bool retain_ = false;
#ifndef NDEBUG
    std::thread::id owner_ = std::this_thread::get_id();
#endif
};

/**
 * Instrumentation handle for components that export metrics. Hold it
 * as the component's **last data member**:
 *
 *   class QueuePair {
 *     QueuePair(...) {
 *         obs_.init("ib.qp");                     // -> "ib.qp3"
 *         obs_.counter("rnr_nacks_sent", &stats_.rnrNacksSent);
 *     }
 *     ...
 *     Stats stats_;
 *     obs::Instrumented obs_;   // last: deregisters before stats_ dies
 *   };
 *
 * Deregistration is automatic in the destructor, so the registry
 * never holds dangling pointers. Declaration order is the whole
 * point: members are destroyed in reverse declaration order, so a
 * last-declared handle deregisters — and, under a session's retain
 * flag, archives final counter/histogram values and evaluates gauge
 * lambdas — while every registered field is still alive. (A
 * base-class mixin gets this wrong: base destructors run *after*
 * member destruction, which turned retain-mode archiving into a
 * use-after-free.) Non-copyable and non-movable: the registry
 * captures field addresses.
 */
class Instrumented
{
  public:
    Instrumented() = default;
    ~Instrumented() { Registry::global().removeAll(ids_); }

    Instrumented(const Instrumented &) = delete;
    Instrumented &operator=(const Instrumented &) = delete;

    /** The assigned instance prefix, e.g. "ib.qp3" ("" before init). */
    const std::string &name() const { return name_; }

    /** Claim an instance prefix from the global registry. */
    void
    init(const std::string &prefix)
    {
        name_ = Registry::global().instanceName(prefix);
    }

    void
    counter(const std::string &field, const std::uint64_t *v)
    {
        ids_.push_back(
            Registry::global().addCounter(name_ + "." + field, v));
    }

    void
    gauge(const std::string &field, std::function<double()> fn)
    {
        ids_.push_back(Registry::global().addGauge(
            name_ + "." + field, std::move(fn)));
    }

    void
    histogram(const std::string &field, const sim::Histogram *h)
    {
        ids_.push_back(
            Registry::global().addHistogram(name_ + "." + field, h));
    }

  private:
    std::string name_;
    std::vector<Registry::Id> ids_;
};

} // namespace npf::obs

#endif // NPF_OBS_METRICS_HH
