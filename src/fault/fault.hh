/**
 * @file
 * Deterministic fault injection for npfsim.
 *
 * A FaultPlan is a parsed list of clauses, each binding one *site*
 * (an injection point in the stack) to one *action* and a trigger
 * process: a Bernoulli rate, a recurring burst window, an exact
 * event ordinal, or a scripted (time, site, action) schedule for the
 * timed sites. A FaultInjector owns the per-clause random streams
 * (seeded independently, in the sim::Rng idiom: interleaving one
 * site's events never perturbs another clause's draws) and installs
 * itself as the process-wide active injector.
 *
 * Hook design mirrors the obs layer: every hot path guards with a
 * single `FaultInjector::active()` pointer test, so with no plan
 * installed no extra branches beyond that are taken, no random
 * numbers are drawn and no events are scheduled — simulations are
 * bit-identical to a build without the hooks.
 *
 * The grammar accepted by FaultPlan::parse() is documented in
 * docs/FAULTS.md:
 *
 *   plan   := clause (';' clause)*
 *   clause := site ':' action [':' key '=' value (',' key '=' value)*]
 *
 * with values in the shared syntax of sim/spec_text.hh.
 *
 * e.g. "link:drop:rate=0.01;ib.rx:reorder:rate=0.005,delay=50us;
 *       mem:pressure:every=2ms,count=10,pages=512".
 */

#ifndef NPF_FAULT_FAULT_HH
#define NPF_FAULT_FAULT_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/time.hh"

namespace npf::fault {

/** Injection points. Most are event sites (polled by the component
 *  on each traversal); Mem and Iotlb are timed sites whose actions
 *  fire on a schedule through registered handlers. Append-only: the
 *  enum values seed per-clause RNG streams, so renumbering would
 *  silently change every existing plan's replay. */
enum class Site : unsigned {
    Link = 0, ///< net::Link::send() — every packet on a wire
    EthRx,    ///< eth::EthNic::receive() — every inbound frame
    IbRx,     ///< ib::QueuePair::handlePacket() — every IB packet
    TcpRx,    ///< tcp::TcpConnection::receiveSegment()
    Npf,      ///< core::NpfController checkDma()/dmaAccess()
    Mem,      ///< timed: memory-pressure spike (handler-delivered)
    Iotlb,    ///< timed: IOTLB eviction storm (handler-delivered)
    Switch,   ///< net::Switch::receive() — every switched packet
};
constexpr unsigned kSiteCount = 8;

/** What an injection does at its site. */
enum class Action : unsigned {
    Drop = 0,   ///< link/ib.rx/tcp.rx: discard the packet
    Duplicate,  ///< link/ib.rx/tcp.rx: deliver it twice
    Reorder,    ///< link/ib.rx/tcp.rx: extra latency, later traffic
                ///< overtakes (wire stays FIFO-busy, arrival shifts)
    Delay,      ///< same mechanics as Reorder; separate counter intent
    Corrupt,    ///< eth.rx: FCS failure — frame counted then dropped
    Stall,      ///< eth.rx: RX pipeline stalls before ring dispatch
    ForceFault, ///< npf: next device translation reports a miss
    Pressure,   ///< mem (timed): reclaim `magnitude` pages now
    Evict,      ///< iotlb (timed): evict `magnitude` entries (0 = all)
    Pause,      ///< switch: forced PFC storm upstream for `delay`
    Flap,       ///< switch: egress port drops carrier for `delay`
};
constexpr unsigned kActionCount = 11;

const char *siteName(Site s);
const char *actionName(Action a);

/** One fault process bound to a site. */
struct FaultClause
{
    enum class Trigger {
        Rate,  ///< independent Bernoulli(p) per site event
        Burst, ///< all events inside recurring [k*period, +width) hit
        Nth,   ///< exactly the nth event at the site (1-based)
        At,    ///< timed sites: fire once at an absolute time
        Every, ///< timed sites: fire periodically
    };

    Site site = Site::Link;
    Action action = Action::Drop;
    Trigger trigger = Trigger::Rate;

    double rate = 0.0;         ///< Rate: hit probability
    sim::Time period = 0;      ///< Burst/Every: recurrence interval
    sim::Time width = 0;       ///< Burst: window length
    std::uint64_t nth = 0;     ///< Nth: 1-based event ordinal
    sim::Time at = 0;          ///< At: fire time; Every: first fire
    std::uint64_t count = 0;   ///< Every: max firings (0 = unbounded)
    sim::Time from = 0;        ///< gate: active at or after
    sim::Time until =          ///< gate: inactive at or after
        std::numeric_limits<sim::Time>::max();

    sim::Time delay = 10 * sim::kMicrosecond; ///< Delay/Reorder/Stall
    std::uint64_t magnitude = 0;              ///< Pressure/Evict size
};

/** A parsed, validated fault plan. */
class FaultPlan
{
  public:
    /**
     * Parse @p spec (grammar above). Returns nullopt on a malformed
     * spec and, when @p error is non-null, stores a diagnostic.
     * An empty/blank spec parses to an empty plan (no clauses).
     */
    static std::optional<FaultPlan> parse(const std::string &spec,
                                          std::string *error = nullptr);

    bool empty() const { return clauses.empty(); }

    std::vector<FaultClause> clauses;
    std::string spec; ///< original text, for echoing in bench output
};

/**
 * The live injector. Constructing one installs it as the process-wide
 * active injector (at most one at a time); destruction uninstalls it
 * and cancels any pending timed-action events.
 */
class FaultInjector
{
  public:
    /** Outcome of decide() when a clause hits. */
    struct Decision
    {
        Action action;
        sim::Time delay; ///< Delay/Reorder/Stall magnitude
    };

    /** Timed-site callback; receives the clause's magnitude. */
    using TimedHandler = std::function<void(std::uint64_t magnitude)>;

    /**
     * Observer invoked on every clause firing (polled hits and timed
     * actions alike), after the injection counters are bumped but
     * before the effect is delivered. @p fired is the clause's firing
     * count including this one. Runs inside the injection path — keep
     * it cheap and do not mutate the injector from it. Used by the
     * chaos harness to dump the flight recorder at clause boundaries.
     */
    using ClauseHook = std::function<void(
        std::size_t clauseIdx, Site site, Action action,
        std::uint64_t fired)>;

    FaultInjector(sim::EventQueue &eq, FaultPlan plan,
                  std::uint64_t seed = 1);
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** The installed injector, or nullptr. The ONLY hot-path cost of
     *  this subsystem when no plan is active is this pointer test. */
    static FaultInjector *active() { return active_; }

    /**
     * Poll @p site for an injection on the current event. Evaluates
     * every clause bound to the site (each consumes its own draws, so
     * clause streams are mutually independent); the first hit in plan
     * order wins. Counts the hit and emits a flow-tracer instant.
     */
    std::optional<Decision> decide(Site site);

    /**
     * Register the effector for a timed site (Mem, Iotlb). The
     * injector cannot depend on mem/iommu (layering), so harnesses
     * translate magnitudes into reclaimPages()/invalidation calls.
     */
    void onTimedAction(Site site, TimedHandler h);

    /** Install (or clear, with nullptr) the clause-firing observer. */
    void onClauseFired(ClauseHook h) { clauseHook_ = std::move(h); }

    /** Injections delivered at @p site so far. */
    std::uint64_t injected(Site site) const
    {
        return injected_[unsigned(site)];
    }
    std::uint64_t injectedTotal() const;
    /** Firings of plan clause @p idx. */
    std::uint64_t clauseFired(std::size_t idx) const;

    const FaultPlan &plan() const { return plan_; }
    std::uint64_t seed() const { return seed_; }

  private:
    struct ClauseState
    {
        sim::Rng rng;
        std::uint64_t seen = 0;  ///< site events observed
        std::uint64_t fired = 0; ///< injections delivered
        sim::EventId timer = sim::kInvalidEvent;

        explicit ClauseState(std::uint64_t s) : rng(s) {}
    };

    void scheduleTimed(std::size_t idx, sim::Time when);
    void fireTimed(std::size_t idx);

    sim::EventQueue &eq_;
    FaultPlan plan_;
    std::uint64_t seed_;
    std::vector<ClauseState> st_;
    std::vector<std::size_t> bySite_[kSiteCount];
    TimedHandler handlers_[kSiteCount];
    ClauseHook clauseHook_;
    std::uint64_t injected_[kSiteCount] = {};

    /** thread_local: each shard worker arms its own injector
     *  (a fault plan never spans shards). constinit: no TLS wrapper
     *  call, so active() is one plain load from every TU. */
    static constinit inline thread_local FaultInjector *active_ = nullptr;

    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::fault

#endif // NPF_FAULT_FAULT_HH
