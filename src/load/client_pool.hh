/**
 * @file
 * Flyweight client pool: multiplexes up to millions of logical
 * clients over a small, bounded set of transport endpoints.
 *
 * Scaling design (the ROADMAP's "heavy traffic from millions of
 * users" requirement):
 *
 *  - per-client state lives in one flat std::vector<Client> (a few
 *    dozen bytes each, no per-client heap objects or closures);
 *  - the pool schedules O(1) simulator events regardless of client
 *    count: one arrival event (open loop), one calendar-wheel event
 *    (think times and retry backoffs), one timeout-sweep event.
 *    Completions ride the transports' own callbacks;
 *  - in-flight requests are matched FIFO per endpoint (transports
 *    are ordered channels), so no per-request maps exist. A client
 *    has at most one request on the wire, so its in-flight record
 *    lives in its flyweight and each endpoint's FIFO is threaded
 *    through the client array: memory is O(clients + endpoints).
 *
 * Open-loop modes draw their arrival schedule up front from a seeded
 * process (see arrival.hh); when every logical client is busy the
 * surplus arrivals queue with their *intended* times so the recorder
 * can measure coordinated-omission-free latency. Closed-loop mode
 * reproduces the legacy memaslap generator draw-for-draw (see
 * app::Memaslap, now a preset over this pool).
 *
 * Client-side fault handling: an optional request timeout abandons
 * the oldest in-flight requests and retries them with exponential
 * backoff (load.pool*.timeouts / load.pool*.retries counters), so
 * fault plans that drop traffic surface as tail latency and retry
 * load rather than a wedged generator.
 */

#ifndef NPF_LOAD_CLIENT_POOL_HH
#define NPF_LOAD_CLIENT_POOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "load/arrival.hh"
#include "load/popularity.hh"
#include "load/recorder.hh"
#include "load/spec.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/ring_deque.hh"
#include "sim/series.hh"
#include "sim/time.hh"

namespace npf::load {

/**
 * One bounded transport endpoint (a TCP RpcChannel, an IB QP, ...)
 * the pool issues requests on. Adapters translate issue() onto the
 * wire and call ClientPool::complete() when the response arrives;
 * responses on one endpoint must arrive in issue order (true for RC
 * QPs and in-order message streams).
 */
class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Put one request on the wire. @p serial must round-trip to
     * ClientPool::complete() unchanged; it is narrow enough
     * (kSerialBits) to ride spare cookie bits.
     */
    virtual void issue(std::uint32_t serial, std::uint64_t key,
                       bool is_set, std::size_t bytes) = 0;
};

/** Pool parameters beyond the workload itself. */
struct PoolConfig
{
    std::uint64_t clients = 1; ///< logical clients (flyweights)
    WorkloadSpec workload;
    std::uint64_t seed = 99; ///< request stream; others derived

    sim::Time timeout = 0;  ///< request timeout (0 = never)
    unsigned maxRetries = 0; ///< resends after the first timeout
    sim::Time backoffBase = 100 * sim::kMicrosecond;
    sim::Time backoffCap = 10 * sim::kMillisecond;
    sim::Time sweepInterval = 0; ///< timeout scan period (0: timeout/4)

    sim::Time calendarBucket = 64 * sim::kMicrosecond;
    std::size_t calendarSlots = 4096;

    /** Open loop: max queued arrivals awaiting a free client, as a
     *  multiple of the client count; beyond it arrivals are shed
     *  (counted, so overload is visible, not silent). */
    unsigned backlogFactor = 4;
};

class ClientPool
{
  public:
    static constexpr unsigned kSerialBits = 14;
    static constexpr std::uint32_t kSerialMask = (1u << kSerialBits) - 1;

    ClientPool(sim::EventQueue &eq, PoolConfig cfg);
    ~ClientPool();

    ClientPool(const ClientPool &) = delete;
    ClientPool &operator=(const ClientPool &) = delete;

    /**
     * Attach a transport endpoint (before start()). @return index.
     * @p attrLane optionally names the obs::Attributor lane the
     * endpoint's requests travel through (-1 = no attribution); when
     * set, the pool snapshots the lane at send and diffs at complete
     * to build per-request phase breakdowns for the recorder.
     */
    unsigned addEndpoint(Transport &t, int attrLane = -1);

    /**
     * Attach a latency recorder; registers "get"/"set" classes.
     * Call before start().
     */
    void setRecorder(Recorder &rec);

    /** Begin generating load. */
    void start();

    /** Cancel all pending generator events. */
    void stop();

    /** Transport adapters: response with @p serial arrived on
     *  endpoint @p ep; @p hit is the GET-hit flag. */
    void complete(unsigned ep, std::uint32_t serial, bool hit);

    /** Per-transaction rate series (throughput-over-time figures). */
    void
    attachRateSeries(sim::RateSeries *tps, sim::RateSeries *hps)
    {
        tpsSeries_ = tps;
        hpsSeries_ = hps;
    }

    /** The key model, for scheduled working-set changes. */
    KeyModel &keyModel() { return *keys_; }

    std::uint64_t completions() const { return completions_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t issued() const { return issued_; }
    std::uint64_t timeouts() const { return timeouts_; }
    std::uint64_t retries() const { return retries_; }
    std::uint64_t giveups() const { return giveups_; }
    std::uint64_t lateResponses() const { return late_; }
    std::uint64_t shedArrivals() const { return shed_; }
    std::uint64_t clients() const { return cfg_.clients; }
    std::size_t endpoints() const { return eps_.size(); }

    /** Requests currently on the wire (all endpoints). */
    std::size_t inFlight() const { return inFlight_; }

    /** Reset transaction counters (e.g. after warm-up). */
    void resetCounters();

  private:
    static constexpr std::uint32_t kNoClient = ~std::uint32_t(0);

    /** Flyweight per-client state (flat array entry). */
    struct Client
    {
        enum class State : std::uint8_t {
            Idle,     ///< open loop: waiting for an arrival
            InFlight, ///< request on the wire
            Thinking, ///< closed loop: waiting out think time
            Backoff,  ///< timed out: waiting to resend
        };

        std::uint64_t key = 0;     ///< pending request key
        sim::Time intended = 0;    ///< schedule position (CO anchor)
        sim::Time wakeAt = 0;      ///< calendar re-check guard
        sim::Time sent = 0;        ///< wire time of the in-flight request
        std::uint32_t next = kNoClient; ///< endpoint FIFO link
        std::uint16_t serial = 0;  ///< in-flight request's serial
        std::uint8_t attempt = 0;  ///< resend count for this request
        bool isSet = false;
        State state = State::Idle;
    };

    /** Transport plus its in-flight FIFO, linked through clients_. */
    struct Endpoint
    {
        Transport *t = nullptr;
        std::uint32_t head = kNoClient; ///< oldest request's client
        std::uint32_t tail = kNoClient; ///< newest (valid if head is)
        std::uint32_t nextSerial = 0;
        int attrLane = -1;
    };

    std::uint32_t popInFlight(Endpoint &ep);
    unsigned endpointFor(std::uint32_t c);
    void issueNew(std::uint32_t c, sim::Time intended);
    void send(std::uint32_t c);
    void finishClient(std::uint32_t c);
    void onArrival();
    void armArrival();
    void calendarInsert(sim::Time when, std::uint32_t c);
    void calendarFire();
    void armCalendar();
    void sweep();
    sim::Time backoffDelay(unsigned attempt) const;

    sim::EventQueue &eq_;
    PoolConfig cfg_;
    sim::Rng rng_; ///< request (key, op) stream
    ArrivalProcess arrival_;
    sim::Rng thinkRng_; ///< think times: own stream, never perturbs rng_
    std::unique_ptr<KeyModel> keys_;

    std::vector<Client> clients_;   ///< flat flyweight state
    std::vector<Endpoint> eps_;
    std::vector<obs::PhaseBreakdown> snaps_; ///< lane snapshot at send
    unsigned rrNext_ = 0;           ///< open-loop endpoint round-robin

    // Open loop: free clients + surplus arrivals (intended times).
    sim::RingDeque<std::uint32_t> idle_;
    sim::RingDeque<sim::Time> backlog_;

    // Calendar wheel: slots of client indices, one armed event.
    std::vector<std::vector<std::uint32_t>> wheel_;
    std::vector<std::uint32_t> dueScratch_; ///< calendarFire swap buffer
    std::size_t wheelHead_ = 0;
    sim::Time wheelTime_ = 0;   ///< start time of wheel_[wheelHead_]
    std::size_t wheelCount_ = 0;
    sim::EventId wheelEvent_ = sim::kInvalidEvent;

    sim::EventId arrivalEvent_ = sim::kInvalidEvent;
    sim::EventId sweepEvent_ = sim::kInvalidEvent;

    Recorder *rec_ = nullptr;
    Recorder::ClassId getClass_ = 0;
    Recorder::ClassId setClass_ = 0;
    sim::RateSeries *tpsSeries_ = nullptr;
    sim::RateSeries *hpsSeries_ = nullptr;

    std::uint64_t issued_ = 0;
    std::uint64_t completions_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t giveups_ = 0;
    std::uint64_t late_ = 0;
    std::uint64_t shed_ = 0;
    std::size_t inFlight_ = 0; ///< all endpoints' FIFOs together

    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::load

#endif // NPF_LOAD_CLIENT_POOL_HH
