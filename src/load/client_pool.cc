#include "load/client_pool.hh"

#include <algorithm>
#include <cassert>

namespace npf::load {

ClientPool::ClientPool(sim::EventQueue &eq, PoolConfig cfg)
    : eq_(eq), cfg_(cfg), rng_(cfg.seed),
      arrival_(cfg.workload.arrival, sim::mixSeed(cfg.seed, 1)),
      thinkRng_(sim::mixSeed(cfg.seed, 2)),
      keys_(KeyModel::make(cfg.workload.keys))
{
    if (cfg_.clients == 0)
        cfg_.clients = 1;
    assert(cfg_.clients < kNoClient && "client index must fit 32 bits");
    clients_.reserve(cfg_.clients);
    if (cfg_.sweepInterval == 0 && cfg_.timeout != 0)
        cfg_.sweepInterval = std::max<sim::Time>(cfg_.timeout / 4, 1);
    // The idle stack and the backlog ring have hard occupancy bounds;
    // reserve them up front so a rare burst never regrows them inside
    // an alloc-gated measure window (bench/stack_bench.cc asserts
    // steady-state allocs == 0). Reserving writes nothing, so an
    // unreached bound stays free.
    idle_.reserve(cfg_.clients);
    backlog_.reserve(std::size_t(cfg_.backlogFactor) * cfg_.clients);

    obs_.init("load.pool");
    obs_.counter("issued", &issued_);
    obs_.counter("completions", &completions_);
    obs_.counter("hits", &hits_);
    obs_.counter("timeouts", &timeouts_);
    obs_.counter("retries", &retries_);
    obs_.counter("giveups", &giveups_);
    obs_.counter("late_responses", &late_);
    obs_.counter("shed_arrivals", &shed_);
    obs_.gauge("in_flight",
               [this] { return static_cast<double>(inFlight()); });
    obs_.gauge("materialised",
               [this] { return static_cast<double>(materialised()); });
}

ClientPool::~ClientPool()
{
    stop();
}

unsigned
ClientPool::addEndpoint(Transport &t, int attrLane)
{
    Endpoint ep;
    ep.t = &t;
    ep.attrLane = attrLane;
    eps_.push_back(ep);
    return unsigned(eps_.size() - 1);
}

void
ClientPool::setRecorder(Recorder &rec)
{
    rec_ = &rec;
    getClass_ = rec.addClass("get");
    setClass_ = rec.addClass("set");
}

void
ClientPool::start()
{
    assert(!eps_.empty() && "pool needs at least one endpoint");
    // One PhaseBreakdown per client, paid only by attributed runs.
    attributed_ =
        std::any_of(eps_.begin(), eps_.end(),
                    [](const Endpoint &ep) { return ep.attrLane >= 0; });
    if (attributed_)
        snaps_.reserve(cfg_.clients);
    if (cfg_.workload.arrival.open()) {
        armArrival();
    } else {
        // Closed loop: every client fires immediately. Index order is
        // endpoint-major (clients map to endpoints in contiguous
        // blocks), matching the legacy per-channel window fill.
        materialise(cfg_.clients);
        for (std::uint32_t c = 0; c < cfg_.clients; ++c)
            issueNew(c, eq_.now());
    }
    if (cfg_.timeout != 0)
        sweepEvent_ = eq_.scheduleAfter(cfg_.sweepInterval,
                                        [this] { sweep(); },
                                        "load.pool.sweep");
}

void
ClientPool::stop()
{
    eq_.cancel(arrivalEvent_);
    eq_.cancel(sweepEvent_);
    arrivalEvent_ = sweepEvent_ = sim::kInvalidEvent;
    for (Client &cl : clients_) {
        eq_.cancel(cl.wake);
        cl.wake = sim::kInvalidEvent;
    }
}

void
ClientPool::materialise(std::size_t n)
{
    clients_.resize(n);
    if (attributed_)
        snaps_.resize(n);
}

std::uint32_t
ClientPool::popInFlight(Endpoint &ep)
{
    std::uint32_t c = ep.head;
    ep.head = clients_[c].next; // tail goes stale when empty: unread
    --inFlight_;
    return c;
}

void
ClientPool::resetCounters()
{
    issued_ = completions_ = hits_ = 0;
    timeouts_ = retries_ = giveups_ = late_ = shed_ = 0;
}

unsigned
ClientPool::endpointFor(std::uint32_t c)
{
    if (!cfg_.workload.arrival.open()) {
        // Fixed block assignment: client c's endpoint never changes,
        // so a closed loop is window-per-endpoint like memaslap.
        return unsigned((std::uint64_t(c) * eps_.size()) / cfg_.clients);
    }
    unsigned ep = rrNext_;
    rrNext_ = (rrNext_ + 1) % unsigned(eps_.size());
    return ep;
}

void
ClientPool::issueNew(std::uint32_t c, sim::Time intended)
{
    Client &cl = clients_[c];
    // One shared stream, key drawn before op: the draw order is part
    // of the reproducibility contract (and of memaslap parity).
    cl.key = keys_->next(rng_, eq_.now());
    cl.isSet = !rng_.bernoulli(cfg_.workload.getRatio);
    cl.intended = intended;
    cl.attempt = 0;
    send(c);
}

void
ClientPool::send(std::uint32_t c)
{
    Client &cl = clients_[c];
    unsigned epIdx = endpointFor(c);
    Endpoint &ep = eps_[epIdx];

    std::uint32_t serial = ep.nextSerial++ & kSerialMask;
    ep.nextSerial &= kSerialMask;
    // At most one request per client is on the wire (a timeout pops
    // the entry before the retry sends), so the record is the client.
    cl.serial = std::uint16_t(serial);
    cl.sent = eq_.now();
    cl.next = kNoClient;
    if (ep.head == kNoClient)
        ep.head = c;
    else
        clients_[ep.tail].next = c;
    ep.tail = c;
    ++inFlight_;
    if (ep.attrLane >= 0)
        obs::attributor().snapshot(ep.attrLane, snaps_[c]);

    cl.state = Client::State::InFlight;
    ++issued_;
    if (cl.attempt > 0) {
        ++retries_;
        if (rec_)
            rec_->recordRetry(cl.isSet ? setClass_ : getClass_,
                              eq_.now());
    }
    ep.t->issue(serial, cl.key, cl.isSet, cfg_.workload.requestBytes);
}

void
ClientPool::complete(unsigned epIdx, std::uint32_t serial, bool hit)
{
    Endpoint &ep = eps_[epIdx];
    if (ep.head == kNoClient || clients_[ep.head].serial != serial) {
        // Response to a request the timeout sweep already abandoned
        // (transports deliver in issue order, so a mismatched front
        // means the matching entry was popped, never reordered).
        ++late_;
        return;
    }
    std::uint32_t c = popInFlight(ep);

    Client &cl = clients_[c];
    ++completions_;
    if (hit)
        ++hits_;
    sim::Time now = eq_.now();
    if (tpsSeries_)
        tpsSeries_->record(now);
    if (hpsSeries_ && hit)
        hpsSeries_->record(now);
    if (rec_) {
        Recorder::ClassId cls = cl.isSet ? setClass_ : getClass_;
        rec_->recordLatency(cls, cl.intended, cl.sent, now);
        if (ep.attrLane >= 0) {
            // Phase-attribute the sojourn: blocking phases are the
            // lane's accumulation over the request's wire window; the
            // unexplained remainder is Queue, so the breakdown sums to
            // e2e exactly (see obs/attribution.hh).
            obs::PhaseBreakdown end;
            obs::attributor().snapshot(ep.attrLane, end);
            obs::PhaseBreakdown bd;
            std::int64_t blocking = 0;
            for (unsigned i = 0; i < obs::kPhaseCount; ++i) {
                bd.ns[i] = end.ns[i] - snaps_[c].ns[i];
                blocking += bd.ns[i];
            }
            bd.e2e = std::int64_t(now - cl.intended);
            bd.ns[unsigned(obs::Phase::Backlog)] =
                std::int64_t(cl.sent - cl.intended);
            bd.ns[unsigned(obs::Phase::Queue)] =
                std::int64_t(now - cl.sent) - blocking;
            rec_->recordBreakdown(cls, bd, now);
        }
    }
    finishClient(c);
}

void
ClientPool::finishClient(std::uint32_t c)
{
    Client &cl = clients_[c];
    if (cfg_.workload.arrival.open()) {
        if (!backlog_.empty()) {
            // A queued arrival has been waiting for a free client;
            // its latency clock started at its *intended* time.
            sim::Time intended = backlog_.front();
            backlog_.pop_front();
            issueNew(c, intended);
        } else {
            cl.state = Client::State::Idle;
            idle_.push_back(c);
        }
        return;
    }
    // Closed loop: think, then re-issue. Zero think time re-issues
    // inline from the completion callback — no event is scheduled, so
    // the legacy memaslap interleaving is preserved exactly.
    const ArrivalSpec &a = cfg_.workload.arrival;
    if (a.thinkMean == 0) {
        issueNew(c, eq_.now());
        return;
    }
    double thinkNs = double(a.thinkMean);
    if (a.expThink)
        thinkNs = thinkRng_.exponential(thinkNs);
    cl.state = Client::State::Thinking;
    wakeAt(eq_.now() + sim::Time(thinkNs), c);
}

// --- open-loop arrivals ----------------------------------------------

void
ClientPool::armArrival()
{
    sim::Time next = arrival_.next();
    if (next == ~sim::Time(0))
        return;
    // One arrival event per request at high offered load.
    arrivalEvent_ = eq_.schedule(next, [this] { onArrival(); },
                                 "load.pool.arrival");
}

void
ClientPool::onArrival()
{
    arrivalEvent_ = sim::kInvalidEvent;
    sim::Time intended = eq_.now();
    if (!idle_.empty()) {
        // Reuse before growth, newest release first (its flyweight is
        // the likeliest to be cached): the pool materialises a client
        // only when every one it has is busy.
        std::uint32_t c = idle_.back();
        idle_.pop_back();
        issueNew(c, intended);
    } else if (clients_.size() < cfg_.clients) {
        auto c = std::uint32_t(clients_.size());
        materialise(c + 1);
        issueNew(c, intended);
    } else if (backlog_.size() <
               std::size_t(cfg_.backlogFactor) * cfg_.clients) {
        backlog_.push_back(intended);
    } else {
        ++shed_;
    }
    armArrival();
}

// --- think and backoff wake-ups ---------------------------------------

void
ClientPool::wakeAt(sim::Time when, std::uint32_t c)
{
    // One event per waiting client, at its exact wake time.
    clients_[c].wake =
        eq_.schedule(when, [this, c] { wake(c); }, "load.pool.wake");
}

void
ClientPool::wake(std::uint32_t c)
{
    Client &cl = clients_[c];
    cl.wake = sim::kInvalidEvent;
    if (cl.state == Client::State::Thinking)
        issueNew(c, eq_.now());
    else
        send(c); // Backoff: resend, keeping key and intended time
}

// --- timeout sweep ----------------------------------------------------

sim::Time
ClientPool::backoffDelay(unsigned attempt) const
{
    sim::Time d = kPool.backoffBase;
    for (unsigned i = 1; i < attempt && d < kPool.backoffCap; ++i)
        d *= 2;
    return std::min(d, kPool.backoffCap);
}

void
ClientPool::sweep()
{
    sim::Time now = eq_.now();
    for (Endpoint &ep : eps_) {
        while (ep.head != kNoClient &&
               now - clients_[ep.head].sent >= cfg_.timeout) {
            std::uint32_t c = popInFlight(ep);
            ++timeouts_;
            Client &cl = clients_[c];
            if (cl.attempt < cfg_.maxRetries) {
                ++cl.attempt;
                cl.state = Client::State::Backoff;
                wakeAt(now + backoffDelay(cl.attempt), c);
            } else {
                ++giveups_;
                if (rec_)
                    rec_->recordTimeout(cl.isSet ? setClass_ : getClass_,
                                        cl.intended, now);
                finishClient(c);
            }
        }
    }
    sweepEvent_ = eq_.scheduleAfter(cfg_.sweepInterval,
                                    [this] { sweep(); },
                                    "load.pool.sweep");
}

} // namespace npf::load
