/**
 * @file
 * Load-subsystem tests: workload-spec grammar, arrival-process
 * determinism and statistics, key-popularity models, the histogram's
 * coordinated-omission back-fill and merge, recorder windowing and
 * registry export, and the flyweight client pool end to end over stub
 * transports — including the coordinated-omission contract (a
 * stalled server inflates *response* latency, not just service
 * latency), the timeout/retry/give-up path and late responses to
 * abandoned requests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "app/storage.hh"
#include "load/arrival.hh"
#include "load/client_pool.hh"
#include "load/popularity.hh"
#include "load/recorder.hh"
#include "load/spec.hh"
#include "obs/json.hh"
#include "scenario/ib_world.hh"
#include "sim/event_queue.hh"
#include "sim/spec_text.hh"

using namespace npf;
using namespace npf::load;

namespace {

WorkloadSpec
mustParse(const std::string &text)
{
    std::string err;
    auto s = WorkloadSpec::parse(text, &err);
    EXPECT_TRUE(s.has_value()) << text << ": " << err;
    return s.value_or(WorkloadSpec{});
}

} // namespace

// --- spec grammar -----------------------------------------------------

TEST(LoadSpec, ParsesTheDocumentedGrammar)
{
    WorkloadSpec s = mustParse(
        "arrival=poisson:rate=120k;keys=zipf:n=1m,theta=0.95;get=0.95;"
        "req=128");
    EXPECT_EQ(s.arrival.kind, ArrivalSpec::Kind::Poisson);
    EXPECT_DOUBLE_EQ(s.arrival.ratePerSec, 120000.0);
    EXPECT_EQ(s.keys.kind, KeySpec::Kind::Zipf);
    EXPECT_EQ(s.keys.keys, 1000000u);
    EXPECT_DOUBLE_EQ(s.keys.theta, 0.95);
    EXPECT_DOUBLE_EQ(s.getRatio, 0.95);
    EXPECT_EQ(s.requestBytes, 128u);
}

TEST(LoadSpec, PartsAreOptionalAndDefaulted)
{
    WorkloadSpec s = mustParse("keys=uniform:n=500");
    EXPECT_EQ(s.arrival.kind, ArrivalSpec::Kind::Closed);
    EXPECT_EQ(s.keys.kind, KeySpec::Kind::Uniform);
    EXPECT_EQ(s.keys.keys, 500u);
    EXPECT_DOUBLE_EQ(s.getRatio, 0.9);
}

TEST(LoadSpec, ParsesClosedThinkAndOnOff)
{
    WorkloadSpec s = mustParse("arrival=closed:think=200us");
    EXPECT_EQ(s.arrival.kind, ArrivalSpec::Kind::Closed);
    EXPECT_EQ(s.arrival.thinkMean, 200 * sim::kMicrosecond);

    s = mustParse(
        "arrival=onoff:rate=1m,off_rate=100k,on=5ms,off=1ms,dwell=fixed");
    EXPECT_EQ(s.arrival.kind, ArrivalSpec::Kind::OnOff);
    EXPECT_DOUBLE_EQ(s.arrival.ratePerSec, 1e6);
    EXPECT_DOUBLE_EQ(s.arrival.offRatePerSec, 100e3);
    EXPECT_EQ(s.arrival.onMean, 5 * sim::kMillisecond);
    EXPECT_EQ(s.arrival.offMean, sim::kMillisecond);
    EXPECT_FALSE(s.arrival.expDwell);
}

TEST(LoadSpec, ParsesHotSetAndScan)
{
    WorkloadSpec s = mustParse(
        "keys=hotset:n=10k,hot=0.05,traffic=0.95,shift_every=2ms,"
        "shift_by=77");
    EXPECT_EQ(s.keys.kind, KeySpec::Kind::HotSet);
    EXPECT_DOUBLE_EQ(s.keys.hotFraction, 0.05);
    EXPECT_DOUBLE_EQ(s.keys.hotTraffic, 0.95);
    EXPECT_EQ(s.keys.shiftEvery, 2 * sim::kMillisecond);
    EXPECT_EQ(s.keys.shiftBy, 77u);

    s = mustParse("keys=scan:n=42");
    EXPECT_EQ(s.keys.kind, KeySpec::Kind::Scan);
    EXPECT_EQ(s.keys.keys, 42u);
}

TEST(LoadSpec, RejectsGarbage)
{
    std::string err;
    EXPECT_FALSE(WorkloadSpec::parse("keys=zorpf:n=10", &err));
    EXPECT_FALSE(WorkloadSpec::parse("arrival=poisson", &err));
    EXPECT_FALSE(WorkloadSpec::parse("get=2.0", &err));
    EXPECT_FALSE(WorkloadSpec::parse("frobnicate=yes", &err));
    EXPECT_FALSE(err.empty());
}

TEST(LoadSpec, RateAndDurationSuffixes)
{
    double r = 0;
    EXPECT_TRUE(spec::parseRate("186k", &r));
    EXPECT_DOUBLE_EQ(r, 186000.0);
    EXPECT_TRUE(spec::parseRate("1.5m", &r));
    EXPECT_DOUBLE_EQ(r, 1.5e6);
    EXPECT_FALSE(spec::parseRate("fast", &r));

    sim::Time t = 0;
    EXPECT_TRUE(spec::parseDuration("50us", &t));
    EXPECT_EQ(t, 50 * sim::kMicrosecond);
    EXPECT_TRUE(spec::parseDuration("2s", &t));
    EXPECT_EQ(t, 2 * sim::kSecond);
    EXPECT_TRUE(spec::parseDuration("100", &t));
    EXPECT_EQ(t, sim::Time(100));
    EXPECT_FALSE(spec::parseDuration("soon", &t));
}

// --- arrival processes ------------------------------------------------

TEST(LoadArrival, SameSeedSameSchedule)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Poisson;
    spec.ratePerSec = 250e3;
    ArrivalProcess a(spec, 7), b(spec, 7), c(spec, 8);
    bool diverged = false;
    for (int i = 0; i < 1000; ++i) {
        sim::Time ta = a.next();
        EXPECT_EQ(ta, b.next());
        if (ta != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged) << "different seeds produced the same schedule";
}

TEST(LoadArrival, FixedRateIsExactlyPeriodic)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Fixed;
    spec.ratePerSec = 1e6; // 1 us period
    ArrivalProcess a(spec, 1);
    sim::Time prev = 0;
    for (int i = 1; i <= 1000; ++i) {
        sim::Time t = a.next();
        EXPECT_NEAR(double(t - prev), 1000.0, 1.0);
        prev = t;
    }
}

TEST(LoadArrival, PoissonMeanMatchesRate)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Poisson;
    spec.ratePerSec = 100e3; // mean gap 10 us
    ArrivalProcess a(spec, 42);
    const int kN = 20000;
    sim::Time last = 0;
    for (int i = 0; i < kN; ++i)
        last = a.next();
    double meanGapNs = double(last) / kN;
    EXPECT_NEAR(meanGapNs, 10000.0, 300.0); // ~3% tolerance
}

TEST(LoadArrival, OnOffModulatesTheRate)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::OnOff;
    spec.ratePerSec = 1e6;
    spec.offRatePerSec = 0.0;
    spec.onMean = sim::kMillisecond;
    spec.offMean = sim::kMillisecond;
    spec.expDwell = false; // deterministic 1 ms on / 1 ms off
    ArrivalProcess a(spec, 3);
    std::uint64_t inOn = 0, inOff = 0;
    for (;;) {
        sim::Time t = a.next();
        if (t >= 4 * sim::kMillisecond)
            break;
        bool on = (t / sim::kMillisecond) % 2 == 0;
        (on ? inOn : inOff) += 1;
    }
    EXPECT_GT(inOn, 1500u);  // ~2000 expected over the two on windows
    EXPECT_EQ(inOff, 0u);    // off rate zero: silence
}

TEST(LoadArrival, ClosedHasNoOpenSchedule)
{
    ArrivalSpec spec; // defaults to Closed
    ArrivalProcess a(spec, 1);
    EXPECT_EQ(a.next(), ~sim::Time(0));
    EXPECT_FALSE(spec.open());
}

// --- key models -------------------------------------------------------

namespace {

/** ZipfKeys as it was when zeta(n) was always summed over all n
 *  terms: the reference its bounded set-up must reproduce. */
struct ExactZipf
{
    std::uint64_t n;
    double zetan = 0, zeta2, alpha, eta;

    ExactZipf(std::uint64_t keys, double theta) : n(keys)
    {
        for (std::uint64_t i = 1; i <= n; ++i)
            zetan += 1.0 / std::pow(double(i), theta);
        zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        alpha = 1.0 / (1.0 - theta);
        eta = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
              (1.0 - zeta2 / zetan);
    }

    std::uint64_t
    next(sim::Rng &rng) const
    {
        double u = rng.uniform01();
        double uz = u * zetan;
        if (uz < 1.0)
            return 0;
        if (uz < zeta2)
            return 1;
        auto k = static_cast<std::uint64_t>(
            double(n) * std::pow(eta * u - eta + 1.0, alpha));
        return k >= n ? n - 1 : k;
    }
};

/** How many of @p draws seeded draws differ between the two. */
int
zipfMismatches(std::uint64_t n, double theta, int draws)
{
    ExactZipf ref(n, theta);
    ZipfKeys model(n, theta);
    sim::Rng a(17), b(17);
    int diff = 0;
    for (int i = 0; i < draws; ++i)
        diff += ref.next(a) != model.next(b, 0);
    return diff;
}

} // namespace

TEST(LoadKeys, ZipfKeepsItsKeyStreamUpToTheExactSumBound)
{
    // Up to 2^20 keys the zeta sum is the exact one, term for term.
    for (double theta : {0.5, 0.99}) {
        EXPECT_EQ(zipfMismatches(100000, theta, 100000), 0) << theta;
        EXPECT_EQ(zipfMismatches(1ull << 20, theta, 100000), 0) << theta;
    }
}

TEST(LoadKeys, ZipfTailMatchesTheExactSumBeyondTheBound)
{
    for (double theta : {0.0, 0.5, 0.99})
        EXPECT_EQ(zipfMismatches(1ull << 22, theta, 100000), 0) << theta;
}

TEST(LoadKeys, ZipfSetUpIsBoundedAtAnyKeyCount)
{
    // 10^12 keys: summing every term took hours.
    WorkloadSpec w = mustParse("keys=zipf:n=1000g,theta=0.99");
    auto m = KeyModel::make(w.keys);
    EXPECT_EQ(m->keys(), 1000000000000ull);
    sim::Rng rng(3);
    std::uint64_t hot = 0;
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t k = m->next(rng, 0);
        ASSERT_LT(k, m->keys());
        hot += k == 0;
    }
    // Rank 0's share is 1/zeta(n), about 3.3% at this n and theta.
    EXPECT_GT(hot, 2000u);
    EXPECT_LT(hot, 5000u);
}

TEST(LoadKeys, ZipfRankZeroIsHottest)
{
    KeySpec spec;
    spec.kind = KeySpec::Kind::Zipf;
    spec.keys = 1000;
    spec.theta = 0.99;
    auto m = KeyModel::make(spec);
    sim::Rng rng(5);
    std::vector<std::uint64_t> freq(spec.keys, 0);
    const int kN = 100000;
    for (int i = 0; i < kN; ++i)
        ++freq[m->next(rng, 0)];
    // Rank 0 beats every other key, and the head dominates.
    std::uint64_t best = *std::max_element(freq.begin() + 1, freq.end());
    EXPECT_GT(freq[0], best);
    std::uint64_t top10 = 0;
    for (int i = 0; i < 10; ++i)
        top10 += freq[i];
    EXPECT_GT(double(top10) / kN, 0.3);
    // Frequencies decay along the rank order (averaged over decades).
    std::uint64_t head = 0, tail = 0;
    for (int i = 0; i < 100; ++i)
        head += freq[i];
    for (int i = 900; i < 1000; ++i)
        tail += freq[i];
    EXPECT_GT(head, 5 * tail);
}

TEST(LoadKeys, UniformCoversTheKeyspaceEvenly)
{
    KeySpec spec;
    spec.keys = 16;
    auto m = KeyModel::make(spec);
    sim::Rng rng(9);
    std::vector<std::uint64_t> freq(spec.keys, 0);
    const int kN = 64000;
    for (int i = 0; i < kN; ++i)
        ++freq[m->next(rng, 0)];
    for (std::uint64_t f : freq)
        EXPECT_NEAR(double(f), kN / 16.0, kN / 16.0 * 0.15);
}

TEST(LoadKeys, ScanSweepsAndWraps)
{
    KeySpec spec;
    spec.kind = KeySpec::Kind::Scan;
    spec.keys = 5;
    auto m = KeyModel::make(spec);
    sim::Rng rng(1);
    std::vector<std::uint64_t> seen;
    for (int i = 0; i < 7; ++i)
        seen.push_back(m->next(rng, 0));
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 0, 1}));
}

TEST(LoadKeys, HotSetConcentratesTrafficAndShifts)
{
    KeySpec spec;
    spec.kind = KeySpec::Kind::HotSet;
    spec.keys = 1000;
    spec.hotFraction = 0.1;
    spec.hotTraffic = 0.9;
    spec.shiftEvery = sim::kMillisecond;
    spec.shiftBy = 100;
    HotSetKeys m(spec);
    sim::Rng rng(11);

    std::uint64_t hot = 0;
    const int kN = 20000;
    for (int i = 0; i < kN; ++i)
        hot += m.next(rng, 0) < 100 ? 1 : 0;
    EXPECT_NEAR(double(hot) / kN, 0.9, 0.03);
    EXPECT_EQ(m.hotStart(), 0u);

    // Past the shift boundary the hot window has rotated by shift_by.
    m.next(rng, sim::kMillisecond + 1);
    EXPECT_EQ(m.hotStart(), 100u);
    hot = 0;
    for (int i = 0; i < kN; ++i) {
        std::uint64_t k = m.next(rng, sim::kMillisecond + 2);
        hot += (k >= 100 && k < 200) ? 1 : 0;
    }
    EXPECT_NEAR(double(hot) / kN, 0.9, 0.03);
}

TEST(LoadKeys, SetKeysResizesTheKeyspace)
{
    KeySpec spec;
    spec.kind = KeySpec::Kind::Zipf;
    spec.keys = 100;
    auto m = KeyModel::make(spec);
    sim::Rng rng(2);
    m->setKeys(10);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(m->next(rng, 0), 10u);
}

// --- histogram --------------------------------------------------------

TEST(LoadHistogram, MergeAndZeroHandling)
{
    Histogram a, b;
    a.record(0.0); // exact zero lands in the underflow counter
    a.record(1.0);
    b.record(100.0);
    b.record(10000.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 10000.0);
    EXPECT_DOUBLE_EQ(a.percentile(20), 0.0);
    a.clear();
    EXPECT_TRUE(a.empty());
    EXPECT_DOUBLE_EQ(a.percentile(99), 0.0);
}

// --- recorder ---------------------------------------------------------

TEST(LoadRecorder, WarmupAndDurationGateEverySample)
{
    Recorder rec(RecorderConfig{sim::kMillisecond, sim::kMillisecond});
    Recorder::ClassId c = rec.addClass("get");

    auto at = [](double ms) { return sim::Time(ms * 1e6); };
    rec.recordLatency(c, at(0.4), at(0.4), at(0.5)); // warmup: dropped
    rec.recordLatency(c, at(1.4), at(1.4), at(1.5)); // in window
    rec.recordLatency(c, at(2.4), at(2.4), at(2.5)); // after: dropped
    EXPECT_EQ(rec.completions(c), 1u);
    EXPECT_EQ(rec.response(c).count(), 1u);

    rec.recordTimeout(c, at(0.1), at(0.5)); // warmup: dropped
    rec.recordTimeout(c, at(1.0), at(1.5)); // in window
    EXPECT_EQ(rec.timeouts(c), 1u);
    // The timed-out wait floors the response tail (at least 0.5 ms).
    EXPECT_GE(rec.response(c).max(), 499.0);

    rec.recordRetry(c, at(0.5)); // warmup: dropped
    rec.recordRetry(c, at(1.5)); // in window
    EXPECT_EQ(rec.retries(c), 1u);

    // The SLO window histogram sees everything, gate or not.
    EXPECT_EQ(rec.window(c).count(), 5u);
}

TEST(LoadRecorder, ReportListsEveryClass)
{
    Recorder rec(RecorderConfig{0, sim::kSecond});
    Recorder::ClassId g = rec.addClass("get");
    Recorder::ClassId s = rec.addClass("set");
    rec.recordLatency(g, 0, 0, 1000);
    rec.recordLatency(s, 0, 0, 2000);
    std::ostringstream os;
    rec.writeReport(os, sim::kSecond);
    std::string out = os.str();
    EXPECT_NE(out.find("SLO report"), std::string::npos);
    EXPECT_NE(out.find("get"), std::string::npos);
    EXPECT_NE(out.find("set"), std::string::npos);
}

TEST(LoadRecorder, RegistryExportsEveryClassResponseHistogram)
{
    Recorder rec(RecorderConfig{0, sim::kSecond});
    Recorder::ClassId g = rec.addClass("get");
    Recorder::ClassId s = rec.addClass("set"); // must not move "get"
    for (int i = 1; i <= 100; ++i) {
        rec.recordLatency(g, 0, 0, sim::Time(i) * 1000);
        rec.recordLatency(s, 0, 0, sim::Time(i) * 3000);
    }
    std::ostringstream os;
    obs::Registry::global().writeJson(os);
    const std::string j = os.str();
    for (Recorder::ClassId c : {g, s}) {
        const Histogram &h = rec.response(c);
        const std::pair<const char *, double> fields[] = {
            {"mean", h.mean()},         {"p50", h.percentile(50)},
            {"p90", h.percentile(90)},  {"p99", h.percentile(99)},
            {"p99.9", h.percentile(99.9)},
            {"min", h.min()},           {"max", h.max()}};
        std::ostringstream want;
        want << "." << rec.className(c) << ".response_us\":{\"count\":"
             << h.count();
        for (auto [key, v] : fields) {
            want << ",\"" << key << "\":";
            obs::jsonNumber(want, v);
        }
        want << '}';
        EXPECT_NE(j.find(want.str()), std::string::npos) << want.str();
    }
}

// --- client pool over stub transports ---------------------------------

namespace {

/** In-order stub endpoint with a fixed service time, optional drop
 *  count, a [from, until) stall that holds responses, and optionally
 *  one slow response that holds back every response behind it. */
struct StubTransport final : Transport
{
    sim::EventQueue &eq;
    ClientPool *pool = nullptr;
    unsigned ep = 0;
    sim::Time service = sim::kMicrosecond;
    std::uint64_t dropFirst = 0; ///< swallow this many issues
    sim::Time stallFrom = 0, stallUntil = 0;
    std::uint64_t slowIssue = 0; ///< 1-based issue to answer late
    sim::Time slowBy = 0;        ///< that response's service time
    std::vector<std::tuple<std::uint32_t, std::uint64_t, bool>> log;
    std::vector<sim::Time> issuedAt; ///< eq.now() at each issue
    /** Per response: (serial, late-response delta, completion delta). */
    std::vector<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>>
        outcomes;
    std::deque<std::uint32_t> held;
    std::uint64_t issues = 0;
    sim::Time lastDue = 0; ///< responses never overtake each other
    /// Optional, shared by a pool's stubs: the pool's peak in-flight
    /// count seen at any issue, and whether materialised() ever
    /// exceeded it.
    struct Watch
    {
        std::size_t peakInFlight = 0;
        bool exceeded = false;
    } *watch = nullptr;

    explicit StubTransport(sim::EventQueue &q) : eq(q) {}

    void
    connect(ClientPool &p)
    {
        pool = &p;
        ep = p.addEndpoint(*this);
    }

    void
    respond(std::uint32_t serial)
    {
        std::uint64_t late = pool->lateResponses();
        std::uint64_t done = pool->completions();
        pool->complete(ep, serial, true);
        outcomes.emplace_back(serial, pool->lateResponses() - late,
                              pool->completions() - done);
    }

    void
    issue(std::uint32_t serial, std::uint64_t key, bool is_set,
          std::size_t) override
    {
        log.emplace_back(serial, key, is_set);
        issuedAt.push_back(eq.now());
        if (watch != nullptr) {
            watch->peakInFlight =
                std::max(watch->peakInFlight, pool->inFlight());
            watch->exceeded |= pool->materialised() > watch->peakInFlight;
        }
        if (++issues <= dropFirst)
            return;
        sim::Time now = eq.now();
        if (now >= stallFrom && now < stallUntil) {
            if (held.empty())
                eq.schedule(stallUntil, [this] {
                    while (!held.empty()) {
                        std::uint32_t s = held.front();
                        held.pop_front();
                        respond(s);
                    }
                });
            held.push_back(serial);
            return;
        }
        sim::Time due = now + (issues == slowIssue ? slowBy : service);
        lastDue = std::max(due, lastDue);
        eq.schedule(lastDue, [this, serial] { respond(serial); });
    }
};

PoolConfig
openPool(double rate, std::uint64_t clients, std::uint64_t seed)
{
    PoolConfig pc;
    pc.clients = clients;
    pc.seed = seed;
    pc.workload.arrival.kind = ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = rate;
    pc.workload.keys.kind = KeySpec::Kind::Zipf;
    pc.workload.keys.keys = 1000;
    return pc;
}

} // namespace

TEST(LoadPool, SameSeedIsBitIdentical)
{
    auto run = [](std::uint64_t seed) {
        sim::EventQueue eq;
        ClientPool pool(eq, openPool(200e3, 64, seed));
        std::vector<StubTransport> stubs;
        stubs.reserve(4);
        for (int i = 0; i < 4; ++i) {
            stubs.emplace_back(eq);
            stubs.back().connect(pool);
        }
        pool.start();
        eq.runUntil(20 * sim::kMillisecond);
        pool.stop();
        std::vector<std::tuple<std::uint32_t, std::uint64_t, bool>> all;
        for (auto &s : stubs)
            for (auto &e : s.log)
                all.push_back(e);
        return all;
    };
    auto a = run(5), b = run(5), c = run(6);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(LoadPool, OpenLoopHitsTheOfferedRate)
{
    sim::EventQueue eq;
    ClientPool pool(eq, openPool(500e3, 1000, 3));
    StubTransport stub(eq);
    stub.connect(pool);
    pool.start();
    eq.runUntil(100 * sim::kMillisecond);
    pool.stop();
    // 500k/s for 100 ms = ~50k requests; Poisson noise is ~sqrt(n).
    EXPECT_NEAR(double(pool.issued()), 50000.0, 1500.0);
    EXPECT_EQ(pool.shedArrivals(), 0u);
    EXPECT_GT(pool.completions(), pool.issued() - 100);
}

TEST(LoadPool, HundredThousandFlyweightsOverEightEndpoints)
{
    sim::EventQueue eq;
    PoolConfig pc = openPool(1e6, 100000, 9);
    ClientPool pool(eq, pc);
    std::vector<StubTransport> stubs;
    stubs.reserve(8);
    for (int i = 0; i < 8; ++i) {
        stubs.emplace_back(eq);
        stubs.back().service = 20 * sim::kMicrosecond;
        stubs.back().connect(pool);
    }
    Recorder rec;
    pool.setRecorder(rec);
    pool.start();
    eq.runUntil(50 * sim::kMillisecond);
    pool.stop();
    EXPECT_NEAR(double(pool.issued()), 50000.0, 1500.0);
    EXPECT_EQ(pool.shedArrivals(), 0u);
    EXPECT_EQ(rec.completions(0) + rec.completions(1),
              pool.completions());
}

TEST(LoadPool, ClosedLoopThinkTimePacesClients)
{
    sim::EventQueue eq;
    PoolConfig pc;
    pc.clients = 4;
    pc.seed = 21;
    pc.workload.arrival.kind = ArrivalSpec::Kind::Closed;
    pc.workload.arrival.thinkMean = 100 * sim::kMicrosecond;
    pc.workload.keys.keys = 100;
    ClientPool pool(eq, pc);
    StubTransport stub(eq);
    stub.service = sim::kMicrosecond;
    stub.connect(pool);
    pool.start();
    eq.runUntil(10 * sim::kMillisecond);
    pool.stop();
    // Each client completes at 1 us, then every 101 us (1 us of
    // service plus exactly 100 us of think): at 1, 102, ..., 10 000 us,
    // the last one on runUntil()'s inclusive bound, so 100 each.
    EXPECT_EQ(pool.completions(), 400u);
}

TEST(LoadPool, StalledServerInflatesCorrectedLatencyOnly)
{
    sim::EventQueue eq;
    PoolConfig pc = openPool(100e3, 4, 13);
    pc.backlogFactor = 10000; // queue, don't shed: the point is CO
    ClientPool pool(eq, pc);
    StubTransport stub(eq);
    stub.stallFrom = 5 * sim::kMillisecond;
    stub.stallUntil = 10 * sim::kMillisecond;
    stub.connect(pool);
    Recorder rec;
    pool.setRecorder(rec);
    pool.start();
    eq.runUntil(20 * sim::kMillisecond);
    pool.stop();

    Histogram response, service;
    response.merge(rec.response(0));
    response.merge(rec.response(1));
    service.merge(rec.service(0));
    service.merge(rec.service(1));
    // Arrivals intended during the stall waited out most of it: the
    // corrected tail sees multiple milliseconds. The post-stall sends
    // themselves completed in ~1 us, so the naive service tail stays
    // three orders of magnitude smaller.
    EXPECT_GT(response.max(), 3000.0);   // us
    EXPECT_LT(service.percentile(99), 100.0);
    EXPECT_GT(response.percentile(99), 50 * service.percentile(99));
}

TEST(LoadPool, TimeoutsRetryWithBackoffThenSucceed)
{
    sim::EventQueue eq;
    PoolConfig pc = openPool(1e3, 1, 31);
    pc.timeout = sim::kMillisecond;
    pc.maxRetries = 10;
    ClientPool pool(eq, pc);
    StubTransport stub(eq);
    stub.dropFirst = 5; // every retry is a fresh issue
    stub.connect(pool);
    pool.start();
    eq.runUntil(50 * sim::kMillisecond);
    pool.stop();
    EXPECT_GE(pool.timeouts(), 5u);
    EXPECT_GE(pool.retries(), 5u);
    EXPECT_EQ(pool.giveups(), 0u);
    EXPECT_GT(pool.completions(), 10u);
}

TEST(LoadPool, RetriesResendExactlyOneBackoffAfterTheirTimeout)
{
    sim::EventQueue eq;
    PoolConfig pc;
    pc.clients = 1;
    pc.seed = 33;
    pc.workload.arrival.kind = ArrivalSpec::Kind::Closed;
    pc.workload.keys.keys = 100;
    pc.timeout = sim::kMillisecond;
    pc.sweepInterval = 250 * sim::kMicrosecond;
    pc.maxRetries = 3;
    ClientPool pool(eq, pc);
    StubTransport stub(eq);
    stub.dropFirst = 2; // the first send and its first retry vanish
    stub.connect(pool);
    pool.start();
    eq.runUntil(5 * sim::kMillisecond);
    pool.stop();

    // The send at 0 times out at the 1 ms sweep and goes out again
    // one backoffBase later. That retry is 900 us old at the 2 ms
    // sweep, so the 2.25 ms sweep abandons it, and the second retry
    // waits twice backoffBase.
    const sim::Time firstTimeout = sim::kMillisecond;
    const sim::Time secondTimeout = 2250 * sim::kMicrosecond;
    ASSERT_GE(stub.issuedAt.size(), 4u);
    EXPECT_EQ(stub.issuedAt[0], 0u);
    EXPECT_EQ(stub.issuedAt[1], firstTimeout + kPool.backoffBase);
    EXPECT_EQ(stub.issuedAt[2], secondTimeout + 2 * kPool.backoffBase);
    // The second retry is answered, so the next request follows it
    // after one service time.
    EXPECT_EQ(stub.issuedAt[3], stub.issuedAt[2] + stub.service);
    EXPECT_EQ(pool.timeouts(), 2u);
    EXPECT_EQ(pool.retries(), 2u);
    EXPECT_EQ(pool.giveups(), 0u);
}

TEST(LoadPool, GivesUpAfterMaxRetriesAndStaysLive)
{
    sim::EventQueue eq;
    PoolConfig pc = openPool(10e3, 2, 37);
    pc.timeout = sim::kMillisecond;
    pc.maxRetries = 1;
    ClientPool pool(eq, pc);
    StubTransport stub(eq);
    stub.dropFirst = ~std::uint64_t(0); // black hole
    stub.connect(pool);
    Recorder rec;
    pool.setRecorder(rec);
    pool.start();
    eq.runUntil(50 * sim::kMillisecond);
    pool.stop();
    EXPECT_EQ(pool.completions(), 0u);
    EXPECT_GT(pool.giveups(), 5u);
    EXPECT_EQ(pool.timeouts(), pool.giveups() + pool.retries());
    // Give-ups recycle their clients, so the generator keeps issuing
    // long past the first timeout instead of wedging.
    EXPECT_GT(pool.issued(), 20u);
    // Abandoned requests floor the recorded tail at their wait.
    EXPECT_GE(rec.timeouts(0) + rec.timeouts(1), 5u);
}

TEST(LoadPool, LateResponseAfterTimeoutNeverCompletesTheNextRequest)
{
    sim::EventQueue eq;
    PoolConfig pc;
    pc.clients = 1;
    pc.seed = 41;
    pc.workload.arrival.kind = ArrivalSpec::Kind::Closed;
    pc.workload.keys.keys = 100;
    pc.timeout = sim::kMillisecond;
    pc.maxRetries = 3;
    ClientPool pool(eq, pc);
    StubTransport stub(eq);
    stub.service = 10 * sim::kMicrosecond;
    stub.slowIssue = 1; // the very first request answers after 1.7 ms
    stub.slowBy = 1700 * sim::kMicrosecond;
    stub.connect(pool);
    pool.start();
    eq.runUntil(3 * sim::kMillisecond);
    pool.stop();

    // The sweep abandoned serial 0 at 1 ms and the retry went out as
    // serial 1 behind it. Serial 0's response then found the retry at
    // the front of the endpoint's FIFO and had to leave it alone; the
    // retry's own response completed it.
    EXPECT_EQ(pool.timeouts(), 1u);
    EXPECT_EQ(pool.retries(), 1u);
    EXPECT_EQ(pool.giveups(), 0u);
    EXPECT_EQ(pool.lateResponses(), 1u);
    ASSERT_GT(stub.outcomes.size(), 100u);
    using Outcome = std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>;
    EXPECT_EQ(stub.outcomes[0], Outcome(0, 1, 0)); // late, completes none
    EXPECT_EQ(stub.outcomes[1], Outcome(1, 0, 1)); // the retry completes
    for (std::size_t i = 2; i < stub.outcomes.size(); ++i)
        EXPECT_EQ(stub.outcomes[i], Outcome(std::uint32_t(i), 0, 1));
    EXPECT_EQ(pool.inFlight(), 1u);
    EXPECT_EQ(pool.completions() + pool.timeouts() + pool.inFlight(),
              pool.issued());
}

TEST(LoadPool, InFlightNeverExceedsClientsUnderTimeouts)
{
    sim::EventQueue eq;
    PoolConfig pc = openPool(400e3, 64, 43);
    pc.timeout = 300 * sim::kMicrosecond;
    pc.maxRetries = 2;
    ClientPool pool(eq, pc);
    std::vector<StubTransport> stubs;
    stubs.reserve(4);
    for (int i = 0; i < 4; ++i) {
        stubs.emplace_back(eq);
        StubTransport &s = stubs.back();
        s.service = 20 * sim::kMicrosecond;
        // Staggered stalls longer than the timeout: their held
        // responses come back after the sweep abandoned them.
        s.stallFrom = sim::Time(2 + 3 * i) * sim::kMillisecond;
        s.stallUntil = s.stallFrom + sim::kMillisecond;
        s.connect(pool);
    }
    pool.start();
    for (sim::Time t = 0; t < 20 * sim::kMillisecond;
         t += 10 * sim::kMicrosecond) {
        eq.runUntil(t);
        ASSERT_LE(pool.inFlight(), pool.clients()) << "at " << t;
        ASSERT_EQ(pool.completions() + pool.timeouts() + pool.inFlight(),
                  pool.issued())
            << "at " << t;
    }
    pool.stop();
    EXPECT_GT(pool.timeouts(), 0u);
    EXPECT_GT(pool.retries(), 0u);
    EXPECT_GT(pool.completions(), 1000u);
    // Every stall released long before the end, so each abandoned
    // request's response came back, late, and nothing else was late.
    EXPECT_EQ(pool.lateResponses(), pool.timeouts());
}

TEST(ClientPool, OpenLoopFootprintTracksConcurrency)
{
    // In open loop a client's index is unobservable, so the client
    // count only bounds concurrency: N and 16N clients must produce the
    // same run whenever N is never exhausted.
    struct Run
    {
        std::vector<std::vector<std::tuple<std::uint32_t, std::uint64_t,
                                           bool>>> logs;
        std::string report;
        std::uint64_t issued, completions, timeouts, retries, giveups,
            late, shed;
        std::size_t materialised;
        StubTransport::Watch watch;
    };
    auto run = [](std::uint64_t clients, bool faults) {
        sim::EventQueue eq;
        PoolConfig pc = openPool(300e3, clients, 47);
        if (faults) {
            pc.timeout = 300 * sim::kMicrosecond;
            pc.maxRetries = 2;
        }
        ClientPool pool(eq, pc);
        Recorder rec(
            RecorderConfig{sim::kMillisecond, 30 * sim::kMillisecond});
        pool.setRecorder(rec);
        Run r{};
        std::vector<StubTransport> stubs;
        stubs.reserve(4);
        for (int i = 0; i < 4; ++i) {
            stubs.emplace_back(eq);
            StubTransport &s = stubs.back();
            s.service = 20 * sim::kMicrosecond;
            if (faults) {
                // Stalls past the timeout, then one black-holed issue
                // per endpoint: timeouts, backoffs, retries, give-ups
                // and late responses all happen.
                s.stallFrom = sim::Time(2 + 3 * i) * sim::kMillisecond;
                s.stallUntil = s.stallFrom + sim::kMillisecond;
                s.dropFirst = 1;
            } else {
                s.watch = &r.watch;
            }
            s.connect(pool);
        }
        pool.start();
        eq.runUntil(31 * sim::kMillisecond);
        pool.stop();
        for (const StubTransport &s : stubs)
            r.logs.push_back(s.log);
        std::ostringstream os;
        rec.writeReport(os, eq.now());
        r.report = os.str();
        r.issued = pool.issued();
        r.completions = pool.completions();
        r.timeouts = pool.timeouts();
        r.retries = pool.retries();
        r.giveups = pool.giveups();
        r.late = pool.lateResponses();
        r.shed = pool.shedArrivals();
        r.materialised = pool.materialised();
        return r;
    };
    constexpr std::uint64_t kN = 512;
    for (bool faults : {false, true}) {
        SCOPED_TRACE(faults ? "timeouts and backoff" : "fault-free");
        Run small = run(kN, faults), big = run(16 * kN, faults);
        EXPECT_EQ(small.logs, big.logs);
        EXPECT_EQ(small.report, big.report);
        EXPECT_EQ(small.issued, big.issued);
        EXPECT_EQ(small.completions, big.completions);
        EXPECT_EQ(small.timeouts, big.timeouts);
        EXPECT_EQ(small.retries, big.retries);
        EXPECT_EQ(small.giveups, big.giveups);
        EXPECT_EQ(small.late, big.late);
        EXPECT_EQ(small.shed, 0u);
        EXPECT_GT(small.completions, 5000u);
        // Both pools grew to the same busy peak, far below N.
        EXPECT_EQ(small.materialised, big.materialised);
        EXPECT_LT(small.materialised, kN);
        if (faults) {
            EXPECT_GT(small.timeouts, 0u);
            EXPECT_GT(small.retries, 0u);
            EXPECT_GT(small.giveups, 0u);
            EXPECT_GT(small.late, 0u);
        } else {
            EXPECT_GT(small.watch.peakInFlight, 0u);
            EXPECT_FALSE(small.watch.exceeded);
            EXPECT_FALSE(big.watch.exceeded);
            EXPECT_LE(big.materialised, big.watch.peakInFlight);
        }
    }
}

// --- integration: real transports --------------------------------------

TEST(LoadIntegration, PoolDrivesTheKvRpcServerOverIb)
{
    sim::EventQueue eq;
    scenario::IbBed bed(eq);
    PoolConfig pc = openPool(50e3, 200, 23);
    pc.workload.keys.keys = 500;
    scenario::KvWorld w(bed, pc, RecorderConfig{sim::kMillisecond, 0},
                        {.kvBytes = 256ull << 20});
    w.connect(1);

    w.pool.start();
    eq.runUntil(20 * sim::kMillisecond);
    w.pool.stop();

    EXPECT_GT(w.pool.completions(), 500u);
    // The server may have served up to one more request per client
    // whose response was still in flight when the pool stopped.
    EXPECT_LE(w.pool.completions(), w.server.opsServed());
    EXPECT_GE(w.pool.completions() + pc.clients, w.server.opsServed());
    EXPECT_GT(w.pool.hits(), 0u); // GETs hit the prepopulated keys
    EXPECT_EQ(w.pool.lateResponses(), 0u);
    EXPECT_GT(w.rec.completions(0), 0u);
    // Value pages are DMA-read cold by the response Sends: the
    // zero-copy path must raise genuine send-side NPFs.
    EXPECT_GT(w.qps[0].stats().sendNpfs, 0u);
}

TEST(LoadIntegration, FioClientRecordsStorageLatencies)
{
    sim::EventQueue eq;
    // A is the target, B the fio initiator.
    scenario::RcPair rc(eq, {.memA = 2ull << 30});
    app::StorageConfig scfg;
    scfg.lunBytes = 1ull << 30;
    app::StorageTarget tgt(eq, rc.asA, scfg);
    ASSERT_TRUE(tgt.ok());

    auto queue = std::make_shared<std::deque<app::IoRequest>>();
    tgt.addSession(rc.qpA, queue);
    app::FioClient fio(eq, rc.qpB, rc.asB, queue, 128 * 1024, 4,
                       scfg.lunBytes, 7);
    Recorder rec;
    Recorder::ClassId cls = rec.addClass("read");
    fio.recordInto(&rec, cls);
    fio.start();

    eq.runUntilCondition([&] { return fio.completed() >= 50; },
                             eq.now() + 60 * sim::kSecond);
    ASSERT_GE(fio.completed(), 50u);
    EXPECT_EQ(rec.completions(cls), fio.completed());
    EXPECT_GT(rec.response(cls).percentile(50), 0.0);
    // Closed-loop client: intended == sent, so the corrected and
    // naive histograms agree.
    EXPECT_DOUBLE_EQ(rec.response(cls).mean(), rec.service(cls).mean());
}

TEST(LoadPool, OverloadShedsInsteadOfGrowingWithoutBound)
{
    sim::EventQueue eq;
    PoolConfig pc = openPool(1e6, 1, 41);
    pc.backlogFactor = 2;
    ClientPool pool(eq, pc);
    StubTransport stub(eq);
    stub.dropFirst = ~std::uint64_t(0); // nothing ever completes
    stub.connect(pool);
    pool.start();
    eq.runUntil(5 * sim::kMillisecond);
    pool.stop();
    // 1 in flight + 2 backlog slots; the remaining ~5000 arrivals shed.
    EXPECT_EQ(pool.issued(), 1u);
    EXPECT_GT(pool.shedArrivals(), 4000u);
}
