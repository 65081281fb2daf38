/**
 * @file
 * Flight-recorder tests: the FlowTracer's fixed-capacity event ring
 * (wrap, overwrite counting, oldest-first export, exact flow pairing,
 * the flight window as the tail of a full trace), the FlightRecorder
 * dump policy (numbered paths, dump budget), and the indexedPath
 * helper the sweep benches share. The
 * dump paths run under the sanitizer job like every other test, so a
 * ring off-by-one or a stale-slot read trips ASan here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.hh"
#include "obs/flow_tracer.hh"
#include "sim/event_queue.hh"

using namespace npf;

namespace {

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/** Every "ts": value in document order (metadata entries have none). */
std::vector<double>
timestamps(const std::string &json)
{
    std::vector<double> ts;
    const std::string key = "\"ts\":";
    for (std::size_t pos = json.find(key); pos != std::string::npos;
         pos = json.find(key, pos + key.size()))
        ts.push_back(std::strtod(json.c_str() + pos + key.size(),
                                 nullptr));
    return ts;
}

/** (ph, id) of every async event: all 'b's, then all 'e's, each in
 *  document order. */
std::vector<std::pair<char, obs::FlowId>>
asyncEvents(const std::string &json)
{
    std::vector<std::pair<char, obs::FlowId>> out;
    for (char ph : {'b', 'e'}) {
        const std::string key = std::string("{\"ph\":\"") + ph + '"';
        for (std::size_t pos = json.find(key); pos != std::string::npos;
             pos = json.find(key, pos + key.size())) {
            std::size_t id = json.find("\"id\":", pos);
            out.emplace_back(ph, std::strtoull(json.c_str() + id + 5,
                                               nullptr, 10));
        }
    }
    return out;
}

/** The tests mutate the process-wide tracer; always restore it. */
struct TracerGuard
{
    ~TracerGuard()
    {
        obs::tracer().setFlightCapacity(0);
        obs::tracer().setClock(nullptr);
        obs::tracer().enable(false);
        obs::tracer().clear();
        obs::flightRecorder().disarm();
    }
};

} // namespace

TEST(FlightRing, WrapKeepsLastCapacityEventsOldestFirst)
{
    TracerGuard guard;
    obs::FlowTracer &tr = obs::tracer();
    tr.enable(false);
    tr.setFlightCapacity(4);
    ASSERT_TRUE(tr.active());

    for (int i = 0; i < 10; ++i)
        tr.instantAt(obs::Track::Nic, "test", "ev",
                     sim::Time(i) * sim::kMicrosecond);
    EXPECT_EQ(tr.flightSize(), 4u);
    EXPECT_EQ(tr.flightOverwritten(), 6u);

    std::ostringstream os;
    tr.writeFlightTrace(os);
    std::string json = os.str();
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"i\""), 4u);

    // The survivors are the last four emits (ts 6..9 us), exported
    // oldest first.
    std::vector<double> ts = timestamps(json);
    ASSERT_EQ(ts.size(), 4u);
    for (std::size_t i = 0; i < ts.size(); ++i)
        EXPECT_DOUBLE_EQ(ts[i], 6.0 + double(i));
}

TEST(FlightRing, PartialRingExportsInEmitOrder)
{
    TracerGuard guard;
    obs::FlowTracer &tr = obs::tracer();
    tr.setFlightCapacity(16);
    for (int i = 0; i < 3; ++i)
        tr.instantAt(obs::Track::Nic, "test", "ev",
                     sim::Time(i) * sim::kMicrosecond);
    EXPECT_EQ(tr.flightSize(), 3u);
    EXPECT_EQ(tr.flightOverwritten(), 0u);

    std::ostringstream os;
    tr.writeFlightTrace(os);
    std::vector<double> ts = timestamps(os.str());
    ASSERT_EQ(ts.size(), 3u);
    for (std::size_t i = 0; i < ts.size(); ++i)
        EXPECT_DOUBLE_EQ(ts[i], double(i));
}

TEST(FlightRing, FlightOnlyFlowsPairBeginAndEnd)
{
    TracerGuard guard;
    obs::FlowTracer &tr = obs::tracer();
    tr.enable(false); // flight-only
    tr.setFlightCapacity(16);
    sim::EventQueue eq;
    tr.setClock(&eq);

    obs::FlowId f = tr.beginFlow("test", "journey");
    ASSERT_NE(f, 0u);
    tr.instant(obs::Track::Driver, "test", "step", f);
    tr.endFlow(f, "test", "journey");
    EXPECT_EQ(tr.flightSize(), 3u);

    std::ostringstream os;
    tr.writeFlightTrace(os);
    std::string json = os.str();
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"b\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"e\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"journey\""), 2u);
}

TEST(FlightRing, PairingIsExactPastManyOpenFlows)
{
    // No open-flow table bounds how many flows may be open at once:
    // every begin gets its end, however many flows overlap.
    TracerGuard guard;
    obs::FlowTracer &tr = obs::tracer();
    tr.enable(false);
    constexpr int kFlows = 1500; // more than any fixed table of 1024
    tr.setFlightCapacity(2 * kFlows);
    sim::EventQueue eq;
    tr.setClock(&eq);

    std::vector<obs::FlowId> open;
    for (int i = 0; i < kFlows; ++i)
        open.push_back(tr.beginFlow("test", "flood"));
    for (obs::FlowId f : open)
        tr.endFlow(f, "test", "flood");
    ASSERT_EQ(tr.flightOverwritten(), 0u);

    std::ostringstream os;
    tr.writeFlightTrace(os);
    std::vector<obs::FlowId> begun, ended;
    for (const auto &[ph, id] : asyncEvents(os.str()))
        (ph == 'b' ? begun : ended).push_back(id);
    EXPECT_EQ(begun, open);
    EXPECT_EQ(ended, open) << "every 'b' has its 'e', in end order";
}

TEST(FlightRing, EndOfAFlowBegunBeforeClearIsDropped)
{
    // clear() starts a fresh buffer: ending a flow begun before it
    // (a model that outlives one sweep iteration's session) must not
    // emit an 'e' whose 'b' the buffer never held.
    TracerGuard guard;
    obs::FlowTracer &tr = obs::tracer();
    tr.setFlightCapacity(16);
    obs::FlowId old = tr.beginFlow("test", "old");
    tr.clear();
    obs::FlowId fresh = tr.beginFlow("test", "fresh");
    tr.endFlow(old, "test", "old");
    EXPECT_EQ(tr.flightSize(), 1u);
    tr.endFlow(fresh, "test", "fresh");
    EXPECT_EQ(tr.flightSize(), 2u);
}

TEST(FlightRing, FlightWindowIsTheTailOfTheTraceRing)
{
    // With full tracing on, both modes share one ring: the trace
    // holds every event and a flight dump its newest N.
    TracerGuard guard;
    obs::FlowTracer &tr = obs::tracer();
    tr.enable(true);
    tr.setFlightCapacity(4);
    for (int i = 0; i < 10; ++i)
        tr.instantAt(obs::Track::Nic, "test", "ev",
                     sim::Time(i) * sim::kMicrosecond);
    EXPECT_EQ(tr.eventCount(), 10u);
    EXPECT_EQ(tr.flightSize(), 4u);
    EXPECT_EQ(tr.flightOverwritten(), 6u);

    std::ostringstream trace, flight;
    tr.writeChromeTrace(trace);
    tr.writeFlightTrace(flight);
    std::vector<double> all = timestamps(trace.str());
    std::vector<double> tail = timestamps(flight.str());
    ASSERT_EQ(all.size(), 10u);
    ASSERT_EQ(tail.size(), 4u);
    for (std::size_t i = 0; i < tail.size(); ++i)
        EXPECT_DOUBLE_EQ(tail[i], all[6 + i]);
}

TEST(FlightRing, ClearResetsContentsButKeepsCapacity)
{
    TracerGuard guard;
    obs::FlowTracer &tr = obs::tracer();
    tr.setFlightCapacity(8);
    for (int i = 0; i < 20; ++i)
        tr.instantAt(obs::Track::Nic, "test", "ev", sim::Time(i));
    tr.clear();
    EXPECT_EQ(tr.flightSize(), 0u);
    EXPECT_EQ(tr.flightOverwritten(), 0u);
    EXPECT_EQ(tr.flightCapacity(), 8u);
    tr.instantAt(obs::Track::Nic, "test", "ev", 0);
    EXPECT_EQ(tr.flightSize(), 1u);
}

TEST(FlightRecorder, DumpsAreNumberedAndBudgeted)
{
    TracerGuard guard;
    obs::FlightRecorder &fr = obs::flightRecorder();
    obs::FlightOptions opt;
    opt.capacity = 8;
    opt.dumpPath = "flight_ut.json";
    opt.maxDumps = 2;
    fr.arm(opt);
    ASSERT_TRUE(fr.armed());

    obs::tracer().instantAt(obs::Track::Nic, "test", "ev", 0);

    EXPECT_TRUE(fr.dump("first"));
    EXPECT_TRUE(fr.dump("second"));
    EXPECT_FALSE(fr.dump("over-budget"));
    EXPECT_EQ(fr.dumps(), 2u);

    for (const char *path : {"flight_ut.000.json", "flight_ut.001.json"}) {
        std::ifstream f(path);
        ASSERT_TRUE(f.good()) << path;
        std::string head(20, '\0');
        f.read(&head[0], 20);
        EXPECT_EQ(head.substr(0, 2), "{\"") << path;
        f.close();
        std::remove(path);
    }
    EXPECT_FALSE(std::ifstream("flight_ut.002.json").good());

    fr.disarm();
    EXPECT_FALSE(fr.armed());
    EXPECT_FALSE(fr.dump("disarmed"));
    EXPECT_EQ(obs::tracer().flightCapacity(), 0u);
}

TEST(FlightRecorder, OnSloViolationHonorsDumpOnSlo)
{
    TracerGuard guard;
    obs::FlightRecorder &fr = obs::flightRecorder();
    obs::FlightOptions opt;
    opt.capacity = 8;
    opt.dumpPath = "flight_slo_ut.json";
    opt.dumpOnSlo = false;
    fr.arm(opt);
    fr.onSloViolation();
    EXPECT_EQ(fr.dumps(), 0u);

    opt.dumpOnSlo = true;
    fr.arm(opt);
    fr.onSloViolation();
    EXPECT_EQ(fr.dumps(), 1u);
    std::remove("flight_slo_ut.000.json");
}

TEST(IndexedPath, InsertsIndexBeforeFinalExtension)
{
    EXPECT_EQ(obs::indexedPath("trace.json", 3), "trace.003.json");
    EXPECT_EQ(obs::indexedPath("out", 7), "out.007");
    EXPECT_EQ(obs::indexedPath("a.b/c", 0), "a.b/c.000");
    EXPECT_EQ(obs::indexedPath("a.b/c.json", 12), "a.b/c.012.json");
}
