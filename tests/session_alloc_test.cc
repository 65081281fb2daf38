/**
 * @file
 * obs::Session's per-event cost in heap allocations: with a session
 * open, executing events must not allocate, whatever the length of
 * their site labels, and neither must recording a full trace. Links
 * the counting global operator new
 * (src/scenario/alloc_counter.hh), so it is its own binary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/session.hh"
#include "scenario/alloc_counter.hh"
#include "sim/event_queue.hh"

using namespace npf;

TEST(SessionAlloc, LongSiteLabelsDoNotAllocatePerEvent)
{
    // 20 characters: longer than std::string's inline buffer, so a
    // string-keyed site table allocates for every lookup.
    static const char kSite[] = "net.fabric.switchrec";
    constexpr std::uint64_t kEvents = 100'000;

    sim::EventQueue eq;
    obs::Session session(eq); // counts event sites, writes no file
    // A site's first event creates its table entry; the queue's slab
    // grows while scheduling. Neither belongs to the window.
    eq.schedule(0, [] {}, kSite);
    eq.run();
    for (std::uint64_t i = 1; i <= kEvents; ++i)
        eq.schedule(i, [] {}, kSite);

    std::uint64_t before = scenario::allocCount();
    eq.run();
    EXPECT_EQ(scenario::allocCount() - before, 0u);

    std::ostringstream os;
    session.writeMetrics(os);
    EXPECT_NE(os.str().find("\"net.fabric.switchrec\":100001"),
              std::string::npos);
    session.finish();
}

TEST(TraceAlloc, FullTracingAllocatesNothingAfterArming)
{
    // A --trace session reserves its event ring on pages when it
    // opens; recording flows into it must take nothing from the heap,
    // however many flows begin and end.
    constexpr std::uint64_t kCycles = 100'000;

    sim::EventQueue eq;
    obs::SessionOptions opt;
    opt.trace = true; // traceOut "": records, writes no file
    obs::Session session(eq, opt);
    obs::FlowTracer &tr = obs::tracer();
    auto cycle = [&tr, &eq] {
        obs::FlowId f = tr.beginFlow("test", "cycle");
        tr.instant(obs::Track::Nic, "test", "rx", f);
        tr.span(obs::Track::Driver, "test", "svc", eq.now(), 1, f);
        tr.endFlow(f, "test", "cycle");
    };
    for (int i = 0; i < 1000; ++i) // warm up
        cycle();

    std::uint64_t before = scenario::allocCount();
    for (std::uint64_t i = 0; i < kCycles; ++i)
        cycle();
    EXPECT_EQ(scenario::allocCount() - before, 0u);
    EXPECT_EQ(tr.eventCount(), 4 * (kCycles + 1000));
    session.finish();
}
