/**
 * @file
 * obs::Session's per-event cost in heap allocations: with a session
 * open, executing events must not allocate, whatever the length of
 * their site labels. Links the counting global operator new
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
