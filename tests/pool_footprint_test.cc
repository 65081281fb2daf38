/**
 * @file
 * Memory-footprint regression test: a million open-loop clients over
 * 256 endpoints, next to a 64 GiB host memory manager, must fit in a
 * small resident set. The pool keeps each request's in-flight record
 * in its client's flyweight, so memory grows with clients + endpoints;
 * a design that reserved an 80-byte in-flight slot per client on every
 * endpoint would need about 20 GiB here. Capacity is reserved, not
 * touched: the pool's flyweights and backlog bound, and the manager's
 * frame table, cost resident memory only as the run uses them. An
 * eagerly built frame table alone would write ~384 MiB for 64 GiB.
 * An open-loop arrival reuses a released client before it makes a new
 * one, so the pool materialises only as many flyweights as requests
 * were ever in flight at once, not one per arrival.
 *
 * This is its own executable on purpose: getrusage's ru_maxrss is the
 * process-wide peak, so no other test may share the process.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <vector>

#include "load/client_pool.hh"
#include "mem/memory_manager.hh"
#include "sim/event_queue.hh"

using namespace npf;
using namespace npf::load;

namespace {

/** Answers every request after a fixed service time. */
struct EchoTransport final : Transport
{
    sim::EventQueue &eq;
    ClientPool &pool;
    unsigned ep;
    std::size_t &peakInFlight; ///< shared by the pool's endpoints

    EchoTransport(sim::EventQueue &q, ClientPool &p, std::size_t &peak)
        : eq(q), pool(p), ep(p.addEndpoint(*this)), peakInFlight(peak)
    {}

    void
    issue(std::uint32_t serial, std::uint64_t, bool, std::size_t) override
    {
        peakInFlight = std::max(peakInFlight, pool.inFlight());
        eq.scheduleAfter(20 * sim::kMicrosecond,
                         [this, serial] { pool.complete(ep, serial, true); });
    }
};

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace

TEST(PoolFootprint, MillionClientsOver256EndpointsStaySmall)
{
    mem::MemoryManager mm(std::size_t(64) << 30);
    mem::AddressSpace &as = mm.createAddressSpace("server");
    for (mem::Vpn vpn = 0; vpn < 1024; ++vpn)
        ASSERT_TRUE(mm.faultIn(as, vpn, true).ok);
    EXPECT_EQ(mm.physical().usedFrames(), 1024u);
    EXPECT_EQ(mm.physical().totalFrames(), std::size_t(16) << 20);

    sim::EventQueue eq;
    PoolConfig pc;
    pc.clients = 1u << 20;
    pc.seed = 7;
    pc.workload.arrival.kind = ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = 1e6;
    pc.workload.keys.kind = KeySpec::Kind::Zipf;
    pc.workload.keys.keys = 1000;
    ClientPool pool(eq, pc);
    std::size_t peak = 0;
    std::vector<EchoTransport> eps;
    eps.reserve(256);
    for (int i = 0; i < 256; ++i)
        eps.emplace_back(eq, pool, peak);
    pool.start();
    eq.runUntil(5 * sim::kMillisecond);
    pool.stop();

    EXPECT_NEAR(double(pool.issued()), 5000.0, 300.0);
    EXPECT_GT(pool.completions(), pool.issued() - 100);
    // 1M/s for 20 us each keeps about 20 requests in flight: the pool
    // materialises that many flyweights, not one per arrival.
    EXPECT_GT(peak, 0u);
    EXPECT_LE(pool.materialised(), peak);
    EXPECT_LT(pool.materialised(), 100u);
    double rss = peakRssMiB();
    RecordProperty("peak_rss_mib", int(rss));
    EXPECT_LT(rss, 64.0) << "peak RSS " << rss << " MiB";
}
