/**
 * @file
 * Memory-footprint regression test for load::ClientPool: a million
 * open-loop clients over 256 endpoints must fit in a small resident
 * set. The pool keeps each request's in-flight record in its client's
 * flyweight, so memory grows with clients + endpoints; a design that
 * reserved an 80-byte in-flight slot per client on every endpoint
 * would need about 20 GiB here.
 *
 * This is its own executable on purpose: getrusage's ru_maxrss is the
 * process-wide peak, so no other test may share the process.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <vector>

#include "load/client_pool.hh"
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

    EchoTransport(sim::EventQueue &q, ClientPool &p)
        : eq(q), pool(p), ep(p.addEndpoint(*this))
    {}

    void
    issue(std::uint32_t serial, std::uint64_t, bool, std::size_t) override
    {
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
    sim::EventQueue eq;
    PoolConfig pc;
    pc.clients = 1u << 20;
    pc.seed = 7;
    pc.workload.arrival.kind = ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = 1e6;
    pc.workload.keys.kind = KeySpec::Kind::Zipf;
    pc.workload.keys.keys = 1000;
    ClientPool pool(eq, pc);
    std::vector<EchoTransport> eps;
    eps.reserve(256);
    for (int i = 0; i < 256; ++i)
        eps.emplace_back(eq, pool);
    pool.start();
    eq.runUntil(5 * sim::kMillisecond);
    pool.stop();

    EXPECT_NEAR(double(pool.issued()), 5000.0, 300.0);
    EXPECT_GT(pool.completions(), pool.issued() - 100);
    double rss = peakRssMiB();
    RecordProperty("peak_rss_mib", int(rss));
    EXPECT_LT(rss, 256.0) << "peak RSS " << rss << " MiB";
}
