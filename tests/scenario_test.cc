/**
 * @file
 * The world catalogue (src/scenario/) against the hand-built worlds it
 * replaced. stack_bench's ib_openloop KV world and its eth_pin
 * memcached instance each run a 50 ms window and fold their end state
 * into one Digest. Construction order is part of the simulated result,
 * so the digest must replay and must equal the value the hand-built
 * worlds produced.
 */

#include <gtest/gtest.h>

#include "scenario/digest.hh"
#include "scenario/eth_world.hh"
#include "scenario/ib_world.hh"

using namespace npf;

namespace {

constexpr sim::Time kWindow = 50 * sim::kMillisecond;

void
foldIbKv(scenario::Digest &d)
{
    load::PoolConfig pc;
    pc.clients = 256;
    pc.seed = 1;
    pc.workload.arrival.kind = load::ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = 120e3;
    pc.workload.keys.kind = load::KeySpec::Kind::Uniform;
    pc.workload.keys.keys = 2000;
    pc.workload.getRatio = 0.9;

    sim::EventQueue eq;
    scenario::IbBed bed(eq);
    scenario::KvWorld w(bed, pc, load::RecorderConfig{0, kWindow}, {});
    w.connect(4);
    w.pool.start();
    eq.runUntil(kWindow);
    w.pool.stop();

    d.mix(eq.now());
    d.mix(eq.stats().executed);
    d.mix(eq.stats().scheduled);
    d.mix(w.pool.issued());
    d.mix(w.pool.completions());
    d.mix(w.pool.hits());
    d.mix(w.rec.completions(0));
    d.mix(w.rec.completions(1));
    d.mix(w.kv.hits());
    d.mix(w.kv.misses());
    d.mix(w.server.opsServed());
    d.mix(bed.serverNpfc.stats().npfs);
    d.mix(bed.clientNpfcs[0].stats().npfs);
    for (const ib::QueuePair &qp : w.qps) {
        d.mix(qp.stats().sendNpfs);
        d.mix(qp.stats().dataPacketsSent);
    }
}

void
foldEthPin(scenario::Digest &d)
{
    scenario::EthBed bed({.policy = eth::RxFaultPolicy::Pin,
                          .ringSize = 256});
    app::HostModel host;
    scenario::MemcachedInstance mc(
        bed, host,
        {.preloadKeys = 2000,
         .slap = app::MemaslapConfig{0.9, 2000, 4, 64}});
    ASSERT_EQ(mc.failedConnect, 0u);
    mc.slap->start();
    bed.eq.runUntil(bed.eq.now() + kWindow);

    d.mix(bed.eq.now());
    d.mix(bed.eq.stats().executed);
    d.mix(bed.eq.stats().scheduled);
    d.mix(mc.slap->transactions());
    d.mix(mc.slap->hits());
    d.mix(mc.kv.hits());
    d.mix(mc.kv.misses());
    d.mix(mc.server.opsServed());
    d.mix(bed.serverNpfc->stats().npfs);
    d.mix(bed.server->ringStats().rnpfs);
    d.mix(bed.server->ringStats().dropped);
}

std::uint64_t
worldsDigest()
{
    scenario::Digest d;
    foldIbKv(d);
    foldEthPin(d);
    return d.h;
}

} // namespace

TEST(Scenario, WorldsReplayBitIdentically)
{
    EXPECT_EQ(worldsDigest(), worldsDigest());
}

TEST(Scenario, WorldsMatchTheHandBuiltWorlds)
{
    // Folded from the hand-built stack_bench worlds the catalogue
    // replaced; any change to a world's construction order moves it.
    EXPECT_EQ(worldsDigest(), 0xa7f1fb6d4f2322d2ull);
}
