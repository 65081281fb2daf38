#include "hpc/imb.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "sim/random.hh"

namespace npf::hpc {

const char *
imbName(ImbBenchmark b)
{
    switch (b) {
      case ImbBenchmark::Sendrecv:
        return "sendrecv";
      case ImbBenchmark::Bcast:
        return "bcast";
      case ImbBenchmark::Alltoall:
        return "alltoall";
      case ImbBenchmark::Allreduce:
        return "allreduce";
    }
    return "?";
}

double
runImb(Cluster &cluster, ImbBenchmark bench, std::size_t msg_bytes,
       unsigned iterations, unsigned pool_depth)
{
    sim::EventQueue &eq = cluster.eventQueue();
    BufferPool pool(cluster, msg_bytes, pool_depth);
    Collectives coll(cluster, pool);

    bool finished = false;
    sim::Time started = eq.now();

    // The closure captures itself weakly: a strong self-capture would
    // form a shared_ptr cycle and leak the closure. Callers (the
    // stack variable and the scheduled continuations) hold strong
    // references, so lock() always succeeds.
    auto iterate = std::make_shared<std::function<void(unsigned)>>();
    *iterate = [&, wi = std::weak_ptr(iterate)](unsigned iter) {
        if (iter >= iterations) {
            finished = true;
            return;
        }
        auto next = [iterate = wi.lock(), iter] { (*iterate)(iter + 1); };
        switch (bench) {
          case ImbBenchmark::Sendrecv:
            coll.sendrecv(msg_bytes, iter, next);
            break;
          case ImbBenchmark::Bcast:
            coll.bcast(msg_bytes, iter, next);
            break;
          case ImbBenchmark::Alltoall:
            coll.alltoall(msg_bytes, iter, next);
            break;
          case ImbBenchmark::Allreduce:
            coll.allreduce(msg_bytes, iter, next);
            break;
        }
    };
    (*iterate)(0);

    bool ok = eq.runUntilCondition([&] { return finished; },
                                   eq.now() + 3600 * sim::kSecond);
    assert(ok && "IMB run did not converge");
    (void)ok;
    return sim::toSeconds(eq.now() - started);
}

namespace {

/** One full exchange along a permutation; returns when all done. */
void
permutationExchange(Cluster &c, BufferPool &pool,
                    const std::vector<unsigned> &sendto, std::size_t len,
                    unsigned iter, std::function<void()> done)
{
    unsigned n = c.ranks();
    // Count the exchange first: an identity permutation (possible from
    // the random-pattern shuffle on small clusters) completes
    // immediately, and `done` must still be callable on that path — so
    // don't move it into `fin` until we know fin will run.
    unsigned exchanges = 0;
    for (unsigned r = 0; r < n; ++r) {
        if (sendto[r] != r)
            exchanges += 2;
    }
    if (exchanges == 0) {
        done();
        return;
    }
    auto pending = std::make_shared<int>(int(exchanges));
    auto fin = [pending, done = std::move(done)] {
        if (--*pending == 0)
            done();
    };
    std::vector<unsigned> recvfrom(n);
    for (unsigned r = 0; r < n; ++r)
        recvfrom[sendto[r]] = r;
    for (unsigned r = 0; r < n; ++r) {
        if (sendto[r] == r)
            continue;
        c.isend(r, sendto[r], pool.send(r, iter), len, fin);
        c.irecv(r, recvfrom[r], pool.recv(r, iter), len, fin);
    }
}

} // namespace

BeffResult
runBeff(sim::EventQueue &eq, const ClusterConfig &cfg,
        core::RegMode mode, unsigned repetitions)
{
    // beff's official size ladder reaches Lmax = memory/128, so
    // large messages carry most of the weight; the ladder below
    // reproduces that emphasis.
    const std::vector<std::size_t> sizes = {
        64 * 1024,  256 * 1024,  1024 * 1024,
        2 * 1024 * 1024, 4 * 1024 * 1024,
    };
    constexpr unsigned kItersPerPoint = 8;

    std::vector<double> reps;
    for (unsigned rep = 0; rep < repetitions; ++rep) {
        Cluster cluster(eq, cfg, mode);
        unsigned n = cluster.ranks();
        BufferPool pool(cluster, sizes.back(), 8);
        sim::Rng rng(0xbeef + rep);

        // Patterns: rings at distances 1..3 plus a random permutation.
        std::vector<std::vector<unsigned>> patterns;
        for (unsigned d = 1; d <= 3 && d < n; ++d) {
            std::vector<unsigned> p(n);
            for (unsigned r = 0; r < n; ++r)
                p[r] = (r + d) % n;
            patterns.push_back(std::move(p));
        }
        {
            std::vector<unsigned> p(n);
            std::iota(p.begin(), p.end(), 0);
            std::shuffle(p.begin(), p.end(), rng.engine());
            // A pattern that moves no bytes is not a bandwidth
            // sample: on small clusters the shuffle can come back
            // (partially) as the identity, and a no-op point would
            // divide by zero elapsed time. Only keep it if someone
            // actually communicates.
            bool moves = false;
            for (unsigned r = 0; r < n; ++r)
                moves = moves || p[r] != r;
            if (moves)
                patterns.push_back(std::move(p));
        }

        double bw_accum = 0.0;
        unsigned points = 0;
        unsigned iter_counter = 0;
        for (const auto &pat : patterns) {
            for (std::size_t len : sizes) {
                bool finished = false;
                sim::Time start = eq.now();
                auto loop =
                    std::make_shared<std::function<void(unsigned)>>();
                // Weak self-capture: see runImb.
                *loop = [&, wl = std::weak_ptr(loop)](unsigned i) {
                    if (i >= kItersPerPoint) {
                        finished = true;
                        return;
                    }
                    permutationExchange(cluster, pool, pat, len,
                                        iter_counter++,
                                        [loop = wl.lock(), i] {
                                            (*loop)(i + 1);
                                        });
                };
                (*loop)(0);
                bool ok = eq.runUntilCondition(
                    [&] { return finished; },
                    eq.now() + 3600 * sim::kSecond);
                assert(ok);
                (void)ok;
                double secs = sim::toSeconds(eq.now() - start);
                double bytes =
                    double(len) * kItersPerPoint * double(n);
                bw_accum += bytes / secs / 1e6; // MB/s aggregate
                ++points;
            }
        }
        reps.push_back(bw_accum / points);
        // Drain stragglers (ACK coalescing, timers) before the
        // cluster is destroyed, so no event outlives its QP.
        eq.run();
    }

    BeffResult res;
    double mean = std::accumulate(reps.begin(), reps.end(), 0.0) /
                  double(reps.size());
    res.beffMBps = mean;
    double var = 0.0;
    for (double v : reps)
        var += (v - mean) * (v - mean);
    res.stddevMBps = std::sqrt(var / double(reps.size()));
    return res;
}

} // namespace npf::hpc
