/**
 * @file
 * Open-loop throughput-versus-tail-latency sweep over the memcached
 * (TCP/Ethernet) or KV-RPC (InfiniBand RC) server.
 *
 * For each offered rate a fresh testbed is built and driven by the
 * load::ClientPool with a Poisson arrival schedule: logical clients
 * (default 100 k) are flyweights multiplexed over a bounded set of
 * transport endpoints (default 64), and latency is measured from the
 * *intended* arrival times, so the reported percentiles are
 * coordinated-omission-corrected — overload shows up as the tail
 * exploding, not as the generator politely slowing down.
 *
 *   load_sweep [--transport=eth|ib] [--clients=N] [--endpoints=N]
 *              [--rates=R1,R2,...] [--workload=SPEC] [--seed=N]
 *              [--timeout=D] [--retries=N] [--slo=D]
 *              [--warmup=D] [--duration=D]
 *              [--topology=SPEC] [--ovs=F1,F2,...]
 *              [--fault-plan=SPEC] [--fault-seed=N] [obs flags]
 *
 * The flags are declared in bench/flags.hh (loadSweepFlags); anything
 * else, and any malformed value, exits 64 with the accepted list.
 *
 * With --topology (ib only; net/topology.hh grammar) the flat
 * two-node fabric is replaced by a real switched topology: the KV
 * server lives on host 0 and the client endpoints incast from hosts
 * 1..H-1 through the fabric, so an overcommitted server shows up as
 * queueing in the leaf/spine rather than a magic wire. --ovs sweeps
 * the leaf-spine oversubscription factor (rewriting the spec's ovs=
 * key) and reports the SLO damage per ratio.
 *
 * The workload spec (docs/WORKLOADS.md) sets the key-popularity
 * model and request mix; its arrival part is overridden by each
 * swept rate. With --fault-plan the client-side timeout/retry path
 * (--timeout/--retries) keeps the generator live through server
 * stalls and surfaces the damage as timeouts and retries.
 */

#include <deque>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "scenario/ib_world.hh"

using namespace npf;
using namespace npf::app;
using namespace npf::bench;
using namespace npf::scenario;

namespace {

load::PoolConfig
poolConfig(const SweepArgs &a, double rate)
{
    load::PoolConfig pc;
    pc.clients = a.clients;
    pc.seed = a.seed;
    pc.workload = load::WorkloadSpec::parse(a.workload, nullptr).value();
    pc.workload.arrival.kind = load::ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = rate;
    pc.timeout = a.timeout;
    pc.maxRetries = a.retries;
    return pc;
}

struct RateResult
{
    double offered = 0, achieved = 0;
    double p50 = 0, p99 = 0, p999 = 0, servP99 = 0;
    std::uint64_t timeouts = 0, retries = 0, shed = 0, violations = 0;
    std::string report; ///< full SLO report text
};

/** Drive one pool/recorder pair through warmup+duration and collect
 *  the row. Shared by both transports once the bed is wired. */
RateResult
runPool(sim::EventQueue &eq, load::ClientPool &pool,
        load::Recorder &rec, const SweepArgs &a, double rate)
{
    load::SloConfig slo;
    slo.cls = 0; // "get"
    slo.percentile = 99.0;
    slo.target = a.slo;
    load::SloMonitor monitor(eq, rec, slo);

    pool.start();
    // Pool counters (timeouts/retries/shed) cover the measure window
    // only, like the recorder's latencies.
    eq.schedule(a.warmup, [&pool] { pool.resetCounters(); });
    eq.runUntil(a.warmup + a.duration);
    pool.stop();

    RateResult r;
    r.offered = rate;
    const load::Histogram &get = rec.response(0);
    const load::Histogram &set = rec.response(1);
    std::uint64_t n = rec.completions(0) + rec.completions(1);
    r.achieved = double(n) / sim::toSeconds(a.duration);
    load::Histogram all;
    all.merge(get);
    all.merge(set);
    r.p50 = all.percentile(50);
    r.p99 = all.percentile(99);
    r.p999 = all.percentile(99.9);
    load::Histogram serv;
    serv.merge(rec.service(0));
    serv.merge(rec.service(1));
    r.servP99 = serv.percentile(99);
    r.timeouts = pool.timeouts();
    r.retries = pool.retries();
    r.shed = pool.shedArrivals();
    r.violations = monitor.violations();
    std::ostringstream os;
    rec.writeReport(os, eq.now());
    r.report = os.str();
    return r;
}

RateResult
runEth(const SweepArgs &a, const ObsArgs &obs_args, double rate)
{
    EthBed bed({.ringSize = 256});
    auto injector = installFaultPlan(obs_args, bed.eq);
    auto obs = openObsSession(obs_args, bed.eq);

    load::PoolConfig pc = poolConfig(a, rate);
    HostModel host;
    MemcachedInstance mc(bed, host,
                         {.kvBytes = 512ull << 20,
                          .connections = a.endpoints,
                          .preloadKeys = pc.workload.keys.keys});
    requireConnected(mc);
    std::deque<ChannelTransport> transports;
    load::Recorder rec(load::RecorderConfig{a.warmup, a.duration});
    load::ClientPool pool(bed.eq, pc);
    pool.setRecorder(rec);
    for (RpcChannel &ch : mc.chans) {
        transports.emplace_back(ch);
        transports.back().connect(pool);
    }
    return runPool(bed.eq, pool, rec, a, rate);
}

/** Rewrite (or add) the `ovs=` key of a leafspine topology spec. */
std::string
withOvsFactor(const std::string &spec, double f)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "ovs=%g", f);
    std::string::size_type pos = spec.find("ovs=");
    if (pos == std::string::npos)
        return spec + "," + buf;
    std::string::size_type end = spec.find(',', pos);
    std::string out = spec.substr(0, pos) + buf;
    if (end != std::string::npos)
        out += spec.substr(end);
    return out;
}

RateResult
runIb(const SweepArgs &a, const ObsArgs &obs_args, double rate,
      const std::string &topo_spec)
{
    sim::EventQueue eq;
    // Incast shape: server on host 0, clients spread over the rest.
    // The flag table checked the spec (>= 2 hosts) and kept --ovs
    // factors >= 1, so the ovs= rewrite parses too.
    std::optional<net::Topology> topo;
    if (!topo_spec.empty())
        topo = net::Topology::parse(topo_spec, nullptr).value();
    IbBed bed(eq, topo ? &*topo : nullptr);
    auto injector = installFaultPlan(obs_args, eq);
    auto obs = openObsSession(obs_args, eq);

    KvWorld w(bed, poolConfig(a, rate),
              load::RecorderConfig{a.warmup, a.duration},
              {.kvBytes = 512ull << 20});
    w.connect(a.endpoints);
    return runPool(eq, w.pool, w.rec, a, rate);
}

} // namespace

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    SweepArgs a;
    parseFlagsOrExit(argc, argv, loadSweepFlags(a, obs_args));

    header("load sweep: offered rate vs tail latency");
    row("transport=%s clients=%llu endpoints=%u seed=%llu "
        "workload=\"%s\"",
        a.ib ? "ib" : "eth", (unsigned long long)a.clients, a.endpoints,
        (unsigned long long)a.seed, a.workload.c_str());
    if (!a.topology.empty())
        row("topology=\"%s\" (server=host0, clients incast from the "
            "rest)",
            a.topology.c_str());

    // One pass per oversubscription factor (one pass total without
    // --ovs), so the tail-vs-ratio damage reads top to bottom.
    std::vector<double> ovs_sweep = a.ovs;
    if (ovs_sweep.empty())
        ovs_sweep.push_back(0); // sentinel: spec as given
    RateResult last;
    unsigned iter = 0;
    for (double f : ovs_sweep) {
        std::string spec = a.topology;
        if (f > 0) {
            spec = withOvsFactor(a.topology, f);
            row("");
            row("oversubscription %g:1  (%s)", f, spec.c_str());
        }
        row("%10s %10s %9s %9s %10s %9s %8s %8s %8s %6s", "offered/s",
            "achieved/s", "p50[us]", "p99[us]", "p99.9[us]", "srv-p99",
            "timeout", "retry", "shed", "slo!");
        for (double rate : a.rates) {
            // Per-rate output files (trace.000.json, ...).
            ObsArgs it = withIter(obs_args, iter++);
            RateResult r = a.ib ? runIb(a, it, rate, spec)
                                : runEth(a, it, rate);
            row("%10.0f %10.0f %9.1f %9.1f %10.1f %9.1f %8llu %8llu "
                "%8llu %6llu",
                r.offered, r.achieved, r.p50, r.p99, r.p999, r.servP99,
                (unsigned long long)r.timeouts,
                (unsigned long long)r.retries, (unsigned long long)r.shed,
                (unsigned long long)r.violations);
            last = r;
        }
    }
    std::printf("\n%s", last.report.c_str());
    std::printf("(report covers the last swept rate%s; latencies are "
                "coordinated-omission corrected)\n",
                a.ovs.empty() ? "" : " of the last ratio");
    std::fflush(stdout);
    return 0;
}
