/**
 * @file
 * Shared helpers for the experiment benches: table printing, the
 * per-iteration obs outputs, fault plans and a stopwatch. The worlds
 * the benches run live in src/scenario/.
 */

#ifndef NPF_BENCH_COMMON_HH
#define NPF_BENCH_COMMON_HH

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/flags.hh"
#include "fault/fault.hh"
#include "load/spec.hh"
#include "obs/flight.hh"
#include "obs/session.hh"
#include "scenario/eth_world.hh"

namespace npf::bench {

inline void
header(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

inline void
row(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stdout, fmt, ap);
    va_end(ap);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

/**
 * Copy of @p a with iteration @p idx folded into every output path
 * ("trace.json" -> "trace.003.json"). Sweep benches that open one
 * obs::Session per configuration call this so iterations do not
 * clobber each other.
 */
inline ObsArgs
withIter(const ObsArgs &a, unsigned idx)
{
    ObsArgs b = a;
    if (b.trace)
        b.traceOut = obs::indexedPath(b.traceOut, idx);
    if (!b.metricsOut.empty())
        b.metricsOut = obs::indexedPath(b.metricsOut, idx);
    if (b.flightCapacity != 0)
        b.flightDumpPath = obs::indexedPath(b.flightDumpPath, idx);
    return b;
}

/**
 * Install the fault plan named by --fault-plan on @p eq, or return
 * nullptr (and change nothing) when the flag was absent; the flag
 * table has already rejected a malformed spec. Keep the returned
 * injector alive for the run; because the injector binds to one event
 * queue, benches that build several beds must scope it per bed.
 */
inline std::unique_ptr<fault::FaultInjector>
installFaultPlan(const ObsArgs &a, sim::EventQueue &eq)
{
    if (a.faultPlan.empty())
        return nullptr;
    return std::make_unique<fault::FaultInjector>(
        eq, fault::FaultPlan::parse(a.faultPlan, nullptr).value(),
        a.faultSeed);
}

/**
 * One-line observability setup: returns an active obs::Session when
 * any obs flag was given, nullptr otherwise (zero overhead). Keep the
 * returned pointer alive for the run; outputs are written when it is
 * destroyed.
 */
inline std::unique_ptr<obs::Session>
openObsSession(const ObsArgs &a, sim::EventQueue &eq)
{
    if (!a.trace && a.metricsOut.empty() && a.sampleInterval == 0 &&
        a.flightCapacity == 0 && !a.attribution && !a.profileEventLoop)
        return nullptr;
    return std::make_unique<obs::Session>(eq, a);
}

/** Wall-clock seconds since @p t0. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

using scenario::EthBed;
using scenario::MemcachedInstance;

/** Exit 2 naming the first connection of @p mc whose handshake failed,
 *  so a bench never runs its clients on a dead channel. */
inline void
requireConnected(const MemcachedInstance &mc)
{
    if (mc.failedConnect != 0) {
        std::fprintf(stderr, "connect %u failed\n", mc.failedConnect);
        std::exit(2);
    }
}

} // namespace npf::bench

#endif // NPF_BENCH_COMMON_HH
