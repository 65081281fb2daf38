/**
 * @file
 * The benches' one flag parser. A bench declares the flags it reads as
 * a FlagTable; parseFlags applies it to argv and rejects everything
 * else: an unknown flag, a value given to a flag that takes none, a
 * missing value, and a malformed, out-of-range or empty value. A flag
 * given twice takes its last value. Every bench's table is built here,
 * so tests/bench_flags_test.cc parses exactly what the benches parse;
 * docs/OBSERVABILITY.md lists the flags.
 */

#ifndef NPF_BENCH_FLAGS_HH
#define NPF_BENCH_FLAGS_HH

#include <sysexits.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/registration.hh"
#include "fault/fault.hh"
#include "load/spec.hh"
#include "net/topology.hh"
#include "obs/session.hh"
#include "sim/spec_text.hh"

namespace npf::bench {

// A flag's value goes through the setter kinds of the spec lexer, the
// ones the WorkloadSpec, FaultPlan and Topology grammars use.
using spec::duration;
using spec::expectedIn;
using spec::number;
using spec::oneOf;
using spec::rate;
using spec::Setter;

/** Whether a flag takes a value: never, always, or optionally. */
enum class Takes { Nothing, Value, OptionalValue };

struct Flag
{
    std::string name; ///< "--seed"
    Takes takes = Takes::Nothing;
    Setter set;       ///< Takes::Nothing: called with ""
    std::string bare; ///< OptionalValue: the value of the bare flag
};

/** The flags a bench reads, plus checks that run once after all of
 *  argv (implied values, flag combinations). */
struct FlagTable
{
    std::vector<Flag> flags;
    std::vector<std::function<std::string()>> checks;

    FlagTable(std::initializer_list<Flag> f) : flags(f) {}

    FlagTable &
    add(const FlagTable &more)
    {
        flags.insert(flags.end(), more.flags.begin(), more.flags.end());
        checks.insert(checks.end(), more.checks.begin(),
                      more.checks.end());
        return *this;
    }
};

/** "--name": takes no value, sets *@p on. */
inline Flag
toggle(std::string name, bool *on)
{
    Setter set = [on](const std::string &) {
        *on = true;
        return std::string();
    };
    return {std::move(name), Takes::Nothing, std::move(set), {}};
}

/** "--name=V". */
inline Flag
valued(std::string name, Setter set)
{
    return {std::move(name), Takes::Value, std::move(set), {}};
}

/** "--name[=V]": the bare flag means "--name=@p bare". */
inline Flag
withDefault(std::string name, std::string bare, Setter set)
{
    return {std::move(name), Takes::OptionalValue, std::move(set),
            std::move(bare)};
}

// --- setter kinds of the benches ------------------------------------------

/** Any text; with a Spec (fault::FaultPlan, load::WorkloadSpec,
 *  net::Topology), text that Spec::parse accepts. */
template <typename Spec = void>
Setter
text(std::string *out)
{
    return [out](const std::string &s) -> std::string {
        std::string err;
        if constexpr (!std::is_void_v<Spec>)
            if (!Spec::parse(s, &err))
                return err;
        *out = s;
        return {};
    };
}

/** A comma-separated list, each item checked by @p item's setter; the
 *  list replaces *@p out. */
inline Setter
listOf(std::vector<double> *out, std::function<Setter(double *)> item)
{
    return [out, item](const std::string &s) -> std::string {
        std::vector<double> items;
        for (std::size_t pos = 0; pos <= s.size();) {
            std::size_t comma = std::min(s.find(',', pos), s.size());
            std::string one = s.substr(pos, comma - pos);
            double v = 0;
            std::string err = one.empty() ? "empty list item"
                                          : item(&v)(one);
            if (!err.empty())
                return err + " (item '" + one + "')";
            items.push_back(v);
            pos = comma + 1;
        }
        *out = std::move(items);
        return {};
    };
}

// --- the parser --------------------------------------------------------

inline std::string
applyFlag(const FlagTable &t, const std::string &arg)
{
    std::size_t eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    auto f = std::find_if(t.flags.begin(), t.flags.end(),
                          [&name](const Flag &c) { return c.name == name; });
    if (f == t.flags.end())
        return "unknown flag " + name;
    if (eq == std::string::npos && f->takes == Takes::Value)
        return name + " needs a value (" + name + "=V)";
    if (eq == std::string::npos)
        return f->set(f->bare);
    if (f->takes == Takes::Nothing)
        return name + " takes no value";
    std::string value = arg.substr(eq + 1);
    if (value.empty())
        return "empty value for " + name;
    std::string err = f->set(value);
    return err.empty() ? err
                       : "bad value for " + name + " '" + value + "': " + err;
}

/**
 * Apply @p t to argv[1..argc), then run its checks. Returns "" or the
 * first error, followed by the flags the bench (argv[0]) accepts.
 */
inline std::string
parseFlags(int argc, const char *const *argv, const FlagTable &t)
{
    std::string err;
    for (int i = 1; i < argc && err.empty(); ++i)
        err = applyFlag(t, argv[i]);
    for (std::size_t i = 0; i < t.checks.size() && err.empty(); ++i)
        err = t.checks[i]();
    if (err.empty())
        return err;
    std::string bench = argc > 0 ? argv[0] : "bench";
    err += "; " + bench.substr(bench.find_last_of('/') + 1) + " accepts:";
    for (const Flag &f : t.flags)
        err += " " + f.name +
               (f.takes == Takes::Value           ? "=V"
                : f.takes == Takes::OptionalValue ? "[=V]"
                                                  : "");
    return err;
}

/** parseFlags for a bench's main: on error, print it and exit 64
 *  (EX_USAGE), an exit code no bench uses for a result. */
inline void
parseFlagsOrExit(int argc, char **argv, const FlagTable &t)
{
    std::string err = parseFlags(argc, argv, t);
    if (!err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        std::exit(EX_USAGE);
    }
}

// --- shared fragments ----------------------------------------------------

constexpr std::size_t kDefaultFlightRing = 1u << 16;

/** The obs session the obs flags configure, plus what the fault
 *  fragment sets. */
struct ObsArgs : obs::SessionOptions
{
    std::string faultPlan; ///< empty: no plan
    std::uint64_t faultSeed = 1;
};

/** The flags of every bench that opens an obs session. A dump flag
 *  arms the default ring unless --flight-recorder=N sized it, in
 *  either order. */
inline FlagTable
obsFlags(ObsArgs &a)
{
    FlagTable t{
        withDefault("--trace", "trace.json",
                    [&a](const std::string &v) {
                        a.trace = true;
                        return text(&a.traceOut)(v);
                    }),
        valued("--metrics-out", text(&a.metricsOut)),
        valued("--sample-us",
               [&a](const std::string &v) {
                   std::uint64_t us = 0;
                   std::string err = number<std::uint64_t>(
                       &us, 0,
                       std::numeric_limits<sim::Time>::max() /
                           sim::kMicrosecond)(v);
                   if (err.empty())
                       a.sampleInterval = us * sim::kMicrosecond;
                   return err;
               }),
        withDefault("--flight-recorder", std::to_string(kDefaultFlightRing),
                    number<std::size_t>(&a.flightCapacity, 1, 1u << 24)),
        toggle("--flight-dump-on-slo", &a.flightDumpOnSlo),
        withDefault("--flight-dump", "flight.json",
                    [&a](const std::string &v) {
                        a.flightDumpAtEnd = true;
                        return text(&a.flightDumpPath)(v);
                    }),
        toggle("--attr", &a.attribution),
        toggle("--profile-eq", &a.profileEventLoop),
    };
    t.checks.push_back([&a] {
        if (a.flightCapacity == 0 && (a.flightDumpOnSlo || a.flightDumpAtEnd))
            a.flightCapacity = kDefaultFlightRing;
        return std::string();
    });
    return t;
}

inline FlagTable
faultFlags(ObsArgs &a)
{
    return {valued("--fault-plan", text<fault::FaultPlan>(&a.faultPlan)),
            valued("--fault-seed", number(&a.faultSeed))};
}

/** --warmup=D and --duration=D over the bench's own defaults. */
inline FlagTable
windowFlags(sim::Time *warmup, sim::Time *measure)
{
    return {valued("--warmup", duration(warmup)),
            valued("--duration", duration(measure, 1))};
}

/** engine_speed, obs_overhead, stack_bench, fabric_pfc_storm. */
inline FlagTable
timingFlags(std::string *json, bool *smoke)
{
    return {valued("--json", text(json)), toggle("--smoke", smoke)};
}

// --- benches with flags of their own -------------------------------------

struct SweepArgs
{
    bool ib = false; ///< --transport=ib (default eth)
    std::uint64_t clients = 100000;
    unsigned endpoints = 64;
    std::vector<double> rates{100e3, 150e3, 186e3, 220e3};
    std::string workload = "keys=zipf:n=100k,theta=0.99;get=0.9";
    std::uint64_t seed = 1;
    sim::Time timeout = 0;
    unsigned retries = 0;
    sim::Time slo = sim::kMillisecond; ///< p99 target for the monitor
    /** The cold rx ring takes ~0.9 s to fully warm (fig04); keep the
     *  startup transient out of the measure window by default. */
    sim::Time warmup = sim::kSecond;
    sim::Time duration = 500 * sim::kMillisecond;
    std::string topology;      ///< empty = legacy two-node fabric
    std::vector<double> ovs;   ///< oversubscription sweep (leafspine)
};

inline FlagTable
loadSweepFlags(SweepArgs &a, ObsArgs &obs)
{
    FlagTable t{
        valued("--transport", oneOf(&a.ib, {{"eth", false}, {"ib", true}})),
        valued("--clients", rate(&a.clients, 1, 1e12)),
        valued("--endpoints", number(&a.endpoints, 1u)),
        valued("--rates", listOf(&a.rates, [](double *v) {
                   return rate(v, 1, 1e12);
               })),
        valued("--workload", text<load::WorkloadSpec>(&a.workload)),
        valued("--seed", number(&a.seed)),
        valued("--timeout", duration(&a.timeout)),
        valued("--retries", number(&a.retries)),
        valued("--slo", duration(&a.slo, 1)),
        valued("--topology", text<net::Topology>(&a.topology)),
        valued("--ovs", listOf(&a.ovs, [](double *v) {
                   return number(v, 1.0, 1e3);
               })),
    };
    t.add(obsFlags(obs)).add(faultFlags(obs));
    t.add(windowFlags(&a.warmup, &a.duration));
    t.checks.push_back([&a]() -> std::string {
        if (!a.ovs.empty() && a.topology.compare(0, 9, "leafspine") != 0)
            return "--ovs requires a leafspine --topology";
        if (a.topology.empty())
            return {};
        if (!a.ib)
            return "--topology requires --transport=ib";
        if (net::Topology::parse(a.topology, nullptr)->hosts < 2)
            return "--topology needs >= 2 hosts";
        return {};
    });
    return t;
}

struct RegArgs
{
    std::uint64_t seed = 1;
    std::optional<core::RegMode> mode; ///< empty: all disciplines
    bool smoke = false;
    bool allocGate = false;
    core::RegMode gateMode = core::RegMode::NpRdma;
};

inline FlagTable
regShootoutFlags(RegArgs &a, ObsArgs &obs)
{
    using core::RegMode;
    std::vector<std::pair<std::string, std::optional<RegMode>>> modes{
        {"all", std::nullopt}};
    std::vector<std::pair<std::string, RegMode>> gateModes;
    for (RegMode m : {RegMode::Copy, RegMode::PinDownCache, RegMode::Npf,
                      RegMode::NpRdma}) {
        modes.emplace_back(core::regModeName(m), m);
        gateModes.emplace_back(core::regModeName(m), m);
    }
    FlagTable t{
        valued("--seed", number(&a.seed)),
        valued("--mode", oneOf(&a.mode, modes)),
        toggle("--smoke", &a.smoke),
        toggle("--alloc-gate", &a.allocGate),
        valued("--gate-mode", oneOf(&a.gateMode, gateModes)),
    };
    return t.add(obsFlags(obs));
}

struct ShardArgs
{
    unsigned shards = 4;           ///< the parallel configuration
    std::uint64_t clients = 1u << 20; ///< total logical clients
    double rate = 400e3;           ///< total offered req/s
    unsigned endpoints = 64;       ///< total transport endpoints
    sim::Time warmup = 20 * sim::kMillisecond;
    sim::Time duration = 100 * sim::kMillisecond;
    std::uint64_t seed = 1;
    std::string json = "BENCH_shard.json";
    /** Report the speedup but never fail on it (sanitizer smoke
     *  runs, where wall clock measures the sanitizer). */
    bool noSpeedGate = false;
};

/** shard_scale opens no obs session; --shards=N starts N threads. */
inline FlagTable
shardScaleFlags(ShardArgs &a)
{
    FlagTable t{
        valued("--shards", number(&a.shards, 2u, 64u)),
        valued("--clients", rate(&a.clients, 1, 1e12)),
        valued("--rate", rate(&a.rate, 1, 1e12)),
        valued("--endpoints", number(&a.endpoints, 1u)),
        valued("--seed", number(&a.seed)),
        valued("--json", text(&a.json)),
        toggle("--no-speed-gate", &a.noSpeedGate),
    };
    return t.add(windowFlags(&a.warmup, &a.duration));
}

} // namespace npf::bench

#endif // NPF_BENCH_FLAGS_HH
