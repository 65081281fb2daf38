/**
 * @file
 * Tests for the benches' flag table (bench/flags.hh): every value form
 * and setter kind, repeated flags, the rejections (unknown flags, bad
 * and empty values, unknown enum names), the flight flags' order
 * independence, and a seeded mutational test over the bench command
 * lines of scripts/check.sh and the docs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench/flags.hh"

using namespace npf;
using namespace npf::bench;

namespace {

/** Storage for whichever table a bench builds. */
struct Args
{
    ObsArgs obs;
    SweepArgs sweep;
    RegArgs reg;
    ShardArgs shard;
    sim::Time warmup = sim::kSecond / 2;
    sim::Time measure = sim::kSecond;
    std::string json;
    bool smoke = false;
};

const std::vector<std::string> kBenches = {
    "fig03_npf_breakdown", "tab04_npf_tail_latency", "fig04_cold_ring",
    "tab05_memcached_overcommit", "fig07_dynamic_working_set",
    "fig08_storage", "fig09_imb", "tab06_beff", "fig10_whatif",
    "abl_batching", "abl_backup_ring", "abl_pindown_cache",
    "abl_read_rnr", "chaos_recovery", "load_sweep", "engine_speed",
    "obs_overhead", "stack_bench", "reg_shootout", "fabric_incast",
    "fabric_pfc_storm", "shard_scale",
};

/** The table bench @p name builds in its main. */
FlagTable
tableFor(const std::string &name, Args &a)
{
    if (name == "load_sweep")
        return loadSweepFlags(a.sweep, a.obs);
    if (name == "reg_shootout")
        return regShootoutFlags(a.reg, a.obs);
    if (name == "shard_scale")
        return shardScaleFlags(a.shard);
    if (name == "chaos_recovery")
        return obsFlags(a.obs).add(faultFlags(a.obs));
    if (name == "tab05_memcached_overcommit")
        return obsFlags(a.obs).add(windowFlags(&a.warmup, &a.measure));
    if (name == "fabric_incast")
        return {toggle("--smoke", &a.smoke)};
    if (name == "engine_speed" || name == "obs_overhead" ||
        name == "stack_bench" || name == "fabric_pfc_storm")
        return timingFlags(&a.json, &a.smoke);
    return obsFlags(a.obs);
}

/** Parse @p args (argv[1..]) against @p t as bench @p name would. */
std::string
parse(const FlagTable &t, const std::vector<std::string> &args,
      const char *name = "bench")
{
    std::vector<const char *> argv{name};
    for (const std::string &s : args)
        argv.push_back(s.c_str());
    return parseFlags(int(argv.size()), argv.data(), t);
}

std::string
parseBench(const std::string &name, Args &a,
           const std::vector<std::string> &args)
{
    return parse(tableFor(name, a), args, name.c_str());
}

/** Every field the obs flags set, for whole-ObsArgs comparisons. */
auto
fields(const ObsArgs &o)
{
    return std::tie(o.trace, o.traceOut, o.metricsOut, o.sampleInterval,
                    o.flightCapacity, o.flightDumpPath, o.flightDumpOnSlo,
                    o.flightDumpAtEnd, o.attribution, o.profileEventLoop,
                    o.faultPlan, o.faultSeed);
}

// --- value forms ---------------------------------------------------------

TEST(BenchFlags, ToggleTakesNoValue)
{
    bool on = false;
    FlagTable t{toggle("--smoke", &on)};
    EXPECT_EQ(parse(t, {"--smoke"}), "");
    EXPECT_TRUE(on);
    std::string err = parse(t, {"--smoke=1"});
    EXPECT_NE(err.find("--smoke takes no value"), std::string::npos);
    EXPECT_NE(err.find("bench accepts: --smoke"), std::string::npos);
}

TEST(BenchFlags, ValuedNeedsAValue)
{
    std::uint64_t seed = 7;
    FlagTable t{valued("--seed", number(&seed))};
    EXPECT_NE(parse(t, {"--seed"}).find("--seed needs a value"),
              std::string::npos);
    EXPECT_NE(parse(t, {"--seed="}).find("empty value for --seed"),
              std::string::npos);
    EXPECT_EQ(seed, 7u);
    EXPECT_EQ(parse(t, {"--seed=42"}), "");
    EXPECT_EQ(seed, 42u);
}

TEST(BenchFlags, WithDefaultUsesBareValue)
{
    std::string out = "unset";
    FlagTable t{withDefault("--trace", "trace.json", text(&out))};
    EXPECT_EQ(parse(t, {"--trace"}), "");
    EXPECT_EQ(out, "trace.json");
    EXPECT_EQ(parse(t, {"--trace=x.json"}), "");
    EXPECT_EQ(out, "x.json");
    EXPECT_NE(parse(t, {"--trace="}), "");
}

TEST(BenchFlags, UnknownFlagNamesBenchAndAcceptedSet)
{
    bool on = false;
    std::string s;
    FlagTable t{toggle("--smoke", &on),
                withDefault("--trace", "t.json", text(&s)),
                valued("--json", text(&s))};
    std::string err = parse(t, {"--nope=3"}, "/x/y/engine_speed");
    EXPECT_EQ(err, "unknown flag --nope; engine_speed accepts: --smoke "
                   "--trace[=V] --json=V");
    // Positional arguments and prefixes of real flags are unknown too.
    EXPECT_NE(parse(t, {"positional"}), "");
    EXPECT_NE(parse(t, {"--smok"}), "");
    EXPECT_NE(parse(t, {"--"}), "");
    EXPECT_NE(parse(t, {""}), "");
}

TEST(BenchFlags, RepeatedFlagLastWins)
{
    Args a;
    EXPECT_EQ(parseBench("load_sweep", a,
                         {"--seed=3", "--seed=5", "--rates=1k,2k",
                          "--rates=3k"}),
              "");
    EXPECT_EQ(a.sweep.seed, 5u);
    EXPECT_EQ(a.sweep.rates, std::vector<double>{3e3});
}

TEST(BenchFlags, FirstErrorStopsParsing)
{
    std::uint64_t a = 0, b = 0;
    FlagTable t{valued("--a", number(&a)), valued("--b", number(&b))};
    EXPECT_NE(parse(t, {"--a=1", "--a=x", "--b=2"}), "");
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 0u);
}

// --- setter kinds --------------------------------------------------------

TEST(BenchFlags, UnsignedNumbers)
{
    unsigned v = 9;
    Setter s = number(&v, 1u, 64u);
    EXPECT_EQ(s("64"), "");
    EXPECT_EQ(v, 64u);
    EXPECT_EQ(s("65"), "expected an integer in [1, 64]");
    EXPECT_NE(s("0"), "");
    EXPECT_NE(s("-1"), "");
    EXPECT_NE(s("+1"), "");
    EXPECT_NE(s("1x"), "");
    EXPECT_NE(s("64k"), "");
    EXPECT_NE(s(" 1"), "");
    EXPECT_EQ(v, 64u);

    std::uint64_t w = 0;
    Setter u = number(&w);
    EXPECT_EQ(u("18446744073709551615"), "");
    EXPECT_EQ(w, 18446744073709551615ull);
    EXPECT_EQ(u("18446744073709551616"),
              "expected an integer in [0, 18446744073709551615]");
    EXPECT_NE(number(&w, std::uint64_t(1))("0"), "");
}

TEST(BenchFlags, DoubleNumbers)
{
    double v = 0;
    Setter s = number(&v, 1.0, 1e3);
    EXPECT_EQ(s("2.5"), "");
    EXPECT_EQ(v, 2.5);
    EXPECT_EQ(s("0.5"), "expected a number in [1, 1000]");
    EXPECT_NE(s("nan"), "");
    EXPECT_NE(s("inf"), "");
    EXPECT_NE(s("2k"), "");
    double any = 0;
    EXPECT_NE(number(&any)("inf"), "");
    EXPECT_NE(number(&any)("1e999"), "");
}

TEST(BenchFlags, Durations)
{
    sim::Time t = 0;
    Setter s = duration(&t);
    EXPECT_EQ(s("200ms"), "");
    EXPECT_EQ(t, 200 * sim::kMillisecond);
    EXPECT_EQ(s("2s"), "");
    EXPECT_EQ(t, 2 * sim::kSecond);
    EXPECT_EQ(s("40us"), "");
    EXPECT_EQ(t, 40 * sim::kMicrosecond);
    EXPECT_EQ(s("1500"), "");
    EXPECT_EQ(t, 1500u);
    EXPECT_EQ(s("0"), "");
    EXPECT_EQ(t, 0u);
    for (const char *bad : {"10 parsecs", "-1ms", "ms", "nan", "nans",
                            "inf", "infs", "1e300s", "2e10s"})
        EXPECT_NE(s(bad), "") << bad;
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(duration(&t, 1)("0"),
              "expected ns or a duration like 200ms, 2s, 40us in "
              "[1, 18446744073709551615]");
}

TEST(BenchFlags, Rates)
{
    double r = 0;
    Setter s = rate(&r, 1, 1e12);
    EXPECT_EQ(s("20k"), "");
    EXPECT_EQ(r, 20e3);
    EXPECT_EQ(s("1.5M"), "");
    EXPECT_EQ(r, 1.5e6);
    for (const char *bad : {"0", "-5k", "nan", "inf", "2x", "1e13", "k"})
        EXPECT_NE(s(bad), "") << bad;
    std::uint64_t clients = 0;
    EXPECT_EQ(rate(&clients, 1, 1e12)("1.5k"), "");
    EXPECT_EQ(clients, 1500u);
    EXPECT_EQ(rate(&clients, 1, 1e12)("1M"), "");
    EXPECT_EQ(clients, 1000000u);
}

TEST(BenchFlags, TextAndSpecGrammars)
{
    std::string out = "keep";
    EXPECT_EQ(text(&out)("x"), "");
    EXPECT_EQ(out, "x");
    EXPECT_NE(text<fault::FaultPlan>(&out)("link:bogus"), "");
    EXPECT_NE(text<load::WorkloadSpec>(&out)("keys=zipf:n=0"), "");
    EXPECT_NE(text<net::Topology>(&out)("ring:hosts=4"), "");
    EXPECT_EQ(out, "x");
    EXPECT_EQ(text<net::Topology>(&out)("star:hosts=4"), "");
    EXPECT_EQ(out, "star:hosts=4");
}

TEST(BenchFlags, OneOfListsTheChoices)
{
    int v = 0;
    Setter s = oneOf(&v, {{"a", 1}, {"b", 2}});
    EXPECT_EQ(s("b"), "");
    EXPECT_EQ(v, 2);
    EXPECT_EQ(s("c"), "expected one of a|b");
    EXPECT_EQ(s("B"), "expected one of a|b");
    EXPECT_EQ(v, 2);
}

TEST(BenchFlags, ListsReplaceAndCheckEachItem)
{
    std::vector<double> v{9};
    Setter s = listOf(&v, [](double *d) { return rate(d, 1, 1e12); });
    EXPECT_EQ(s("20k,60k"), "");
    EXPECT_EQ(v, (std::vector<double>{20e3, 60e3}));
    for (const char *bad : {"20k,", ",20k", "20k,,60k", "20k,0", "x"})
        EXPECT_NE(s(bad), "") << bad;
    EXPECT_EQ(v, (std::vector<double>{20e3, 60e3}));
    EXPECT_NE(s("1k,bad").find("(item 'bad')"), std::string::npos);
}

// --- the bugs the table fixes --------------------------------------------

TEST(BenchFlags, BenchesRejectFlagsTheyDoNotRead)
{
    Args a;
    std::string err = parseBench("fig03_npf_breakdown", a,
                                 {"--fault-plan=garbage!!"});
    EXPECT_EQ(err.find("unknown flag --fault-plan; fig03_npf_breakdown "
                       "accepts: --trace[=V]"),
              0u)
        << err;
    EXPECT_NE(parseBench("fig04_cold_ring", a,
                         {"--fault-plan=link:drop:rate=0.1"}),
              "");
    EXPECT_NE(parseBench("fig04_cold_ring", a, {"--warmup=1s"}), "");
    EXPECT_NE(parseBench("tab06_beff", a, {"--trace-overwrite"}), "");
    EXPECT_NE(parseBench("engine_speed", a, {"--smok"}), "");
    EXPECT_NE(parseBench("fabric_incast", a, {"--json=x"}), "");
    EXPECT_NE(parseBench("shard_scale", a, {"--trace"}), "");
    EXPECT_EQ(parseBench("tab05_memcached_overcommit", a,
                         {"--warmup=1s", "--duration=2s"}),
              "");
    EXPECT_EQ(a.warmup, sim::kSecond);
    EXPECT_EQ(a.measure, 2 * sim::kSecond);
}

TEST(BenchFlags, FaultPlanIsCheckedAtParseTime)
{
    Args a;
    std::string err =
        parseBench("chaos_recovery", a, {"--fault-plan=garbage!!"});
    EXPECT_EQ(err.find("bad value for --fault-plan 'garbage!!': "), 0u)
        << err;
    EXPECT_EQ(parseBench("chaos_recovery", a,
                         {"--fault-plan=link:drop:rate=0.004",
                          "--fault-seed=7"}),
              "");
    EXPECT_EQ(a.obs.faultPlan, "link:drop:rate=0.004");
    EXPECT_EQ(a.obs.faultSeed, 7u);
}

TEST(BenchFlags, EnumFlagsRejectUnknownNames)
{
    Args a;
    EXPECT_NE(parseBench("reg_shootout", a, {"--mode=bogus"})
                  .find("expected one of all|copy|pin|npf|np-rdma"),
              std::string::npos);
    EXPECT_NE(parseBench("reg_shootout", a, {"--gate-mode=bogus"})
                  .find("expected one of copy|pin|npf|np-rdma;"),
              std::string::npos);
    EXPECT_NE(parseBench("reg_shootout", a, {"--gate-mode=all"}), "");
    EXPECT_NE(parseBench("load_sweep", a, {"--transport=rdma"})
                  .find("expected one of eth|ib"),
              std::string::npos);

    EXPECT_EQ(parseBench("reg_shootout", a,
                         {"--mode=pin", "--gate-mode=npf"}),
              "");
    ASSERT_TRUE(a.reg.mode.has_value());
    EXPECT_STREQ(core::regModeName(*a.reg.mode), "pin");
    EXPECT_STREQ(core::regModeName(a.reg.gateMode), "npf");
    EXPECT_EQ(parseBench("reg_shootout", a, {"--mode=all"}), "");
    EXPECT_FALSE(a.reg.mode.has_value());
    EXPECT_EQ(parseBench("load_sweep", a, {"--transport=ib"}), "");
    EXPECT_TRUE(a.sweep.ib);
}

TEST(BenchFlags, EmptyValuesAreErrors)
{
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"fig03_npf_breakdown", "--trace="},
        {"fig03_npf_breakdown", "--metrics-out="},
        {"fig03_npf_breakdown", "--flight-dump="},
        {"fig03_npf_breakdown", "--sample-us="},
        {"engine_speed", "--json="},
        {"shard_scale", "--json="},
        {"load_sweep", "--workload="},
        {"load_sweep", "--topology="},
        {"load_sweep", "--rates="},
        {"chaos_recovery", "--fault-plan="},
    };
    for (const auto &[bench, arg] : cases) {
        Args a;
        std::string err = parseBench(bench, a, {arg});
        EXPECT_EQ(err.find("empty value for " + arg.substr(0, arg.size() - 1)),
                  0u)
            << bench << " " << arg << ": " << err;
    }
}

TEST(BenchFlags, FlightFlagsDoNotDependOnOrder)
{
    auto obsOf = [](const std::vector<std::string> &args) {
        ObsArgs o;
        EXPECT_EQ(parse(obsFlags(o), args), "");
        return o;
    };
    ObsArgs ab = obsOf({"--flight-recorder=4096", "--flight-dump"});
    ObsArgs ba = obsOf({"--flight-dump", "--flight-recorder=4096"});
    EXPECT_EQ(fields(ab), fields(ba));
    EXPECT_EQ(ab.flightCapacity, 4096u);
    EXPECT_TRUE(ab.flightDumpAtEnd);

    EXPECT_EQ(obsOf({"--flight-dump"}).flightCapacity, kDefaultFlightRing);
    EXPECT_EQ(obsOf({"--flight-dump-on-slo"}).flightCapacity,
              kDefaultFlightRing);
    EXPECT_EQ(obsOf({"--flight-recorder"}).flightCapacity,
              kDefaultFlightRing);
    EXPECT_EQ(fields(obsOf({"--flight-dump-on-slo", "--flight-recorder=64"})),
              fields(obsOf({"--flight-recorder=64", "--flight-dump-on-slo"})));
    EXPECT_EQ(obsOf({}).flightCapacity, 0u);

    for (const char *bad : {"--flight-recorder=0", "--flight-recorder=64k",
                            "--flight-recorder=-1"}) {
        ObsArgs o;
        EXPECT_NE(parse(obsFlags(o), {bad, "--flight-dump"}), "") << bad;
        EXPECT_NE(parse(obsFlags(o), {"--flight-dump", bad}), "") << bad;
    }
}

TEST(BenchFlags, ObsFlagsSetTheirFields)
{
    ObsArgs o;
    EXPECT_EQ(parse(obsFlags(o),
                    {"--trace=t.json", "--metrics-out=m.json",
                     "--sample-us=1000", "--flight-dump=f.json", "--attr",
                     "--profile-eq"}),
              "");
    EXPECT_TRUE(o.trace);
    EXPECT_EQ(o.traceOut, "t.json");
    EXPECT_EQ(o.metricsOut, "m.json");
    EXPECT_EQ(o.sampleInterval, 1000 * sim::kMicrosecond);
    EXPECT_EQ(o.flightDumpPath, "f.json");
    EXPECT_TRUE(o.flightDumpAtEnd);
    EXPECT_TRUE(o.attribution);
    EXPECT_TRUE(o.profileEventLoop);
    EXPECT_NE(parse(obsFlags(o), {"--sample-us=10ms"}), "");
    EXPECT_NE(parse(obsFlags(o), {"--sample-us=18446744073709552"}), "");
}

TEST(BenchFlags, WindowsKeepTheBenchDefaults)
{
    Args a;
    EXPECT_EQ(parseBench("load_sweep", a, {}), "");
    EXPECT_EQ(a.sweep.warmup, sim::kSecond);
    EXPECT_EQ(a.sweep.duration, 500 * sim::kMillisecond);
    EXPECT_EQ(a.sweep.rates,
              (std::vector<double>{100e3, 150e3, 186e3, 220e3}));
    EXPECT_EQ(parseBench("shard_scale", a, {"--warmup=0"}), "");
    EXPECT_EQ(a.shard.warmup, 0u);
    EXPECT_EQ(a.shard.duration, 100 * sim::kMillisecond);
    EXPECT_NE(parseBench("shard_scale", a, {"--duration=0"}), "");
    EXPECT_NE(parseBench("load_sweep", a, {"--slo=0"}), "");
}

TEST(BenchFlags, LoadSweepChecksFlagCombinations)
{
    Args a;
    EXPECT_EQ(parseBench("load_sweep", a,
                         {"--topology=star:hosts=4"})
                  .find("--topology requires --transport=ib"),
              0u);
    Args b;
    EXPECT_EQ(parseBench("load_sweep", b,
                         {"--transport=ib", "--topology=star:hosts=4",
                          "--ovs=2"})
                  .find("--ovs requires a leafspine --topology"),
              0u);
    Args c;
    EXPECT_NE(parseBench("load_sweep", c,
                         {"--transport=ib", "--topology=star:hosts=1"}),
              "");
    EXPECT_NE(parseBench("load_sweep", c, {"--ovs=0.5"}), "");
}

TEST(BenchFlags, ShardCountIsBounded)
{
    Args a;
    EXPECT_EQ(parseBench("shard_scale", a, {"--shards=8"}), "");
    EXPECT_EQ(a.shard.shards, 8u);
    for (const char *bad : {"--shards=1", "--shards=65", "--shards=100000"})
        EXPECT_NE(parseBench("shard_scale", a, {bad}), "") << bad;
    EXPECT_EQ(parseBench("shard_scale", a, {"--no-speed-gate"}), "");
    EXPECT_TRUE(a.shard.noSpeedGate);
}

TEST(BenchFlags, EveryTableIsWellFormed)
{
    for (const std::string &bench : kBenches) {
        Args a;
        FlagTable t = tableFor(bench, a);
        ASSERT_FALSE(t.flags.empty()) << bench;
        for (std::size_t i = 0; i < t.flags.size(); ++i) {
            const Flag &f = t.flags[i];
            EXPECT_EQ(f.name.rfind("--", 0), 0u) << bench << " " << f.name;
            EXPECT_EQ(f.name.find('='), std::string::npos) << f.name;
            EXPECT_TRUE(f.set) << bench << " " << f.name;
            EXPECT_EQ(f.takes == Takes::OptionalValue, !f.bare.empty())
                << bench << " " << f.name;
            for (std::size_t j = 0; j < i; ++j)
                EXPECT_NE(t.flags[j].name, f.name) << bench;
        }
        // No arguments at all is always accepted.
        EXPECT_EQ(parse(t, {}, bench.c_str()), "") << bench;
    }
}

// --- mutational test -----------------------------------------------------

/**
 * Every bench command line in scripts/check.sh (shell variables
 * expanded, one path standing in for the temp dir) and in the docs
 * (README.md, docs/OBSERVABILITY.md, docs/FAULTS.md, docs/WORKLOADS.md,
 * docs/MEMORY.md), as argv split on spaces, plus two lines that reach
 * the obs flags no example uses.
 */
const std::vector<std::pair<std::string, std::string>> kCorpus = {
    // scripts/check.sh
    {"chaos_recovery", "--fault-seed=1"},
    {"chaos_recovery", "--fault-seed=3"},
    {"load_sweep", "--clients=2000 --endpoints=8 --rates=20k,60k "
                   "--workload=keys=zipf:n=5k,theta=0.99;get=0.9 "
                   "--warmup=200ms --duration=200ms --seed=1"},
    {"load_sweep", "--clients=1M --endpoints=64 --rates=100k "
                   "--warmup=10ms --duration=20ms"},
    {"engine_speed", "--smoke --json=/tmp/s/BENCH_engine.json"},
    {"obs_overhead", "--smoke --json=/tmp/s/BENCH_obs.json"},
    {"load_sweep",
     "--clients=2000 --endpoints=8 --rates=20k,40k "
     "--workload=keys=zipf:n=1k,theta=0.99;get=0.9 --warmup=200ms "
     "--duration=200ms --attr --trace=/tmp/s/trace.json "
     "--metrics-out=/tmp/s/metrics.json --flight-recorder=4096 "
     "--flight-dump=/tmp/s/flight.json"},
    {"stack_bench", "--smoke --json=/tmp/s/BENCH_stack.json"},
    {"fig04_cold_ring", ""},
    {"tab05_memcached_overcommit", ""},
    {"fig07_dynamic_working_set", ""},
    {"chaos_recovery", ""},
    {"stack_bench", "--json=BENCH_stack.json"},
    {"fabric_incast", "--smoke"},
    {"fabric_pfc_storm", "--smoke --json=BENCH_fabric.json"},
    {"fabric_pfc_storm", "--json=BENCH_fabric.json"},
    {"reg_shootout", "--smoke --seed=2"},
    {"reg_shootout", "--smoke --seed=1 --mode=copy"},
    {"reg_shootout", "--smoke --seed=1 --mode=pin"},
    {"reg_shootout", "--smoke --seed=1 --mode=npf"},
    {"reg_shootout", "--seed=1 --mode=np-rdma --alloc-gate"},
    {"shard_scale", "--clients=1M --rate=60k --warmup=5ms --duration=20ms "
                    "--no-speed-gate --json=/tmp/s/BENCH_shard_tsan.json"},
    {"shard_scale", "--json=BENCH_shard.json"},
    // README.md
    {"load_sweep", ""},
    {"load_sweep", "--transport=ib --rates=100k,300k"},
    {"load_sweep", "--rates=220k --timeout=20ms --retries=3 "
                   "--fault-plan=link:drop:rate=0.001"},
    // docs/OBSERVABILITY.md
    {"fig04_cold_ring",
     "--trace=npf.json --metrics-out=m.json --sample-us=1000"},
    {"load_sweep", "--transport=eth --rates=30k --attr --clients=2000 "
                   "--endpoints=4 --warmup=200ms --duration=300ms"},
    // docs/FAULTS.md
    {"chaos_recovery",
     "--fault-plan=link:drop:rate=0.004;npf:force:rate=0.001 "
     "--fault-seed=7"},
    // docs/WORKLOADS.md
    {"load_sweep",
     "--transport=ib --clients=100k --endpoints=64 --rates=100k,150k "
     "--workload=arrival=poisson:rate=120k;keys=zipf:n=1m,theta=0.99;"
     "get=0.95 --seed=1 --timeout=20ms --retries=3 --slo=1ms "
     "--warmup=1s --duration=500ms "
     "--topology=leafspine:hosts=16,leaves=4,spines=2 --ovs=1,2,4"},
    // docs/MEMORY.md
    {"stack_bench", "--smoke"},
    // the rest of the obs flags
    {"abl_read_rnr", "--trace --flight-recorder --flight-dump-on-slo "
                     "--profile-eq"},
    {"tab06_beff", "--trace=trace.json --metrics-out=m.json"},
};

std::vector<std::string>
split(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    for (std::string w; in >> w;)
        out.push_back(w);
    return out;
}

/** One random edit of @p args: truncate, duplicate or splice
 *  characters, drop or double '=', cross values between flags,
 *  repeat or drop a whole flag. */
void
mutate(std::vector<std::string> &args, std::mt19937_64 &rng)
{
    auto pick = [&rng](std::size_t n) {
        return std::size_t(rng() % std::max<std::size_t>(n, 1));
    };
    if (args.empty()) {
        args.push_back("--");
        return;
    }
    std::string &s = args[pick(args.size())];
    const std::string &other = args[pick(args.size())];
    static const char kBytes[] = "=,;:-.0123456789kKmMsux \xff";
    switch (rng() % 9) {
      case 0: // truncate
        s.resize(pick(s.size() + 1));
        break;
      case 1: // duplicate a character
        if (!s.empty()) {
            std::size_t i = pick(s.size());
            s.insert(i, 1, s[i]);
        }
        break;
      case 2: { // splice in a piece of another argument
        std::size_t from = pick(other.size() + 1);
        std::string piece = other.substr(from, pick(8) + 1);
        s.insert(pick(s.size() + 1), piece);
        break;
      }
      case 3: // overwrite one character
        if (!s.empty())
            s[pick(s.size())] = kBytes[pick(sizeof kBytes - 1)];
        break;
      case 4: { // drop the '='
        std::size_t eq = s.find('=');
        if (eq != std::string::npos)
            s.erase(eq, 1);
        break;
      }
      case 5: { // double the '='
        std::size_t eq = s.find('=');
        s.insert(eq == std::string::npos ? s.size() : eq, "=");
        break;
      }
      case 6: { // cross values between two flags
        std::string &t = args[pick(args.size())];
        std::size_t es = s.find('='), et = t.find('=');
        if (es != std::string::npos && et != std::string::npos &&
            &s != &t) {
            std::string vs = s.substr(es), vt = t.substr(et);
            s = s.substr(0, es) + vt;
            t = t.substr(0, et) + vs;
        }
        break;
      }
      case 7: // repeat a flag
        args.push_back(other);
        break;
      default: // drop a flag
        args.erase(args.begin() + std::ptrdiff_t(pick(args.size())));
        break;
    }
}

TEST(BenchFlags, CorpusCommandLinesAreAccepted)
{
    for (const auto &[bench, line] : kCorpus) {
        Args a;
        EXPECT_EQ(parseBench(bench, a, split(line)), "")
            << bench << " " << line;
    }
}

TEST(BenchFlags, MutatedCommandLinesParseOrExplain)
{
    std::mt19937_64 rng(0x5eedf1a9);
    std::size_t accepted = 0, rejected = 0;
    for (const auto &[bench, line] : kCorpus) {
        for (int n = 0; n < 400; ++n) {
            std::vector<std::string> args = split(line);
            for (int edits = 1 + int(rng() % 3); edits > 0; --edits)
                mutate(args, rng);
            Args a;
            std::string err = parseBench(bench, a, args);
            if (err.empty()) {
                ++accepted;
                continue;
            }
            ++rejected;
            EXPECT_NE(err.find("; " + bench + " accepts: --"),
                      std::string::npos)
                << err;
        }
    }
    // Both outcomes are exercised.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
}

} // namespace
