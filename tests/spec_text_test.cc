/**
 * @file
 * Tests for the shared spec lexer (sim/spec_text.hh) and the three
 * grammars read through it: the value kinds and key tables, the
 * inputs the grammars used to accept wrongly (NaN, wrapped integers,
 * misspelled keys, durations past 2^64 ns), every spec the docs,
 * scripts, benches and tests use, and a seeded mutational fuzzer over
 * that corpus.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "load/spec.hh"
#include "net/topology.hh"
#include "sim/spec_text.hh"

using namespace npf;

namespace {

// --- the corpus: every spec literal of docs/WORKLOADS.md, FAULTS.md,
// NETWORK.md, scripts/check.sh, the bench defaults and tests/ ------------

const std::vector<std::string> kWorkloads = {
    "arrival=poisson:rate=120k;keys=zipf:n=1m,theta=0.99;get=0.95",
    "keys=zipf:n=100k,theta=0.99;get=0.9",
    "arrival=poisson:rate=120k;keys=uniform:n=1m;get=0.95;req=128",
    "arrival=onoff:rate=1m,off_rate=100k,on=5ms,off=1ms",
    "arrival=closed:think=200us,think_dist=exp",
    "keys=hotset:n=1m,hot=0.1,traffic=0.9,shift_every=30s",
    "keys=zipf:n=1k,theta=0.99;get=0.9",
    "keys=zipf:n=5k,theta=0.99;get=0.9",
    "keys=zipf:n=10k,theta=0.99;get=0.9",
    "keys=zipf:n=50k,theta=0.99;get=0.9",
    "arrival=closed:think=200us",
    "arrival=onoff:rate=1m,off_rate=100k,on=5ms,off=1ms,dwell=fixed",
    "arrival=poisson:rate=120k;keys=zipf:n=1m,theta=0.95;get=0.95;req=128",
    "keys=hotset:n=10k,hot=0.05,traffic=0.95,shift_every=2ms,shift_by=77",
    "keys=scan:n=42",
    "keys=uniform:n=500",
};

const std::vector<std::string> kFaultPlans = {
    "link:drop:rate=0.01;ib.rx:reorder:rate=0.005,delay=50us;"
    "mem:pressure:every=2ms,count=10,pages=512",
    "link:drop:rate=0.004;link:dup:rate=0.002;"
    "link:reorder:rate=0.002,delay=40us;eth.rx:corrupt:rate=0.002;"
    "eth.rx:stall:rate=0.002,delay=25us;tcp.rx:drop:rate=0.004;"
    "ib.rx:drop:rate=0.01;ib.rx:reorder:rate=0.005,delay=50us;"
    "npf:force:rate=0.001;mem:pressure:every=5ms,count=20,pages=64;"
    "iotlb:evict:every=3ms,count=30,entries=32",
    "link:drop:rate=0.004;npf:force:rate=0.001",
    "link:drop:rate=0.001",
    "link:drop:rate=0.01;ib.rx:reorder:rate=0.005,delay=50us;"
    "eth.rx:corrupt:nth=3;eth.rx:stall:burst=10us@1ms,delay=25us;"
    "tcp.rx:dup:rate=0.5,from=1ms,until=2ms;npf:force:rate=0.02;"
    "mem:pressure:every=2ms,count=10,pages=512;"
    "iotlb:evict:at=1.5ms,entries=64",
    "link:delay:nth=1,delay=1500",
    "link:delay:nth=1,delay=2.5us",
    "mem:pressure:at=1s",
    "eth.rx:stall:nth=1,delay=200us",
    "eth.rx:stall:rate=0.05,delay=50us",
    "iotlb:evict:at=1ms",
    "iotlb:evict:at=2ms,entries=4",
    "link:drop:burst=2us@1s",
    "link:drop:rate=1,until=2us",
    "link:reorder:nth=1,delay=100us",
    "link:delay:nth=1,delay=500us",
    "link:delay:rate=0.05,delay=100us",
    "mem:pressure:every=1ms,count=5,pages=8",
    "mem:pressure:every=1ms,until=3500us",
    "mem:pressure:every=1ms",
    "switch:flap:nth=1,delay=10us",
    "switch:pause:nth=1,delay=20us",
    "switch:stall:nth=1,delay=10us",
    "switch:drop:nth=1",
    "tcp.rx:delay:rate=0.01,delay=200us",
    "link:duplicate:nth=1",
    "link:drop:rate=0.05;link:duplicate:rate=0.05",
};

const std::vector<std::string> kTopologies = {
    "star:hosts=8,bw=8g,prop=500,overhead=0,fwd=100,queue=4m,xoff=96k,"
    "xon=48k",
    "star:hosts=8,bw=8g,prop=500,overhead=0,fwd=100,queue=4m,xoff=96k,"
    "xon=48k,ecn=32k",
    "leafspine:hosts=4,leaves=2,spines=1,bw=8g,queue=16m,xoff=32k,"
    "xon=16k",
    "leafspine:hosts=4,leaves=2,spines=1,bw=8g,prop=500,overhead=0,"
    "fwd=100,queue=16m,xoff=32k,xon=16k",
    "edges:links=h0-s0+h1-s1+s0-s1,bw=10g",
    "edges:links=h0-s0+h1-s1+s0-s1",
    "edges:links=h0-s0+h1-s1+s0-s1,bw=8g,prop=100,overhead=0,fwd=50",
    "leafspine:hosts=4,leaves=2,spines=1",
    "leafspine:hosts=16,leaves=4,spines=2",
    "leafspine:hosts=4,leaves=2,spines=2",
    "leafspine:hosts=4,leaves=2,spines=2,bw=56g",
    "leafspine:hosts=8,leaves=2,spines=2,ovs=2,bw=40g",
    "leafspine:hosts=4,leaves=2,spines=1,bw=8g,prop=100,overhead=0,"
    "fwd=50,xoff=16k,xon=8k",
    "star:hosts=2,bw=100g,prop=1us,overhead=40,fwd=300ns,queue=1m,"
    "ecn=64k,xoff=128k,xon=32k",
    "star:hosts=2,xoff=64k,xon=32k",
    "star:hosts=3,bw=8g,prop=100,overhead=0,fwd=50",
    "star:hosts=3,bw=8g,prop=100,overhead=0,fwd=50,ecn=8k",
    "star:hosts=3,bw=8g,prop=100,overhead=0,fwd=50,ecn=16k",
    "star:hosts=3,bw=8g,prop=100,overhead=0,fwd=50,ecn=16k,queue=64m",
    "star:hosts=3,bw=8g,prop=100,overhead=0,fwd=50,xoff=16k,xon=8k",
    "star:hosts=3,bw=8g,prop=100,overhead=0,fwd=50,queue=16k",
    "star:hosts=2",
    "star:hosts=4",
    "star:hosts=8",
};

bool
in(double v, double lo, double hi)
{
    return std::isfinite(v) && v >= lo && v <= hi;
}

// --- per grammar: parse, and on success check every numeric field
// against the range docs/WORKLOADS.md, FAULTS.md and NETWORK.md give.
// Each returns "" or what is wrong (a field out of range, a rejection
// without a message); *msg gets the parse error, empty on success. ------

std::string
checkWorkload(const std::string &text, std::string *msg)
{
    auto w = load::WorkloadSpec::parse(text, msg);
    if (!w)
        return msg->empty() ? "rejected without a message" : "";
    const load::ArrivalSpec &a = w->arrival;
    const load::KeySpec &k = w->keys;
    if (!in(a.ratePerSec, 0, 1e12) || (a.open() && a.ratePerSec <= 0))
        return "rate";
    if (!in(a.offRatePerSec, 0, 1e12))
        return "off_rate";
    if (a.kind == load::ArrivalSpec::Kind::OnOff &&
        (a.onMean == 0 || a.offMean == 0))
        return "on/off";
    if (k.keys == 0)
        return "n";
    if (!in(k.theta, 0, 1) || k.theta >= 1)
        return "theta";
    if (!in(k.hotFraction, 0, 1) || k.hotFraction <= 0)
        return "hot";
    if (!in(k.hotTraffic, 0, 1))
        return "traffic";
    if (!in(w->getRatio, 0, 1))
        return "get";
    if (w->requestBytes == 0)
        return "req";
    return {};
}

std::string
checkFaultPlan(const std::string &text, std::string *msg)
{
    auto p = fault::FaultPlan::parse(text, msg);
    if (!p)
        return msg->empty() ? "rejected without a message" : "";
    using Trigger = fault::FaultClause::Trigger;
    for (const fault::FaultClause &c : p->clauses) {
        bool timed = c.site == fault::Site::Mem || c.site == fault::Site::Iotlb;
        bool timedTrigger = c.trigger == Trigger::At ||
                            c.trigger == Trigger::Every;
        if (timed != timedTrigger)
            return "trigger";
        if (!in(c.rate, 0, 1))
            return "rate";
        if (c.trigger == Trigger::Burst &&
            (c.width == 0 || c.width > c.period))
            return "burst";
        if (c.trigger == Trigger::Nth && c.nth == 0)
            return "nth";
        if (c.trigger == Trigger::Every && c.period == 0)
            return "every";
        if (c.until <= c.from)
            return "from/until";
    }
    return {};
}

std::string
checkTopology(const std::string &text, std::string *msg)
{
    auto t = net::Topology::parse(text, msg);
    if (!t)
        return msg->empty() ? "rejected without a message" : "";
    if (t->hosts < 1 || t->hosts > (1u << 16) || t->switches < 1)
        return "hosts/switches";
    if (!in(t->defaultLink.bandwidthBitsPerSec, 1, 1e15))
        return "bw";
    for (const net::Topology::Edge &e : t->edges)
        if (!std::isfinite(e.link.bandwidthBitsPerSec) ||
            e.link.bandwidthBitsPerSec <= 0)
            return "edge bw";
    const net::SwitchConfig &sw = t->switchCfg;
    if (sw.pfc.enabled && sw.pfc.xonBytes >= sw.pfc.xoffBytes)
        return "xon/xoff";
    if (!t->validate())
        return "validate";
    return {};
}

struct Grammar
{
    const char *name;
    const std::vector<std::string> &corpus;
    std::function<std::string(const std::string &, std::string *)> check;
};

const std::vector<Grammar> kGrammars = {
    {"workload", kWorkloads, checkWorkload},
    {"fault plan", kFaultPlans, checkFaultPlan},
    {"topology", kTopologies, checkTopology},
};

} // namespace

// --- value kinds ---------------------------------------------------------

TEST(SpecText, CountsAreWholeDecimalMultiples)
{
    std::uint64_t n = 7;
    EXPECT_TRUE(spec::parseCount("42", &n));
    EXPECT_EQ(n, 42u);
    EXPECT_TRUE(spec::parseCount("100k", &n));
    EXPECT_EQ(n, 100000u);
    EXPECT_TRUE(spec::parseCount("1M", &n));
    EXPECT_EQ(n, 1000000u);
    EXPECT_TRUE(spec::parseCount("1.1k", &n));
    EXPECT_EQ(n, 1100u);
    EXPECT_TRUE(spec::parseCount("2e3", &n));
    EXPECT_EQ(n, 2000u);
    EXPECT_TRUE(spec::parseCount("18446744073709551615", &n));
    EXPECT_EQ(n, 18446744073709551615ull);
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1.5", "nan", "inf",
                            "1e30", "18446744073709551616", "18446744073709552k",
                            "4x", "k", "0x10", "1ki"})
        EXPECT_FALSE(spec::parseCount(bad, &n)) << bad;
    EXPECT_EQ(n, 18446744073709551615ull);
}

TEST(SpecText, SizesAreBinary)
{
    std::uint64_t b = 0;
    EXPECT_TRUE(spec::parseSize("512k", &b));
    EXPECT_EQ(b, 512u * 1024);
    EXPECT_TRUE(spec::parseSize("4m", &b));
    EXPECT_EQ(b, 4u << 20);
    EXPECT_TRUE(spec::parseSize("1.5k", &b));
    EXPECT_EQ(b, 1536u);
    EXPECT_TRUE(spec::parseSize("38", &b));
    EXPECT_EQ(b, 38u);
    for (const char *bad : {"1g", "0.5", "-1k", "nan", "1e30", "inf"})
        EXPECT_FALSE(spec::parseSize(bad, &b)) << bad;
}

TEST(SpecText, RatesTakeEitherCase)
{
    double r = 0;
    EXPECT_TRUE(spec::parseRate("40g", &r));
    EXPECT_EQ(r, 40e9);
    EXPECT_TRUE(spec::parseRate("40G", &r));
    EXPECT_EQ(r, 40e9);
    EXPECT_TRUE(spec::parseRate("1.5m", &r));
    EXPECT_EQ(r, 1.5e6);
    EXPECT_TRUE(spec::parseRate("0.5", &r));
    EXPECT_EQ(r, 0.5);
    for (const char *bad : {"nan", "inf", "-inf", "1e308g", "fast", "1ms",
                            "", "k"})
        EXPECT_FALSE(spec::parseRate(bad, &r)) << bad;
}

TEST(SpecText, DurationsRoundAndNeverOverflow)
{
    sim::Time t = 0;
    EXPECT_TRUE(spec::parseDuration("2.5us", &t));
    EXPECT_EQ(t, 2500u);
    EXPECT_TRUE(spec::parseDuration("1.5ms", &t));
    EXPECT_EQ(t, 1500000u);
    EXPECT_TRUE(spec::parseDuration("0.3us", &t));
    EXPECT_EQ(t, 300u);
    EXPECT_TRUE(spec::parseDuration("2.5", &t));
    EXPECT_EQ(t, 3u) << "half a nanosecond rounds up";
    EXPECT_TRUE(spec::parseDuration("18446744073709551615", &t));
    EXPECT_EQ(t, sim::kTimeMax);
    EXPECT_TRUE(spec::parseDuration("18s", &t));
    EXPECT_EQ(t, 18 * sim::kSecond);
    for (const char *bad : {"1e30s", "18446744073709551616", "18446744074s",
                            "2e10s", "-1ms", "nan", "infs", "1 ms", "1m",
                            "1S", "ms", ""})
        EXPECT_FALSE(spec::parseDuration(bad, &t)) << bad;
    EXPECT_EQ(t, 18 * sim::kSecond);
}

TEST(SpecText, ClausesSplitAndTrim)
{
    EXPECT_EQ(spec::trim("  a b \t"), "a b");
    EXPECT_EQ(spec::split(" a ; ;b", ';'),
              (std::vector<std::string_view>{"a", "", "b"}));
    auto [name, rest] = spec::cut(" zipf : n=1,theta=0.5 ", ':');
    EXPECT_EQ(name, "zipf");
    EXPECT_EQ(rest, "n=1,theta=0.5");
    auto [bare, none] = spec::cut("closed", ':');
    EXPECT_EQ(bare, "closed");
    EXPECT_EQ(none, "");
}

TEST(SpecText, KeyTablesRejectUnknownKeysByName)
{
    std::uint64_t n = 0;
    double theta = 0;
    std::vector<spec::Key> keys{{"n", spec::count(&n)},
                                {"theta", spec::number(&theta, 0.0, 1.0)}};
    EXPECT_EQ(spec::applyKeys(" n = 2k , theta=0.5,, n=3k", keys), "");
    EXPECT_EQ(n, 3000u) << "a key given twice takes its last value";
    EXPECT_EQ(theta, 0.5);
    EXPECT_EQ(spec::applyKeys("n=1,thta=0.5", keys),
              "unknown key 'thta' (accepts n, theta)");
    EXPECT_EQ(spec::applyKeys("theta=2", keys),
              "theta=2: expected a number in [0, 1]");
    EXPECT_EQ(spec::applyKeys("n", keys), "expected key=value, got 'n'");
    EXPECT_EQ(theta, 0.5);
}

// --- what the grammars used to accept --------------------------------------

TEST(SpecText, GrammarsRejectWhatTheyUsedToAccept)
{
    const std::vector<std::pair<const Grammar *, const char *>> bad = {
        {&kGrammars[0], "keys=zipf:n=10k,thta=0.5"},
        {&kGrammars[0], "arrival=poisson:rate=10k,rtae=5"},
        {&kGrammars[0], "arrival=closed:thnik=1ms"},
        {&kGrammars[0], "get=nan"},
        {&kGrammars[0], "req=nan"},
        {&kGrammars[0], "keys=uniform:n=5,bogus=1"},
        {&kGrammars[1], "link:drop:rate=nan"},
        {&kGrammars[1], "link:drop:nth=-1"},
        {&kGrammars[1], "mem:pressure:at=1e30s"},
        {&kGrammars[2], "star:hosts=4294967298"},
        {&kGrammars[2], "star:hosts=4,bw=inf"},
        {&kGrammars[2], "leafspine:hosts=8,ovs=inf"},
    };
    for (const auto &[g, text] : bad) {
        std::string msg;
        EXPECT_EQ(g->check(text, &msg), "") << g->name << ": " << text;
        EXPECT_NE(msg, "") << g->name << " accepts '" << text << "'";
    }
}

TEST(SpecText, EverySpecTheRepoUsesParses)
{
    for (const Grammar &g : kGrammars) {
        for (const std::string &text : g.corpus) {
            std::string msg;
            EXPECT_EQ(g.check(text, &msg), "") << g.name << ": " << text;
            EXPECT_EQ(msg, "") << g.name << ": " << text;
        }
    }
}

// --- seeded mutational fuzzer -------------------------------------------------

namespace {

/** Values a mutation plants after an '=': each is out of some range. */
const char *const kHostile[] = {"nan", "inf", "-1", "1e30", "4294967298",
                                "", "0", "-inf", "1e-30", "18446744073709551616"};

/** Offsets where the tokens of @p s start: after each separator. */
std::vector<std::size_t>
tokenStarts(const std::string &s)
{
    std::vector<std::size_t> out{0};
    for (std::size_t i = 0; i < s.size(); ++i)
        if (std::string_view(";:,=@+-").find(s[i]) != std::string_view::npos)
            out.push_back(i + 1);
    return out;
}

std::size_t
tokenEnd(const std::string &s, std::size_t start)
{
    std::size_t e = s.find_first_of(";:,=@+-", start);
    return e == std::string::npos ? s.size() : e;
}

/** One edit of @p s: a byte flip, a token swap, a splice with
 *  @p other, or a hostile value after an '='. */
void
mutate(std::string &s, const std::string &other, std::mt19937_64 &rng)
{
    switch (rng() % 4) {
      case 0: // byte flip
        if (!s.empty())
            s[rng() % s.size()] ^= char(1u << (rng() % 7));
        break;
      case 1: { // token swap
        std::vector<std::size_t> starts = tokenStarts(s);
        std::size_t a = starts[rng() % starts.size()];
        std::size_t b = starts[rng() % starts.size()];
        if (a > b)
            std::swap(a, b);
        std::size_t ae = tokenEnd(s, a), be = tokenEnd(s, b);
        if (a == b || ae > b)
            break;
        s = s.substr(0, a) + s.substr(b, be - b) + s.substr(ae, b - ae) +
            s.substr(a, ae - a) + s.substr(be);
        break;
      }
      case 2: // splice: a prefix of s, a suffix of other
        s = s.substr(0, rng() % (s.size() + 1)) +
            other.substr(rng() % (other.size() + 1));
        break;
      default: { // hostile value
        std::vector<std::size_t> eqs;
        for (std::size_t i = 0; i < s.size(); ++i)
            if (s[i] == '=')
                eqs.push_back(i + 1);
        if (eqs.empty())
            break;
        std::size_t v = eqs[rng() % eqs.size()];
        std::size_t e = s.find_first_of(";,@", v);
        e = e == std::string::npos ? s.size() : e;
        s = s.substr(0, v) + kHostile[rng() % std::size(kHostile)] +
            s.substr(e);
        break;
      }
    }
}

} // namespace

TEST(SpecText, MutatedSpecsParseInRangeOrExplain)
{
    std::mt19937_64 rng(0x5eed5bec);
    for (const Grammar &g : kGrammars) {
        std::size_t accepted = 0, rejected = 0;
        for (int n = 0; n < 4000; ++n) {
            std::string s = g.corpus[rng() % g.corpus.size()];
            for (int edits = 1 + int(rng() % 3); edits > 0; --edits)
                mutate(s, g.corpus[rng() % g.corpus.size()], rng);
            std::string msg;
            std::string out_of_range = g.check(s, &msg);
            EXPECT_EQ(out_of_range, "") << g.name << " '" << s << "'";
            if (msg.empty())
                ++accepted;
            else
                ++rejected;
        }
        // Both outcomes are exercised.
        EXPECT_GT(accepted, 100u) << g.name;
        EXPECT_GT(rejected, 200u) << g.name;
    }
}
