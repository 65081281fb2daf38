/**
 * @file
 * bench::Report (bench/report.hh): the one BENCH JSON schema, the
 * gate-line grammar scripts/check.sh's require_gates reads, and the
 * exit-code convention of the gated benches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/report.hh"

using namespace npf::bench;

namespace {

/** A gate line split into its fields; value and bound stay text. */
struct GateLine
{
    std::string name;
    std::string value;
    std::string bound; ///< with its comparison, e.g. "<=0"
    bool ok = false;
    bool soft = false;
};

/**
 * The rules scripts/check.sh's require_gates applies to a line whose
 * first field is "gate": five fields, or six with "soft" last; the
 * fifth "ok" or "FAIL"; the fourth a comparison and then a bound.
 * nullopt for any other line.
 */
std::optional<GateLine>
parseGateLine(const std::string &line)
{
    std::vector<std::string> f;
    std::istringstream is(line);
    for (std::string tok; is >> tok;)
        f.push_back(tok);
    if (f.empty() || f[0] != "gate" ||
        !(f.size() == 5 || (f.size() == 6 && f[5] == "soft")) ||
        (f[4] != "ok" && f[4] != "FAIL"))
        return std::nullopt;
    std::size_t op = 0;
    for (const char *c : kCmp)
        if (f[3].compare(0, std::strlen(c), c) == 0)
            op = std::max(op, std::strlen(c));
    if (op == 0 || f[3].size() == op)
        return std::nullopt;
    return GateLine{f[1], f[2], f[3], f[4] == "ok", f.size() == 6};
}

std::string
json(const Report &r)
{
    std::ostringstream os;
    r.writeJson(os);
    return os.str();
}

/** The keys of the top-level object, in order. */
std::vector<std::string>
topLevelKeys(const std::string &j)
{
    std::vector<std::string> keys;
    for (std::size_t p = j.find("\n  \""); p != std::string::npos;
         p = j.find("\n  \"", p + 1)) {
        std::size_t start = p + 4;
        keys.push_back(j.substr(start, j.find('"', start) - start));
    }
    return keys;
}

const std::vector<std::string> kTopLevel = {"bench",  "params", "tables",
                                            "values", "gates",  "status"};

} // namespace

TEST(BenchReport, EveryReportHasTheSameTopLevelKeys)
{
    Report empty("empty");
    EXPECT_EQ(topLevelKeys(json(empty)), kTopLevel);

    Report full("full");
    full.params.set("smoke", true).set("clients", 64u);
    full.row("scenarios").set("name", "a").set("events", 10u);
    full.row("scenarios").set("name", "b").set("events", 20u);
    full.row("sync").set("shard", 0u);
    full.values.set("slowdown", 2.5).set("verdict", "pass");
    full.gate("allocs", 0, Cmp::Eq, 0);
    const std::string j = json(full);
    EXPECT_EQ(topLevelKeys(j), kTopLevel);
    EXPECT_NE(j.find("\"params\": {\"smoke\": true, \"clients\": 64}"),
              std::string::npos);
    EXPECT_NE(j.find("{\"name\": \"a\", \"events\": 10},\n"
                     "      {\"name\": \"b\", \"events\": 20}"),
              std::string::npos);
    EXPECT_NE(j.find("\"values\": {\"slowdown\": 2.5, \"verdict\": \"pass\"}"),
              std::string::npos);
    EXPECT_NE(j.find("{\"gate\": \"allocs\", \"value\": 0, \"op\": \"==\", "
                     "\"bound\": 0, \"soft\": false, \"ok\": true}"),
              std::string::npos);
    EXPECT_NE(j.find("\"status\": \"ok\""), std::string::npos);
}

TEST(BenchReport, EscapesQuotesAndBackslashesInNames)
{
    Report r("we\"ird\\bench");
    r.row("t").set("label", "say \"hi\"\\");
    r.gate("a\"b\\c", 1, Cmp::Le, 2);
    const std::string j = json(r);
    EXPECT_NE(j.find("\"bench\": \"we\\\"ird\\\\bench\""), std::string::npos);
    EXPECT_NE(j.find("\"label\": \"say \\\"hi\\\"\\\\\""), std::string::npos);
    EXPECT_NE(j.find("\"gate\": \"a\\\"b\\\\c\""), std::string::npos);
}

TEST(BenchReport, NonFiniteValuesFailTheirGateAndWriteNull)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Report r("nonfinite");
    // Infinity would satisfy >= and NaN nothing; both must fail.
    EXPECT_FALSE(r.gate("speedup", inf, Cmp::Ge, 3));
    EXPECT_FALSE(r.gate("ratio", nan, Cmp::Le, 1));
    EXPECT_FALSE(r.gate("bounded", 1, Cmp::Lt, inf, Severity::Soft));
    r.row("t").set("events_per_sec", inf).set("mean", -inf);
    r.values.set("slowdown", nan);
    EXPECT_EQ(r.finish(), 1);

    EXPECT_EQ(gateLine("speedup", inf, Cmp::Ge, 3, false, false),
              "gate speedup null >=3 FAIL");
    EXPECT_EQ(gateLine("bounded", 1, Cmp::Lt, -inf, false, true),
              "gate bounded 1 <null FAIL soft");

    std::string j = json(r);
    for (char &c : j)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    EXPECT_EQ(j.find("inf"), std::string::npos) << j;
    EXPECT_EQ(j.find("nan"), std::string::npos) << j;
    EXPECT_NE(j.find("\"events_per_sec\": null, \"mean\": null"),
              std::string::npos);
    EXPECT_NE(j.find("\"value\": null"), std::string::npos);
}

TEST(BenchReport, ExitCodeHardBeatsSoft)
{
    Report ok("ok");
    EXPECT_EQ(ok.finish(), 0);
    EXPECT_TRUE(ok.gate("allocs", 0, Cmp::Eq, 0));
    EXPECT_TRUE(ok.gate("speedup", 4, Cmp::Ge, 3, Severity::Soft));
    EXPECT_EQ(ok.finish(), 0);
    EXPECT_NE(json(ok).find("\"status\": \"ok\""), std::string::npos);

    Report soft("soft");
    soft.gate("allocs", 0, Cmp::Eq, 0);
    soft.gate("speedup", 2, Cmp::Ge, 3, Severity::Soft);
    EXPECT_EQ(soft.finish(), 2);
    EXPECT_NE(json(soft).find("\"status\": \"soft_fail\""),
              std::string::npos);

    // A soft miss on either side of a hard one never hides it.
    Report hard("hard");
    hard.gate("speedup", 2, Cmp::Ge, 3, Severity::Soft);
    hard.gate("allocs", 1, Cmp::Eq, 0);
    hard.gate("overhead", 5, Cmp::Le, 2, Severity::Soft);
    EXPECT_EQ(hard.finish(), 1);
    EXPECT_NE(json(hard).find("\"status\": \"fail\""), std::string::npos);

    // Output that cannot be written fails the run, gates ok or not.
    Report unwritable("unwritable", "/nonexistent-dir/BENCH_x.json");
    unwritable.gate("allocs", 0, Cmp::Eq, 0);
    EXPECT_EQ(unwritable.finish(), 1);
}

TEST(BenchReport, GateLinesRoundTripThroughTheParser)
{
    struct Case
    {
        const char *name;
        double value;
        Cmp cmp;
        double bound;
        Severity severity;
        const char *line;
    };
    const Case cases[] = {
        {"stack_steady_allocs[eth_pin]", 0, Cmp::Eq, 0, Severity::Hard,
         "gate stack_steady_allocs[eth_pin] 0 ==0 ok"},
        {"cold_odp.pause_hops", 3, Cmp::Ge, 2, Severity::Hard,
         "gate cold_odp.pause_hops 3 >=2 ok"},
        {"ecn_dcqcn.pause_tx", 7, Cmp::Lt, 5, Severity::Hard,
         "gate ecn_dcqcn.pause_tx 7 <5 FAIL"},
        {"disabled_overhead_pct", 1.25, Cmp::Le, 2, Severity::Soft,
         "gate disabled_overhead_pct 1.25 <=2 ok soft"},
        {"cold_odp.finish_ns", 8815234, Cmp::Gt, 4210000, Severity::Hard,
         "gate cold_odp.finish_ns 8815234 >4210000 ok"},
        {"speedup_vs_1shard", 1.43, Cmp::Ge, 3, Severity::Soft,
         "gate speedup_vs_1shard 1.43 >=3 FAIL soft"},
    };
    Report r("roundtrip");
    for (const Case &c : cases) {
        bool ok = r.gate(c.name, c.value, c.cmp, c.bound, c.severity);
        bool soft = c.severity == Severity::Soft;
        std::string line = gateLine(c.name, c.value, c.cmp, c.bound, ok, soft);
        EXPECT_EQ(line, c.line);
        auto p = parseGateLine(line);
        ASSERT_TRUE(p.has_value()) << line;
        EXPECT_EQ(p->name, c.name);
        EXPECT_EQ(p->value, formatNumber(c.value));
        EXPECT_EQ(p->bound, kCmp[int(c.cmp)] + formatNumber(c.bound));
        EXPECT_EQ(p->ok, ok);
        EXPECT_EQ(p->soft, soft);
    }
}

TEST(BenchReport, ParserRejectsWhatIsNotAGateLine)
{
    for (const char *line : {
             "",
             "  wrote BENCH_stack.json",
             "gates a 1 <=2 ok",           // not the keyword
             "gate a 1 <=2",               // no verdict
             "gate a 1 <=2 PASS",          // unknown verdict
             "gate a 1 2 ok",              // bound without comparison
             "gate a 1 <= ok",             // comparison without bound
             "gate a 1 =<2 ok",            // no such comparison
             "gate a 1 <=2 FAIL hard",     // only "soft" may follow
             "gate a 1 <=2 ok soft extra", // too many fields
         })
        EXPECT_FALSE(parseGateLine(line).has_value()) << line;
    EXPECT_TRUE(parseGateLine("gate a null >=3 FAIL soft").has_value());
}
