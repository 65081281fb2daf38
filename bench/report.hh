/**
 * @file
 * The gated benches' one report: a bench records its parameters,
 * result rows, derived values and gates in a bench::Report, which
 * owns the BENCH JSON schema, the gate-line grammar and the exit-code
 * convention (README.md, "Bench reports").
 */

#ifndef NPF_BENCH_REPORT_HH
#define NPF_BENCH_REPORT_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.hh"

namespace npf::bench {

/** @p v as a JSON number, or null: JSON has no inf or nan. */
inline std::string
formatNumber(double v)
{
    std::ostringstream os;
    if (std::isfinite(v))
        obs::jsonNumber(os, v);
    else
        os << "null";
    return os.str();
}

/** @p v as 16 hex digits, the form replay digests are reported in. */
inline std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One JSON object of scalars, in insertion order. */
class Fields
{
  public:
    /** Add a bool, an unsigned count, a measurement or a string. */
    template <typename T>
    Fields &
    set(const std::string &key, const T &v)
    {
        std::ostringstream os;
        obs::jsonString(os << (members_.empty() ? "" : ", "), key);
        os << ": ";
        if constexpr (std::is_same_v<T, bool>)
            os << (v ? "true" : "false");
        else if constexpr (std::is_integral_v<T>)
            os << static_cast<std::uint64_t>(v);
        else if constexpr (std::is_floating_point_v<T>)
            os << formatNumber(v);
        else
            obs::jsonString(os, v);
        members_ += os.str();
        return *this;
    }

    /** The object as one line of JSON. */
    std::string json() const { return "{" + members_ + "}"; }

  private:
    std::string members_;
};

/** How a gate compares its value with its bound, spelt kCmp[cmp]. */
enum class Cmp { Eq, Le, Ge, Lt, Gt };
inline constexpr const char *kCmp[] = {"==", "<=", ">=", "<", ">"};

/** Hard gates check correctness; soft ones are wall-clock targets. */
enum class Severity { Hard, Soft };

/** "gate <name> <value> <op><bound> ok|FAIL [soft]"; @p name is one
 *  token (no whitespace). */
inline std::string
gateLine(const std::string &name, double value, Cmp cmp, double bound,
         bool ok, bool soft)
{
    return "gate " + name + " " + formatNumber(value) + " " +
           kCmp[int(cmp)] + formatNumber(bound) + (ok ? " ok" : " FAIL") +
           (soft ? " soft" : "");
}

class Report
{
  public:
    /** @p json_path empty: gate lines and exit code, no BENCH file. */
    explicit Report(std::string bench, std::string json_path = "")
        : bench_(std::move(bench)), jsonPath_(std::move(json_path))
    {
    }

    Fields params; ///< the run's configuration
    Fields values; ///< derived results that belong to no table row

    /** Append a row to @p table; valid until the next row() call. */
    Fields &row(const std::string &t) { return tables_[t].emplace_back(); }

    /** Record gate @p name and print its line: ok when both numbers
     *  are finite and @p value @p cmp @p bound holds. Returns ok. */
    bool
    gate(const std::string &name, double value, Cmp cmp, double bound,
         Severity severity = Severity::Hard)
    {
        const bool holds[] = {value == bound, value <= bound,
                              value >= bound, value < bound,
                              value > bound};
        const bool ok = std::isfinite(value) && std::isfinite(bound) &&
                        holds[int(cmp)];
        const bool soft = severity == Severity::Soft;
        std::puts(gateLine(name, value, cmp, bound, ok, soft).c_str());
        std::fflush(stdout);
        gates_.push_back(Fields().set("gate", name).set("value", value)
                             .set("op", kCmp[int(cmp)]).set("bound", bound)
                             .set("soft", soft).set("ok", ok));
        if (!ok)
            exitCode_ = soft && exitCode_ != 1 ? 2 : 1;
        return ok;
    }

    void
    writeJson(std::ostream &os) const
    {
        static const char *const kStatus[] = {"ok", "fail", "soft_fail"};
        // One row a line; the bracket on its own line unless empty.
        auto writeRows = [&os](const std::vector<Fields> &rows,
                               const char *indent) {
            const char *sep = "";
            for (const Fields &row : rows)
                os << std::exchange(sep, ",") << indent << "  " << row.json();
            os << (rows.empty() ? "" : indent) << ']';
        };
        obs::jsonString(os << "{\n  \"bench\": ", bench_);
        os << ",\n  \"params\": " << params.json() << ",\n  \"tables\": {";
        const char *sep = "";
        for (const auto &[name, rows] : tables_) {
            obs::jsonString(os << std::exchange(sep, ",") << "\n    ", name);
            os << ": [";
            writeRows(rows, "\n    ");
        }
        os << (tables_.empty() ? "" : "\n  ") << "},\n  \"values\": "
           << values.json() << ",\n  \"gates\": [";
        writeRows(gates_, "\n  ");
        os << ",\n  \"status\": \"" << kStatus[exitCode_] << "\"\n}\n";
    }

    /** Write the BENCH file, if there is a path, and print its basename
     *  (stdout must not depend on the output directory). Returns 1 if a
     *  hard gate failed or the file could not be written, 2 if only
     *  soft gates failed, else 0. */
    int
    finish() const
    {
        if (jsonPath_.empty())
            return exitCode_;
        std::ofstream f(jsonPath_);
        writeJson(f);
        f.close();
        if (!f) {
            std::perror(jsonPath_.c_str());
            return 1;
        }
        std::printf("  wrote %s\n",
                    jsonPath_.substr(jsonPath_.rfind('/') + 1).c_str());
        return exitCode_;
    }

  private:
    std::string bench_;
    std::string jsonPath_;
    std::map<std::string, std::vector<Fields>> tables_; ///< by name
    std::vector<Fields> gates_;
    int exitCode_ = 0; ///< finish()'s, before writing the file
};

} // namespace npf::bench

#endif // NPF_BENCH_REPORT_HH
