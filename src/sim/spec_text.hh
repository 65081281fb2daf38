/**
 * @file
 * The one lexer behind every text input of npfsim: the WorkloadSpec,
 * FaultPlan and Topology grammars and the bench flag table read their
 * clauses, numbers, counts, sizes, rates and durations through it.
 * docs/WORKLOADS.md ("Value syntax") describes the rules once:
 *
 *   number    1.5, 40, 2e3: std::from_chars reads all of the text,
 *             the value is finite (no nan/inf), no '+', no spaces
 *   count     number x k/m/g = 1e3/1e6/1e9 (either case), whole
 *   size      number x k/m = 1024/1024^2 bytes (either case), whole
 *   rate      number x k/m/g = 1e3/1e6/1e9 (either case)
 *   duration  number + ns/us/ms/s (bare = ns), rounded to the nearest
 *             ns, below 2^64 ns
 *
 * A clause's `key=value` items are applied through a table of
 * {key, Setter}; an unknown key is an error that names it. A Setter
 * range-checks its value and stores it only when it is good, and no
 * value is converted into a type it does not fit.
 */

#ifndef NPF_SIM_SPEC_TEXT_HH
#define NPF_SIM_SPEC_TEXT_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace npf::spec {

// --- clauses -------------------------------------------------------------

/** @p s without leading and trailing whitespace. */
std::string_view trim(std::string_view s);

/** Every @p sep-separated piece of @p s, trimmed; empty pieces kept. */
std::vector<std::string_view> split(std::string_view s, char sep);

/** @p s cut at its first @p sep, both sides trimmed; the second is
 *  empty when @p s has no @p sep. */
std::pair<std::string_view, std::string_view> cut(std::string_view s,
                                                  char sep);

/** Store @p msg in *@p error (when non-null); returns false. */
bool fail(std::string *error, const std::string &msg);

// --- value kinds: all of the text, or false (out untouched) --------------

bool parseCount(std::string_view s, std::uint64_t *out);
bool parseSize(std::string_view s, std::uint64_t *out);
bool parseRate(std::string_view s, double *out);
bool parseDuration(std::string_view s, sim::Time *out);

// --- setters ---------------------------------------------------------------

/** Stores a value; returns "" or what is wrong with it. */
using Setter = std::function<std::string(const std::string &value)>;

template <typename T>
std::string
expectedIn(const char *what, T lo, T hi)
{
    std::ostringstream os;
    os << "expected " << what << " in [" << lo << ", " << hi << "]";
    return os.str();
}

/** A number in [@p lo, @p hi]: all of the text parses as a T, unsigned
 *  T takes no sign, floating T is finite ("64k" is not a number). */
template <typename T>
Setter
number(T *out, T lo = std::numeric_limits<T>::lowest(),
       T hi = std::numeric_limits<T>::max())
{
    return [=](const std::string &s) -> std::string {
        T v{};
        const char *end = s.data() + s.size();
        auto [p, ec] = std::from_chars(s.data(), end, v);
        if (ec != std::errc() || p != end || !(v >= lo && v <= hi) ||
            !std::isfinite(double(v)))
            return expectedIn(std::is_integral_v<T> ? "an integer"
                                                    : "a number",
                              lo, hi);
        *out = v;
        return {};
    };
}

/** A parseRate value ("100k", "1.5M") in [@p lo, @p hi], stored as T;
 *  an integral T keeps the integer part. */
template <typename T>
Setter
rate(T *out, double lo, double hi)
{
    return [=](const std::string &s) -> std::string {
        double v = 0;
        if (!parseRate(s, &v) || !(v >= lo && v <= hi))
            return expectedIn("a rate like 20k or 1.5M", lo, hi);
        *out = static_cast<T>(v);
        return {};
    };
}

/** A whole value of @p parse (parseCount or parseSize) in
 *  [@p lo, @p hi]; @p what names the kind in the message. */
template <typename T>
Setter
whole(T *out, T lo, T hi, bool (*parse)(std::string_view, std::uint64_t *),
      const char *what)
{
    static_assert(std::is_unsigned_v<T>);
    return [=](const std::string &s) -> std::string {
        std::uint64_t v = 0;
        if (!parse(s, &v) || v < lo || v > hi)
            return expectedIn(what, lo, hi);
        *out = static_cast<T>(v);
        return {};
    };
}

/** A parseCount value ("100k", "1m", "42") in [@p lo, @p hi]. */
template <typename T>
Setter
count(T *out, T lo = 0, T hi = std::numeric_limits<T>::max())
{
    return whole(out, lo, hi, parseCount, "a count like 42 or 100k");
}

/** A parseSize value ("512k" = 512 KiB, "4m", "38") in [@p lo, @p hi]. */
template <typename T>
Setter
size(T *out, T lo = 0, T hi = std::numeric_limits<T>::max())
{
    return whole(out, lo, hi, parseSize, "bytes or a size like 64k, 4m");
}

/** A parseDuration value ("200ms", "2s", "40us"; bare = ns) of at
 *  least @p lo ns. */
Setter duration(sim::Time *out, sim::Time lo = 0);

/** One of the names in @p choices. */
template <typename T>
Setter
oneOf(T *out, std::vector<std::pair<std::string, T>> choices)
{
    return [out, choices](const std::string &s) -> std::string {
        std::string names;
        for (const auto &[name, value] : choices) {
            if (name == s) {
                *out = value;
                return {};
            }
            names += (names.empty() ? "" : "|") + name;
        }
        return "expected one of " + names;
    };
}

// --- key tables ------------------------------------------------------------

/** One `key=value` a clause accepts. */
struct Key
{
    std::string name;
    Setter set;
};

/**
 * Apply the @p sep-separated `key=value` items of @p items through
 * @p keys, in order. Empty items are skipped and a key given twice
 * takes its last value. Returns "" or the first error: an item
 * without '=', an unknown key (the message lists the keys), or
 * "key=value: <what the setter rejects>".
 */
std::string applyKeys(std::string_view items, const std::vector<Key> &keys,
                      char sep = ',');

} // namespace npf::spec

#endif // NPF_SIM_SPEC_TEXT_HH
