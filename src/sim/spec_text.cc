#include "sim/spec_text.hh"

#include <algorithm>
#include <cctype>

namespace npf::spec {

namespace {

struct Unit
{
    std::string_view name;
    std::uint64_t scale;
};

constexpr Unit kDecimal[] = {{"k", 1000},       {"K", 1000},
                             {"m", 1000000},    {"M", 1000000},
                             {"g", 1000000000}, {"G", 1000000000}};
constexpr Unit kBinary[] = {{"k", 1u << 10}, {"K", 1u << 10},
                            {"m", 1u << 20}, {"M", 1u << 20}};
constexpr Unit kTime[] = {{"ns", 1},
                          {"us", sim::kMicrosecond},
                          {"ms", sim::kMillisecond},
                          {"s", sim::kSecond}};

/** 2^64: the first double past every std::uint64_t. */
constexpr double kPastU64 = 18446744073709551616.0;

/** The scale of @p suffix in @p units; a bare number has scale 1. */
template <std::size_t N>
bool
unitScale(std::string_view suffix, const Unit (&units)[N],
          std::uint64_t *scale)
{
    if (suffix.empty()) {
        *scale = 1;
        return true;
    }
    for (const Unit &u : units) {
        if (u.name == suffix) {
            *scale = u.scale;
            return true;
        }
    }
    return false;
}

/** A finite number followed by a unit of @p units, times its scale. */
template <std::size_t N>
bool
scaled(std::string_view s, const Unit (&units)[N], double *out)
{
    double v = 0;
    const char *end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, v);
    std::uint64_t scale = 1;
    if (ec != std::errc() || !std::isfinite(v) ||
        !unitScale(std::string_view(p, end - p), units, &scale))
        return false;
    v *= double(scale);
    if (!std::isfinite(v))
        return false;
    *out = v;
    return true;
}

/**
 * A non-negative integer of @p units below 2^64. An integer mantissa
 * is scaled exactly; a fractional one ("1.5k") must come out whole
 * unless @p round, which rounds half up to the nearest integer.
 */
template <std::size_t N>
bool
wholeScaled(std::string_view s, const Unit (&units)[N], bool round,
            std::uint64_t *out)
{
    std::uint64_t n = 0, scale = 1;
    const char *end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, n);
    if (ec == std::errc() &&
        unitScale(std::string_view(p, end - p), units, &scale)) {
        if (n > std::numeric_limits<std::uint64_t>::max() / scale)
            return false;
        *out = n * scale;
        return true;
    }
    double v = 0;
    if (!scaled(s, units, &v) || !(v >= 0))
        return false;
    double r = round ? std::floor(v + 0.5) : std::round(v);
    if (!round && std::fabs(v - r) > 1e-9 * std::max(1.0, r))
        return false;
    if (!(r < kPastU64))
        return false;
    *out = static_cast<std::uint64_t>(r);
    return true;
}

} // namespace

std::string_view
trim(std::string_view s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string_view>
split(std::string_view s, char sep)
{
    std::vector<std::string_view> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(trim(s.substr(start, i - start)));
            start = i + 1;
        }
    }
    return out;
}

std::pair<std::string_view, std::string_view>
cut(std::string_view s, char sep)
{
    std::size_t at = s.find(sep);
    if (at == std::string_view::npos)
        return {trim(s), {}};
    return {trim(s.substr(0, at)), trim(s.substr(at + 1))};
}

bool
fail(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = msg;
    return false;
}

bool
parseCount(std::string_view s, std::uint64_t *out)
{
    return wholeScaled(s, kDecimal, false, out);
}

bool
parseSize(std::string_view s, std::uint64_t *out)
{
    return wholeScaled(s, kBinary, false, out);
}

bool
parseRate(std::string_view s, double *out)
{
    return scaled(s, kDecimal, out);
}

bool
parseDuration(std::string_view s, sim::Time *out)
{
    return wholeScaled(s, kTime, true, out);
}

Setter
duration(sim::Time *out, sim::Time lo)
{
    return [=](const std::string &s) -> std::string {
        sim::Time v = 0;
        if (!parseDuration(s, &v) || v < lo)
            return expectedIn("ns or a duration like 200ms, 2s, 40us", lo,
                              std::numeric_limits<sim::Time>::max());
        *out = v;
        return {};
    };
}

std::string
applyKeys(std::string_view items, const std::vector<Key> &keys, char sep)
{
    for (std::string_view item : split(items, sep)) {
        if (item.empty())
            continue;
        if (item.find('=') == std::string_view::npos)
            return "expected key=value, got '" + std::string(item) + "'";
        auto [name, value] = cut(item, '=');
        const Key *key = nullptr;
        std::string names;
        for (const Key &k : keys) {
            if (k.name == name)
                key = &k;
            names += (names.empty() ? "" : ", ") + k.name;
        }
        if (key == nullptr)
            return "unknown key '" + std::string(name) + "' (accepts " +
                   names + ")";
        std::string err = key->set(std::string(value));
        if (!err.empty())
            return std::string(item) + ": " + err;
    }
    return {};
}

} // namespace npf::spec
