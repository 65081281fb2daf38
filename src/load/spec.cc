#include "load/spec.hh"

#include <vector>

#include "sim/spec_text.hh"

namespace npf::load {

namespace {

/** The largest rate a spec may offer, in requests per second. */
constexpr double kMaxRate = 1e12;

spec::Setter
dwellKind(bool *exp)
{
    return spec::oneOf(exp, {{"exp", true}, {"fixed", false}});
}

std::string
parseArrival(std::string_view text, ArrivalSpec *out)
{
    auto [name, params] = spec::cut(text, ':');
    ArrivalSpec a;
    std::vector<spec::Key> keys;
    if (name == "fixed" || name == "poisson") {
        a.kind = name == "fixed" ? ArrivalSpec::Kind::Fixed
                                 : ArrivalSpec::Kind::Poisson;
        keys = {{"rate", spec::rate(&a.ratePerSec, 0, kMaxRate)}};
    } else if (name == "onoff") {
        a.kind = ArrivalSpec::Kind::OnOff;
        keys = {{"rate", spec::rate(&a.ratePerSec, 0, kMaxRate)},
                {"off_rate", spec::rate(&a.offRatePerSec, 0, kMaxRate)},
                {"on", spec::duration(&a.onMean)},
                {"off", spec::duration(&a.offMean)},
                {"dwell", dwellKind(&a.expDwell)}};
    } else if (name == "closed") {
        a.kind = ArrivalSpec::Kind::Closed;
        keys = {{"think", spec::duration(&a.thinkMean)},
                {"think_dist", dwellKind(&a.expThink)}};
    } else {
        return "unknown arrival process '" + std::string(name) + "'";
    }
    if (std::string err = spec::applyKeys(params, keys); !err.empty())
        return err;
    if (a.open() && a.ratePerSec <= 0)
        return "arrival rate must be positive (rate=R)";
    if (a.kind == ArrivalSpec::Kind::OnOff &&
        (a.onMean == 0 || a.offMean == 0))
        return "on/off dwells must be positive (on=D,off=D)";
    *out = a;
    return {};
}

std::string
parseKeys(std::string_view text, KeySpec *out)
{
    auto [name, params] = spec::cut(text, ':');
    KeySpec k;
    k.keys = 0; // n= is required
    std::vector<spec::Key> keys{
        {"n", spec::count(&k.keys, std::uint64_t(1))}};
    if (name == "uniform") {
        k.kind = KeySpec::Kind::Uniform;
    } else if (name == "zipf") {
        k.kind = KeySpec::Kind::Zipf;
        keys.push_back({"theta", spec::number(&k.theta, 0.0, 1.0)});
    } else if (name == "hotset") {
        k.kind = KeySpec::Kind::HotSet;
        keys.push_back({"hot", spec::number(&k.hotFraction, 0.0, 1.0)});
        keys.push_back({"traffic", spec::number(&k.hotTraffic, 0.0, 1.0)});
        keys.push_back({"shift_every", spec::duration(&k.shiftEvery)});
        keys.push_back({"shift_by", spec::count(&k.shiftBy)});
    } else if (name == "scan") {
        k.kind = KeySpec::Kind::Scan;
    } else {
        return "unknown key model '" + std::string(name) + "'";
    }
    if (std::string err = spec::applyKeys(params, keys); !err.empty())
        return err;
    if (k.keys == 0)
        return "key model needs n=<keys>";
    if (k.theta >= 1.0)
        return "zipf theta must be in [0, 1)";
    if (k.hotFraction <= 0)
        return "hotset hot must be in (0, 1]";
    *out = k;
    return {};
}

} // namespace

std::optional<WorkloadSpec>
WorkloadSpec::parse(const std::string &text, std::string *error)
{
    WorkloadSpec w;
    w.spec = text;
    std::string err = spec::applyKeys(
        text,
        {{"arrival",
          [&w](const std::string &v) { return parseArrival(v, &w.arrival); }},
         {"keys",
          [&w](const std::string &v) { return parseKeys(v, &w.keys); }},
         {"get", spec::number(&w.getRatio, 0.0, 1.0)},
         {"req", spec::count(&w.requestBytes, std::size_t(1))}},
        ';');
    if (!err.empty()) {
        spec::fail(error, err);
        return std::nullopt;
    }
    return w;
}

} // namespace npf::load
