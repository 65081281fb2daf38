#include "load/popularity.hh"

#include <algorithm>
#include <cmath>

namespace npf::load {

std::unique_ptr<KeyModel>
KeyModel::make(const KeySpec &spec)
{
    switch (spec.kind) {
      case KeySpec::Kind::Uniform:
        return std::make_unique<UniformKeys>(spec.keys);
      case KeySpec::Kind::Zipf:
        return std::make_unique<ZipfKeys>(spec.keys, spec.theta);
      case KeySpec::Kind::HotSet:
        return std::make_unique<HotSetKeys>(spec);
      case KeySpec::Kind::Scan:
        return std::make_unique<ScanKeys>(spec.keys);
    }
    return std::make_unique<UniformKeys>(spec.keys);
}

// --- ZipfKeys ---------------------------------------------------------

namespace {

/** Zeta terms summed one by one. Every n up to this keeps the exact
 *  sum (and key stream) it always had; beyond it the rest is a tail
 *  in closed form, so set-up costs the same at any n. */
constexpr std::uint64_t kExactZetaTerms = 1ull << 20;

/**
 * Sum of i^-theta for i in (m, n], by Euler–Maclaurin: the integral,
 * the endpoint correction and the B2 and B4 terms. At m = 2^20 the
 * first omitted term is below 1e-30.
 */
double
zetaTail(std::uint64_t m, std::uint64_t n, double theta)
{
    double a = double(m), b = double(n);
    double s = 1.0 - theta;
    // (b^s - a^s) / s without cancellation as theta nears 1.
    double logRatio = std::log(b / a);
    double integral = std::pow(a, s) * std::expm1(s * logRatio) / s;
    auto f = [theta](double x) { return std::pow(x, -theta); };
    auto f1 = [theta](double x) {
        return -theta * std::pow(x, -theta - 1.0);
    };
    auto f3 = [theta](double x) {
        return -theta * (theta + 1.0) * (theta + 2.0) *
               std::pow(x, -theta - 3.0);
    };
    return integral + (f(b) - f(a)) / 2.0 + (f1(b) - f1(a)) / 12.0 -
           (f3(b) - f3(a)) / 720.0;
}

} // namespace

ZipfKeys::ZipfKeys(std::uint64_t n, double theta) : n_(n), theta_(theta)
{
    precompute();
}

void
ZipfKeys::precompute()
{
    zetan_ = 0;
    std::uint64_t exact = std::min(n_, kExactZetaTerms);
    for (std::uint64_t i = 1; i <= exact; ++i)
        zetan_ += 1.0 / std::pow(double(i), theta_);
    if (n_ > exact)
        zetan_ += zetaTail(exact, n_, theta_);
    zeta2_ = 1.0 + 1.0 / std::pow(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
}

void
ZipfKeys::setKeys(std::uint64_t n)
{
    if (n == n_)
        return;
    n_ = n;
    precompute();
}

std::uint64_t
ZipfKeys::next(sim::Rng &rng, sim::Time)
{
    double u = rng.uniform01();
    double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < zeta2_)
        return 1;
    auto k = static_cast<std::uint64_t>(
        double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return k >= n_ ? n_ - 1 : k;
}

// --- HotSetKeys -------------------------------------------------------

std::uint64_t
HotSetKeys::hotSize() const
{
    auto h = static_cast<std::uint64_t>(double(n_) * hotFraction_ + 0.5);
    if (h == 0)
        h = 1;
    return h > n_ ? n_ : h;
}

std::uint64_t
HotSetKeys::next(sim::Rng &rng, sim::Time now)
{
    if (shiftEvery_ != 0) {
        while (now >= nextShift_) {
            std::uint64_t step = shiftBy_ != 0 ? shiftBy_ : hotSize();
            hotStart_ = (hotStart_ + step) % n_;
            nextShift_ += shiftEvery_;
        }
    }
    std::uint64_t h = hotSize();
    if (rng.bernoulli(hotTraffic_))
        return (hotStart_ + rng.uniformInt(0, h - 1)) % n_;
    std::uint64_t cold = n_ - h;
    if (cold == 0)
        return (hotStart_ + rng.uniformInt(0, h - 1)) % n_;
    return (hotStart_ + h + rng.uniformInt(0, cold - 1)) % n_;
}

} // namespace npf::load
