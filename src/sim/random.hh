/**
 * @file
 * Deterministic random number utilities for workload generation and
 * latency jitter. A thin wrapper over std::mt19937_64 so every model
 * draws from an explicitly seeded stream.
 */

#ifndef NPF_SIM_RANDOM_HH
#define NPF_SIM_RANDOM_HH

#include <cstdint>
#include <random>

namespace npf::sim {

/**
 * Derive an independent stream seed from a base seed and a stream
 * index (splitmix64 finalizer). Subsystems that own several Rngs
 * (fault clauses, workload generators) use this so stream k's draws
 * never depend on how many draws stream j consumed.
 */
constexpr std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Seeded random stream.
 *
 * Each stochastic model (workload generator, jitter model) owns its
 * own Rng so interleaving of events never perturbs another model's
 * draw sequence.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : gen_(seed) {}

    /** Uniform double in [0, 1). */
    double
    uniform01()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(gen_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen_);
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform01() < p;
    }

    /** Exponentially distributed value with the given mean. */
    double
    exponential(double mean)
    {
        return std::exponential_distribution<double>(1.0 / mean)(gen_);
    }

    /**
     * Log-normal multiplicative jitter with median 1.0 and the given
     * sigma of the underlying normal. Used by the NPF latency model.
     */
    double
    lognormalJitter(double sigma)
    {
        return std::lognormal_distribution<double>(0.0, sigma)(gen_);
    }

    /** Underlying engine, for std distributions not wrapped here. */
    std::mt19937_64 &engine() { return gen_; }

  private:
    std::mt19937_64 gen_;
};

} // namespace npf::sim

#endif // NPF_SIM_RANDOM_HH
