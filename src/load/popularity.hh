/**
 * @file
 * Key-popularity models: which keys the generated requests touch.
 *
 * Models draw from the *caller's* Rng (the pool's request stream)
 * rather than owning one, so a workload's (key, op) draw sequence is
 * a single reproducible stream — and the closed-loop uniform preset
 * reproduces the legacy memaslap generator draw-for-draw.
 */

#ifndef NPF_LOAD_POPULARITY_HH
#define NPF_LOAD_POPULARITY_HH

#include <cstdint>
#include <memory>

#include "load/spec.hh"
#include "sim/random.hh"
#include "sim/time.hh"

namespace npf::load {

/** Abstract key chooser. */
class KeyModel
{
  public:
    virtual ~KeyModel() = default;

    /** Construct the model described by @p spec. */
    static std::unique_ptr<KeyModel> make(const KeySpec &spec);

    /**
     * Draw the next key. @p now lets time-scheduled models (hot-set
     * rotation) advance; stateless models ignore it.
     */
    virtual std::uint64_t next(sim::Rng &rng, sim::Time now) = 0;

    /** Keyspace size. */
    virtual std::uint64_t keys() const = 0;

    /**
     * Resize the keyspace mid-run (Fig. 7's working-set switch).
     * Models with precomputed state rebuild it.
     */
    virtual void setKeys(std::uint64_t n) = 0;
};

/** Uniform over [0, n). One uniformInt draw per key. */
class UniformKeys final : public KeyModel
{
  public:
    explicit UniformKeys(std::uint64_t n) : n_(n) {}

    std::uint64_t
    next(sim::Rng &rng, sim::Time) override
    {
        return rng.uniformInt(0, n_ - 1);
    }

    std::uint64_t keys() const override { return n_; }
    void setKeys(std::uint64_t n) override { n_ = n; }

  private:
    std::uint64_t n_;
};

/**
 * Zipf(theta) popularity over [0, n), rank 0 hottest — the standard
 * bounded-zipfian inversion (Gray et al., as popularised by YCSB).
 * One uniform01 draw per key. zeta(n) is summed term by term up to
 * n = 2^20 and completed by an Euler–Maclaurin tail beyond, so
 * set-up is bounded at any n.
 */
class ZipfKeys final : public KeyModel
{
  public:
    ZipfKeys(std::uint64_t n, double theta);

    std::uint64_t next(sim::Rng &rng, sim::Time) override;
    std::uint64_t keys() const override { return n_; }
    void setKeys(std::uint64_t n) override;

  private:
    void precompute();

    std::uint64_t n_;
    double theta_;
    double zetan_ = 0, zeta2_ = 0, alpha_ = 0, eta_ = 0;
};

/**
 * Hot-set popularity: a contiguous `hot` fraction of the keyspace
 * receives a `traffic` fraction of requests; the hot window can
 * rotate on a fixed schedule (generalising Fig. 7's working-set
 * switch). Draws: one bernoulli + one uniformInt per key.
 */
class HotSetKeys final : public KeyModel
{
  public:
    HotSetKeys(const KeySpec &spec)
        : n_(spec.keys), hotFraction_(spec.hotFraction),
          hotTraffic_(spec.hotTraffic), shiftEvery_(spec.shiftEvery),
          shiftBy_(spec.shiftBy), nextShift_(spec.shiftEvery)
    {
    }

    std::uint64_t next(sim::Rng &rng, sim::Time now) override;
    std::uint64_t keys() const override { return n_; }
    void setKeys(std::uint64_t n) override { n_ = n; }

    /** Start of the current hot window (for tests/reports). */
    std::uint64_t hotStart() const { return hotStart_; }
    std::uint64_t hotSize() const;

  private:
    std::uint64_t n_;
    double hotFraction_;
    double hotTraffic_;
    sim::Time shiftEvery_;
    std::uint64_t shiftBy_;
    sim::Time nextShift_;
    std::uint64_t hotStart_ = 0;
};

/** Sequential wrap-around scan. No draws. */
class ScanKeys final : public KeyModel
{
  public:
    explicit ScanKeys(std::uint64_t n) : n_(n) {}

    std::uint64_t
    next(sim::Rng &, sim::Time) override
    {
        std::uint64_t k = cursor_;
        cursor_ = (cursor_ + 1) % n_;
        return k;
    }

    std::uint64_t keys() const override { return n_; }

    void
    setKeys(std::uint64_t n) override
    {
        n_ = n;
        cursor_ %= n_;
    }

  private:
    std::uint64_t n_;
    std::uint64_t cursor_ = 0;
};

} // namespace npf::load

#endif // NPF_LOAD_POPULARITY_HH
