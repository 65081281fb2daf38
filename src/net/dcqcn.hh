/**
 * @file
 * DCQCN-style end-host rate limiting (Zhu et al., SIGCOMM'15), the
 * reaction-point half of the congestion loop: switches mark CE above
 * a queue threshold (net/pfc.hh), the notification point echoes
 * marks back as CNPs, and this rate machine cuts the sender's pacing
 * rate multiplicatively on each CNP and recovers it through fast
 * recovery then additive increase.
 *
 * The machine is pure state + arithmetic; the owner (ib::QueuePair)
 * drives it from its own timers and applies sendGap() to its transmit
 * pacing. Once recovered to line rate it reports inactive, so owners
 * can stop their timers — under a run-to-empty event loop a recurring
 * timer that never stops would keep the simulation alive forever.
 *
 * Simplifications versus the paper, documented in docs/NETWORK.md:
 * one rate-increase timer (no byte counter), no hyper increase stage.
 */

#ifndef NPF_NET_DCQCN_HH
#define NPF_NET_DCQCN_HH

#include <algorithm>
#include <cstddef>

#include "sim/time.hh"

namespace npf::net {

/** DCQCN reaction- and notification-point parameters. */
struct DcqcnParams
{
    /** Floor the multiplicative decrease never cuts below. */
    double minRateBps = 100e6;
    /** EWMA gain g for the congestion estimate alpha. */
    double g = 1.0 / 16.0;
    /** Additive-increase step applied to the target rate per round
     *  once fast recovery ends. */
    double aiRateBps = 2.5e9;
    /** Rounds of fast recovery (Rc converges to Rt) before additive
     *  increase starts raising Rt. */
    unsigned fastRecoveryRounds = 3;
    /** Alpha-decay timer period (reaction point). */
    sim::Time alphaTimer = sim::fromMicroseconds(55);
    /** Rate-increase timer period (reaction point). */
    sim::Time rateTimer = sim::fromMicroseconds(300);
    /** Notification point: minimum spacing between CNPs per flow. */
    sim::Time cnpMinInterval = sim::fromMicroseconds(50);
};

/** The DCQCN machine's parameters. */
inline constexpr DcqcnParams kDcqcn{};

/**
 * Reaction-point rate state: current rate Rc, target rate Rt and the
 * congestion estimate alpha.
 */
class DcqcnRate
{
  public:
    void
    init(double lineRateBps)
    {
        line_ = lineRateBps;
        rc_ = rt_ = line_;
        alpha_ = 0.0;
        incRounds_ = 0;
        limiting_ = false;
    }

    /** True while Rc is below line rate and pacing must apply. */
    bool limiting() const { return limiting_; }

    double rateBps() const { return rc_; }
    double alpha() const { return alpha_; }

    /** CNP arrived: cut Rc multiplicatively, restart recovery. */
    void
    onCnp()
    {
        alpha_ = (1.0 - kDcqcn.g) * alpha_ + kDcqcn.g;
        rt_ = rc_;
        rc_ = std::max(kDcqcn.minRateBps, rc_ * (1.0 - alpha_ / 2.0));
        incRounds_ = 0;
        limiting_ = true;
    }

    /** Alpha-decay round. @return true while decay should continue. */
    bool
    decayAlpha()
    {
        alpha_ *= 1.0 - kDcqcn.g;
        return limiting_ && alpha_ > 1e-4;
    }

    /**
     * Rate-increase round: fast recovery halves the gap to Rt; after
     * fastRecoveryRounds, Rt itself climbs additively. @return true
     * while still below line rate (owner keeps its timer armed);
     * false once fully recovered (machine goes inactive).
     */
    bool
    increase()
    {
        if (!limiting_)
            return false;
        ++incRounds_;
        if (incRounds_ > kDcqcn.fastRecoveryRounds)
            rt_ = std::min(line_, rt_ + kDcqcn.aiRateBps);
        rc_ = (rt_ + rc_) / 2.0;
        if (rc_ >= line_ * 0.999) {
            rc_ = rt_ = line_;
            alpha_ = 0.0;
            limiting_ = false;
            return false;
        }
        return true;
    }

    /** Pacing gap for @p bytes at the current rate. */
    sim::Time
    sendGap(std::size_t bytes) const
    {
        return sim::fromSeconds(double(bytes) * 8.0 / rc_);
    }

  private:
    double line_ = 0.0;
    double rc_ = 0.0;    ///< current (enforced) rate
    double rt_ = 0.0;    ///< target rate recovery climbs toward
    double alpha_ = 0.0; ///< congestion estimate
    unsigned incRounds_ = 0;
    bool limiting_ = false;
};

} // namespace npf::net

#endif // NPF_NET_DCQCN_HH
