/**
 * @file
 * Time series recorder for throughput-over-time figures (Fig. 4(a),
 * Fig. 7). Counts events and reports per-bucket rates.
 */

#ifndef NPF_SIM_SERIES_HH
#define NPF_SIM_SERIES_HH

#include <cstddef>
#include <vector>

#include "sim/time.hh"

namespace npf::sim {

/**
 * Buckets event counts into fixed-width time intervals so a
 * benchmark can print a rate-versus-time series like the paper's
 * startup-throughput figures.
 */
class RateSeries
{
  public:
    /** @param bucket_width width of each bucket in simulated time. */
    explicit RateSeries(Time bucket_width) : width_(bucket_width) {}

    /** Record @p count events occurring at time @p t. */
    void
    record(Time t, double count = 1.0)
    {
        std::size_t idx = static_cast<std::size_t>(t / width_);
        if (buckets_.size() <= idx)
            buckets_.resize(idx + 1, 0.0);
        buckets_[idx] += count;
    }

    /** Number of buckets touched so far. */
    std::size_t buckets() const { return buckets_.size(); }

    /** Bucket start time. */
    Time bucketStart(std::size_t i) const { return Time(i) * width_; }

    /** Events per second over bucket @p i. */
    double
    rate(std::size_t i) const
    {
        if (i >= buckets_.size())
            return 0.0;
        return buckets_[i] / toSeconds(width_);
    }

    /** Raw count in bucket @p i. */
    double
    count(std::size_t i) const
    {
        return i < buckets_.size() ? buckets_[i] : 0.0;
    }

    /** Total events recorded. */
    double
    total() const
    {
        double t = 0.0;
        for (double b : buckets_)
            t += b;
        return t;
    }

  private:
    Time width_;
    std::vector<double> buckets_;
};

} // namespace npf::sim

#endif // NPF_SIM_SERIES_HH
