/**
 * @file
 * Log-bucketed (HDR-style) histogram: the one distribution type for
 * latencies and sizes (load generator SLO reports, the paper's
 * Table 4 NPF phase tails, the metrics registry).
 *
 * Values are bucketed by (binary exponent, sub-bucket) with 256
 * sub-buckets per octave, so the relative quantisation error of any
 * percentile is at most ~0.2%, memory is a few KB regardless of
 * sample count, recording is O(1), and two histograms merge exactly.
 * Exact count/sum/min/max are tracked on the side.
 */

#ifndef NPF_SIM_HISTOGRAM_HH
#define NPF_SIM_HISTOGRAM_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace npf::sim {

class Histogram
{
  public:
    /** Sub-buckets per octave: bounds the relative error at ~0.2%. */
    static constexpr std::int64_t kSubBuckets = 256;

    /** Add one sample (negative values clamp to 0). */
    void record(double v) { recordN(v, 1); }

    /** Add @p n occurrences of @p v. */
    void
    recordN(double v, std::uint64_t n)
    {
        if (n == 0)
            return;
        if (v <= 0) {
            v = 0;
            underflow_ += n; // own counter: never mixes with the
                             // dense bucket window
        } else {
            bump(bucketIndex(v), n);
        }
        count_ += n;
        sum_ += v * double(n);
        if (count_ == n || v < min_)
            min_ = v;
        if (count_ == n || v > max_)
            max_ = v;
    }

    /**
     * Pre-extend the dense bucket window to cover [@p lo, @p hi] so
     * record() of any value in that range stays allocation-free —
     * pair with an alloc-gated measure window. Zero-count: percentile
     * and mean results are unaffected.
     */
    void
    reserveRange(double lo, double hi)
    {
        if (hi < lo)
            return;
        if (lo > 0)
            bump(bucketIndex(lo), 0);
        if (hi > 0)
            bump(bucketIndex(hi), 0);
    }

    /** Merge another histogram's samples. */
    void
    merge(const Histogram &o)
    {
        for (std::size_t i = 0; i < o.counts_.size(); ++i) {
            if (o.counts_[i] != 0)
                bump(o.base_ + std::int64_t(i), o.counts_[i]);
        }
        underflow_ += o.underflow_;
        if (o.count_ != 0) {
            if (count_ == 0 || o.min_ < min_)
                min_ = o.min_;
            if (count_ == 0 || o.max_ > max_)
                max_ = o.max_;
        }
        count_ += o.count_;
        sum_ += o.sum_;
    }

    std::uint64_t count() const { return count_; }
    bool empty() const { return count_ == 0; }
    double sum() const { return sum_; }
    double mean() const { return count_ == 0 ? 0.0 : sum_ / double(count_); }
    double min() const { return count_ == 0 ? 0.0 : min_; }
    double max() const { return count_ == 0 ? 0.0 : max_; }

    /**
     * Percentile by nearest rank over the bucketed distribution.
     * @p p in [0, 100]; p >= 100 returns the exact maximum. The
     * result is a bucket midpoint, clamped into [min, max].
     */
    double
    percentile(double p) const
    {
        if (count_ == 0)
            return 0.0;
        if (p >= 100.0)
            return max_;
        auto rank = static_cast<std::uint64_t>(
            std::ceil(p / 100.0 * double(count_)));
        if (rank == 0)
            rank = 1;
        std::uint64_t seen = underflow_; // zero-valued samples first
        if (seen >= rank)
            return 0.0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= rank) {
                double v = bucketMid(base_ + std::int64_t(i));
                if (v < min_)
                    v = min_;
                if (v > max_)
                    v = max_;
                return v;
            }
        }
        return max_;
    }

    /** Discard all samples. */
    void
    clear()
    {
        counts_.clear();
        base_ = 0;
        underflow_ = 0;
        count_ = 0;
        sum_ = 0;
        min_ = 0;
        max_ = 0;
    }

  private:
    /**
     * Global bucket index of @p v: exponent * sub-buckets + mantissa
     * slice. Values below the smallest normalised double land in one
     * underflow bucket.
     */
    static std::int64_t
    bucketIndex(double v)
    {
        int e = 0;
        double m = std::frexp(v, &e); // m in [0.5, 1)
        auto sub = static_cast<std::int64_t>((m - 0.5) * 2.0 *
                                             double(kSubBuckets));
        if (sub >= kSubBuckets)
            sub = kSubBuckets - 1;
        return std::int64_t(e) * kSubBuckets + sub;
    }

    /** Midpoint of the bucket with global index @p idx. */
    static double
    bucketMid(std::int64_t idx)
    {
        auto e = static_cast<int>(
            idx >= 0 ? idx / kSubBuckets
                     : -((-idx + kSubBuckets - 1) / kSubBuckets));
        std::int64_t sub = idx - std::int64_t(e) * kSubBuckets;
        double lo = 0.5 + double(sub) / (2.0 * double(kSubBuckets));
        double width = 0.5 / double(kSubBuckets);
        return std::ldexp(lo + width / 2.0, e);
    }

    /** Increment the bucket, growing the dense window on demand. */
    void
    bump(std::int64_t idx, std::uint64_t n)
    {
        if (counts_.empty()) {
            base_ = idx;
            counts_.assign(1, 0);
        } else if (idx < base_) {
            counts_.insert(counts_.begin(), std::size_t(base_ - idx), 0);
            base_ = idx;
        } else if (idx >= base_ + std::int64_t(counts_.size())) {
            counts_.resize(std::size_t(idx - base_) + 1, 0);
        }
        counts_[std::size_t(idx - base_)] += n;
    }

    std::vector<std::uint64_t> counts_; ///< dense window [base_, ...)
    std::int64_t base_ = 0;
    std::uint64_t underflow_ = 0; ///< samples at exactly zero
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

} // namespace npf::sim

#endif // NPF_SIM_HISTOGRAM_HH
