/**
 * @file
 * Swap device model. Evicted dirty pages are written here; major
 * faults read them back with a configurable seek + transfer latency.
 */

#ifndef NPF_MEM_BACKING_STORE_HH
#define NPF_MEM_BACKING_STORE_HH

#include <cstddef>
#include <cstdint>

#include "mem/types.hh"
#include "sim/time.hh"

namespace npf::mem {

/** Latency parameters for the swap device. */
struct BackingStoreConfig
{
    /**
     * Per-operation positioning cost. The default models a swap
     * partition with clustered I/O (Linux swap readahead/writeback
     * batching), not a raw per-page disk seek.
     */
    sim::Time seek = 100 * sim::kMicrosecond;
    double bandwidthBytesPerSec = 400e6; ///< sequential transfer
};

/**
 * Accounting-only swap device: pages have no content in this
 * simulation, so the store tracks slot usage and computes latencies.
 */
class BackingStore
{
  public:
    explicit BackingStore(BackingStoreConfig cfg = {}) : cfg_(cfg) {}

    /** Latency of reading @p pages contiguous pages (a major fault). */
    sim::Time
    readLatency(std::size_t pages) const
    {
        return cfg_.seek + transfer(pages);
    }

    /** Latency of writing @p pages pages (evicting dirty pages). */
    sim::Time
    writeLatency(std::size_t pages) const
    {
        return cfg_.seek + transfer(pages);
    }

    /** Record that a page went out to swap. */
    std::uint64_t
    storePage()
    {
        ++pagesOut_;
        return nextSlot_++;
    }

    std::uint64_t pagesWritten() const { return pagesOut_; }

  private:
    sim::Time
    transfer(std::size_t pages) const
    {
        double secs = double(pages * kPageSize) / cfg_.bandwidthBytesPerSec;
        return sim::fromSeconds(secs);
    }

    BackingStoreConfig cfg_;
    std::uint64_t nextSlot_ = 1;
    std::uint64_t pagesOut_ = 0;
};

} // namespace npf::mem

#endif // NPF_MEM_BACKING_STORE_HH
