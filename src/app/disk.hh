/**
 * @file
 * Block-device latency model for the storage experiment (Fig. 8):
 * the tgt LUN lives on a "single high-performance hard drive".
 */

#ifndef NPF_APP_DISK_HH
#define NPF_APP_DISK_HH

#include <cstdint>

#include "sim/time.hh"

namespace npf::app {

/** Disk parameters. The defaults model the paper's "single
 *  high-performance hard drive" as seen through the kernel's
 *  readahead on large sequential-within-block reads. */
struct DiskConfig
{
    sim::Time seek = 100 * sim::kMicrosecond; ///< positioning per op
    double bandwidthBytesPerSec = 2e9;        ///< media + readahead
};

/** Accounting-only block device. */
class Disk
{
  public:
    explicit Disk(DiskConfig cfg = {}) : cfg_(cfg) {}

    /** Latency of one read of @p bytes. */
    sim::Time
    read(std::size_t bytes)
    {
        ++reads_;
        bytesRead_ += bytes;
        double xfer = double(bytes) / cfg_.bandwidthBytesPerSec;
        return cfg_.seek + sim::fromSeconds(xfer);
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t bytesRead() const { return bytesRead_; }

  private:
    DiskConfig cfg_;
    std::uint64_t reads_ = 0;
    std::uint64_t bytesRead_ = 0;
};

} // namespace npf::app

#endif // NPF_APP_DISK_HH
