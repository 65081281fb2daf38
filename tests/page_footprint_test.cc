/**
 * @file
 * Memory-footprint regression test for the per-page state of the
 * memory model: a 64 GiB host with a 512 MiB cgroup touches 512 MiB,
 * then 1 GiB more, so reclaim cycles the clock over the cgroup's
 * frames twice. The resident growth per touched page must stay at or
 * under 24 bytes: an 8-byte Pte for every page ever touched, plus an
 * 8-byte Frame and a 4-byte clock slot for each page the cgroup holds.
 * A 24-byte Pte alone would break the gate.
 *
 * This is its own executable on purpose: getrusage's ru_maxrss is the
 * process-wide peak, so no other test may share the process.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include "mem/memory_manager.hh"

using namespace npf;

namespace {

constexpr std::size_t MiB = std::size_t(1) << 20;

double
peakRssBytes()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) * 1024.0; // ru_maxrss is in KiB
}

} // namespace

TEST(PageFootprint, ResidentGrowthPerTouchedPageStaysSmall)
{
    mem::MemoryManager mm(std::size_t(64) << 30);
    mm.createCgroup("tenant", 512 * MiB);
    mem::AddressSpace &as = mm.createAddressSpace("vm", "tenant");
    mem::VirtAddr first = as.allocRegion(512 * MiB);
    mem::VirtAddr more = as.allocRegion(1024 * MiB);

    double before = peakRssBytes();
    ASSERT_TRUE(as.touch(first, 512 * MiB, true).ok);
    EXPECT_EQ(as.residentBytes(), 512 * MiB);
    ASSERT_TRUE(as.touch(more, 1024 * MiB, true).ok);
    double grown = peakRssBytes() - before;

    const std::size_t touched = (512 + 1024) * MiB / mem::kPageSize;
    EXPECT_EQ(mm.stats().minorFaults, touched);
    EXPECT_EQ(mm.stats().evictions, 1024 * MiB / mem::kPageSize);
    EXPECT_LE(as.residentBytes(), 512 * MiB);

    double perPage = grown / double(touched);
    RecordProperty("bytes_per_touched_page", int(perPage));
    EXPECT_LE(perPage, 24.0)
        << "resident growth " << grown / double(MiB) << " MiB over "
        << touched << " touched pages";
}
