/**
 * @file
 * The IOprovider's memory manager: owns physical memory and the swap
 * device, creates address spaces and cgroups, and runs the clock
 * (second-chance) reclaim algorithm that enables overcommitment.
 */

#ifndef NPF_MEM_MEMORY_MANAGER_HH
#define NPF_MEM_MEMORY_MANAGER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/address_space.hh"
#include "mem/backing_store.hh"
#include "mem/physical_memory.hh"
#include "mem/types.hh"
#include "obs/metrics.hh"
#include "sim/ring_deque.hh"
#include "sim/time.hh"

namespace npf::mem {

/** Per-tenant memory limit (models Linux memory cgroups). */
struct Cgroup
{
    std::string name;
    std::size_t limitPages = 0; ///< 0 = unlimited
    std::size_t usedPages = 0;
};

/** Software costs of the fault and reclaim paths. */
struct MemCosts
{
    /**
     * CPU cost to allocate a frame and fix up the PTE. Calibrated so
     * that the batched NPF resolution of a 4 MB message costs what
     * the paper's Fig. 3 reports (~134 ns of software per page);
     * per-fault trap overhead is charged by higher layers.
     */
    sim::Time minorFaultCpu = 100;
    /** CPU cost to unmap a page on the reclaim path. */
    sim::Time evictCpu = 500;
};

/** The fault and reclaim paths' prices. */
inline constexpr MemCosts kMemCosts{};

/** Host memory policy. */
struct MemCostConfig
{
    /** Pinnable-memory ceiling in bytes; 0 = unlimited. Models
     *  RLIMIT_MEMLOCK-style policies (§3, "No IOuser Pinning"). */
    std::size_t maxPinnableBytes = 0;
};

/** Result of a single-page fault-in. */
struct FaultResult
{
    sim::Time cost = 0;
    bool ok = true;
    bool major = false;
};

/**
 * Host memory manager (the IOprovider side of Table 2).
 *
 * All page allocation flows through faultIn(). When memory (or a
 * cgroup budget) is exhausted, the clock hand evicts unpinned pages:
 * MMU notifiers first invalidate any device mappings, dirty pages go
 * to swap, file-backed clean pages are dropped. Pinned pages are
 * never reclaimed, which is exactly why static pinning defeats
 * overcommitment (Table 3).
 */
class MemoryManager
{
  public:
    struct Stats
    {
        std::uint64_t minorFaults = 0;
        std::uint64_t majorFaults = 0;
        std::uint64_t evictions = 0;
        std::uint64_t swapOuts = 0;
        std::uint64_t swapIns = 0;
        std::uint64_t oomFailures = 0;
    };

    MemoryManager(std::size_t total_bytes, MemCostConfig cost = {},
                  BackingStoreConfig swap = {});
    ~MemoryManager();

    MemoryManager(const MemoryManager &) = delete;
    MemoryManager &operator=(const MemoryManager &) = delete;

    /** Create a cgroup with @p limit_bytes (0 = unlimited). Aborts
     *  when @p name exists. */
    Cgroup &createCgroup(const std::string &name, std::size_t limit_bytes);

    /** True if a cgroup with this name exists. */
    bool
    hasCgroup(const std::string &name) const
    {
        return cgroups_.count(name) > 0;
    }

    /** Create an address space, optionally inside a cgroup. Aborts
     *  when @p cgroup names none. */
    AddressSpace &createAddressSpace(const std::string &name,
                                     const std::string &cgroup = {});

    /**
     * Fault page @p vpn of @p as in (the slow path of both CPU page
     * faults and NPFs). Runs reclaim when memory is tight.
     */
    FaultResult faultIn(AddressSpace &as, Vpn vpn, bool write);

    /**
     * Evict @p pages pages (global pressure), e.g. to simulate an
     * external memory consumer. @return latency spent.
     */
    sim::Time reclaimPages(std::size_t pages);

    /** Account a pin of @p pages; false if over the pinnable limit. */
    bool chargePin(std::size_t pages);
    void unchargePin(std::size_t pages);

    PhysicalMemory &physical() { return phys_; }
    BackingStore &swap() { return swap_; }
    const Stats &stats() const { return stats_; }
    std::size_t pinnedPages() const { return pinnedPages_; }

  private:
    friend class AddressSpace;

    /** Release one resident page of @p as (region teardown). */
    void dropPage(AddressSpace &as, Vpn vpn, Pte &pte);

    /**
     * Evict one page, preferring frames charged to @p target (nullptr
     * = any). @return latency, or nullopt if nothing is evictable.
     */
    std::optional<sim::Time> evictOne(Cgroup *target);

    PhysicalMemory phys_;
    BackingStore swap_;
    MemCostConfig cost_;
    Stats stats_;
    sim::RingDeque<Pfn> clock_; ///< grow-only: reclaim never allocates
    std::unordered_map<std::string, std::unique_ptr<Cgroup>> cgroups_;
    /// indexed by AddressSpace::id(); never shrinks, so Frame::owner
    /// stays valid
    std::vector<std::unique_ptr<AddressSpace>> spaces_;
    std::size_t pinnedPages_ = 0;
    std::size_t reserveFrames_ = 0; ///< reclaim low-watermark (frames)
    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::mem

#endif // NPF_MEM_MEMORY_MANAGER_HH
