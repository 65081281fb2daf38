/**
 * @file
 * Calibration constants for the NPF engine. Component latencies are
 * fitted to the paper's own measurements: the Figure 3 execution
 * breakdowns and the Table 4 tail latencies on Connect-IB firmware.
 */

#ifndef NPF_CORE_ODP_CONFIG_HH
#define NPF_CORE_ODP_CONFIG_HH

#include <cstddef>

#include "sim/time.hh"

namespace npf::core {

/**
 * The NPF (network page fault) engine's fitted latencies.
 *
 * Figure 3(a) decomposes a minor NPF into four intervals:
 *   (i->ii)   firmware detects the fault and triggers the interrupt
 *   (ii->iii) driver handler queries the OS for physical addresses
 *   (iii->iv) driver updates the on-NIC IOMMU page table
 *   (iv->v)   firmware notices and resumes the transfer
 * The paper measures ~215 us median for a 4 KB message (90% of it
 * firmware) growing to ~352 us for 4 MB (the growth is software,
 * scaling with page count). The values below reproduce both.
 */
struct OdpParams
{
    // --- NPF flow (Fig. 3(a)) -------------------------------------
    /** (i->ii): firmware fault detection + interrupt, hw only. */
    sim::Time fwTriggerInterrupt = sim::fromMicroseconds(110);
    /** (ii->iii): driver handler fixed cost, sw only. */
    sim::Time driverHandlerBase = sim::fromMicroseconds(12);
    /** (ii->iii): per-page OS translate/allocate cost on top of the
     *  mem::MemoryManager fault cost. */
    sim::Time osPerPage = 20;
    /** (iii->iv): IOMMU page-table update, fixed (sw + hw doorbell). */
    sim::Time ptUpdateBase = sim::fromMicroseconds(25);
    /** (iii->iv): per-PTE write cost. */
    sim::Time ptUpdatePerPage = 15;
    /** (iv->v): firmware resume, hw only. */
    sim::Time fwResume = sim::fromMicroseconds(65);

    // --- jitter (Table 4) ------------------------------------------
    /** Log-normal sigma applied to hardware components. */
    double hwJitterSigma = 0.10;
    /** Probability of an extra scheduling/contention spike. */
    double tailSpikeProb = 0.006;
    /** Mean of the exponential spike when it occurs. */
    sim::Time tailSpikeMean = sim::fromMicroseconds(60);

    // --- invalidation flow (Fig. 3(b)) ------------------------------
    /** Driver checks whether the page is mapped in the IOMMU. */
    sim::Time invChecks = sim::fromMicroseconds(4);
    /** IOMMU PT update + hw acknowledge, when the page was mapped. */
    sim::Time invPtUpdateBase = sim::fromMicroseconds(14);
    /** Per-page PT write during a ranged invalidation. */
    sim::Time invPtUpdatePerPage = 40;
    /** Driver internal state updates. */
    sim::Time invSwUpdates = sim::fromMicroseconds(5);

    // --- rNPF handling (§4, §5) -------------------------------------
    /**
     * RNR NACK timer: how long a suspended RC sender waits before
     * retransmitting from the faulting PSN. InfiniBand encodes a
     * discrete set of values; "RNR NACKs are faster than the basic
     * NPF overhead" (§4) — a too-early retry just earns another NACK.
     */
    sim::Time rnrTimer = sim::fromMicroseconds(200);

    /** IOTLB capacity per IOchannel. */
    std::size_t iotlbCapacity = 256;
};

/** The NPF engine's calibration. */
inline constexpr OdpParams kOdp{};

/**
 * The §4 firmware optimizations that tests and ablations vary. The
 * third, firmware bypass of duplicate reports, is always on: NPFs
 * already in flight on the same channel piggyback on the pending
 * resolution instead of paying a fresh firmware round trip.
 */
struct OdpConfig
{
    /** Outstanding page faults serviced concurrently per IOchannel. */
    unsigned maxConcurrentNpfs = 4;
    /**
     * Batched pre-faulting: map every absent page of the faulting
     * work request in one flow. When false, behave like strict
     * ATS/PRI (one page per page-fault event) — the ablation shows
     * the >200 ms cold-4MB cost the paper warns about.
     */
    bool batchedPrefault = true;
};

} // namespace npf::core

#endif // NPF_CORE_ODP_CONFIG_HH
