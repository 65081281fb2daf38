/**
 * @file
 * The one registration discipline a host's NIC channel runs under:
 * copying through pinned memory, a pin-down cache, NPF/ODP, or
 * NP-RDMA-style on-demand mapping. Applications and the HPC
 * middleware hold a core::Registration and ask it what a transfer
 * costs; they never switch on the mode themselves
 * (docs/REGISTRATION.md).
 */

#ifndef NPF_CORE_REGISTRATION_HH
#define NPF_CORE_REGISTRATION_HH

#include <cstdint>
#include <memory>

#include "core/pinning.hh"
#include "sim/ring_deque.hh"

namespace npf::core {

/** The registration disciplines (Fig. 9, Table 6, the what-if). */
enum class RegMode { Copy, PinDownCache, Npf, NpRdma };

/** "copy", "pin", "npf" or "np-rdma". */
const char *regModeName(RegMode m);

/**
 * One (host, channel)'s registration discipline, built from its mode.
 *
 *   copy     the app stages data through pinned memory (copies());
 *            nothing is registered per transfer.
 *   pin      per-transfer PinDownCache lookup; a miss pins and
 *            registers. Regions stay pinned, so afterDma is free.
 *   npf      nothing registered; the NIC faults at DMA time.
 *   np-rdma  per-transfer NpRdmaMapping map before, unmap after.
 *
 * Under pin and np-rdma (perIo()) the NIC must never fault: apps map
 * their control rings up front and bracket every DMA extent.
 */
class Registration
{
  public:
    /** NPF: nothing is registered. */
    Registration() = default;

    /**
     * @p mode on channel @p ch of @p npfc.
     * @param pin_down_bytes the pin-down cache's budget; 0 = unlimited.
     */
    Registration(RegMode mode, NpfController &npfc, ChannelId ch,
                 std::size_t pin_down_bytes = 0);

    /** True where the app must stage data through pinned memory. */
    bool copies() const { return copies_; }

    /** True where beforeDma/afterDma bracket every transfer. */
    bool perIo() const { return cache_ || map_; }

    /** Prepare [addr, addr+len) for a DMA. @return the latency
     *  charged; 0 for copy and NPF. */
    sim::Time beforeDma(mem::VirtAddr addr, std::size_t len);

    /** Release [addr, addr+len) after its DMA. @return the latency
     *  charged; 0 except for NP-RDMA. */
    sim::Time afterDma(mem::VirtAddr addr, std::size_t len);

    /** Registration work done: pin-down cache misses or NP-RDMA maps;
     *  0 for copy and NPF. */
    std::uint64_t regOps() const;

  private:
    bool copies_ = false;
    std::unique_ptr<PinDownCache> cache_;
    std::unique_ptr<NpRdmaMapping> map_;
};

/**
 * One QP's posted Sends in wire order, for a perIo() registration:
 * RC completes Sends in order, so each send completion releases the
 * oldest extent. A RingDeque reaches its high-water mark once and
 * then recycles in place (the allocation gates count on this).
 */
class InflightDma
{
  public:
    /** A Send was posted from [addr, addr+len); len 0 = memory that
     *  stays mapped (pinned scratch), released for free. */
    void
    push(mem::VirtAddr addr, std::size_t len)
    {
        ring_.push_back(Extent{addr, len});
    }

    /** The oldest Send completed: release its extent through @p reg.
     *  @return the latency charged (0 with nothing in flight). */
    sim::Time complete(Registration &reg);

  private:
    struct Extent
    {
        mem::VirtAddr addr = 0;
        std::size_t len = 0;
    };
    sim::RingDeque<Extent> ring_;
};

} // namespace npf::core

#endif // NPF_CORE_REGISTRATION_HH
