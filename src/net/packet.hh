/**
 * @file
 * Pooled packet descriptor for the multi-switch fabric. Payloads
 * still travel inside delivery closures (net/link.hh); the fabric
 * wraps each one in a FabricPacket so switch queues can account
 * bytes, stamp ECN and hash flows without looking inside.
 *
 * Descriptors live in a per-thread slab that is never freed while
 * its thread runs (the fabricPendingPool() recipe): queues and
 * in-flight wire closures hold sim::PoolRefs whose teardown order
 * against any one Fabric is unknowable. Copying a ref clones the
 * descriptor — and with it the payload-owning delegate — so a
 * fault-duplicated packet retires independently, and a dropped one
 * releases its slot when the ref dies (docs/MEMORY.md).
 */

#ifndef NPF_NET_PACKET_HH
#define NPF_NET_PACKET_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/thread_owned.hh"

namespace npf::net {

/** One packet in flight across the switched fabric. */
struct FabricPacket
{
    unsigned src = 0;              ///< source host
    unsigned dst = 0;              ///< destination host
    std::uint32_t bytes = 0;       ///< payload length
    std::uint32_t flow = 0;        ///< ECMP flow label
    std::uint8_t priority = 0;     ///< traffic class (net/pfc.hh)
    bool ecn = false;              ///< CE mark accumulated en route
    sim::Time readyAt = 0;         ///< egress-eligible (fwd latency)
    sim::EventQueue::Callback deliver; ///< runs at the destination
};

/** The descriptor slab; never freed while its thread runs, for the
 *  same reason as fabricPendingPool() (see net/fabric.hh). */
inline sim::Pool<FabricPacket> &
fabricPacketPool()
{
    static thread_local auto *pool =
        sim::newThreadOwned<sim::Pool<FabricPacket>>("net::Fabric.packet");
    return *pool;
}

} // namespace npf::net

#endif // NPF_NET_PACKET_HH
