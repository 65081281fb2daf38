/**
 * @file
 * The pooled in-flight unit of net::Fabric: record packets park in
 * one between their hops, topology mode in its switch queues (which
 * account bytes, stamp ECN and hash flows without looking at the
 * payload); legacy closure packets ride in their hop closures. Its
 * header is the wire header; what it carries is either a delivery
 * delegate (topology mode) or a record body (record plane), never
 * both, so the two share storage.
 *
 * Descriptors live in a per-thread slab that is never freed while
 * its thread runs: queues and in-flight wire closures hold
 * sim::PoolRefs whose teardown order against any one Fabric is
 * unknowable. Copying a ref clones the descriptor, delegate or body
 * included, so a fault-duplicated packet retires independently, and a
 * dropped one releases its slot when the ref dies (docs/MEMORY.md).
 */

#ifndef NPF_NET_PACKET_HH
#define NPF_NET_PACKET_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/shard.hh"
#include "sim/thread_owned.hh"

namespace npf::net {

/** What every packet says about itself on the wire. */
struct WireHeader
{
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t kind = 0;  ///< receiver demux key within dst (records)
    std::uint32_t bytes = 0; ///< wire size (serialization/overhead)
};

/** A record's protocol payload, carried by value. */
struct WireBody
{
    static constexpr std::size_t kPayloadBytes =
        sim::BoundaryMsg::kPayloadBytes;

    std::uint32_t payloadLen = 0;
    unsigned char payload[kPayloadBytes] = {};

    template <typename T>
    void
    store(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "only PODs ride the record plane");
        static_assert(sizeof(T) <= kPayloadBytes, "grow kPayloadBytes");
        std::memcpy(payload, &v, sizeof(T));
        payloadLen = sizeof(T);
    }

    template <typename T>
    T
    load() const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= kPayloadBytes);
        T v;
        std::memcpy(&v, payload, sizeof(T));
        return v;
    }
};

/**
 * Serializable wire unit for the record-based delivery plane: what
 * crosses the fabric when the destination may live on another shard.
 * Closures cannot cross threads; a WireRecord is a trivially-copyable
 * POD that carries its protocol payload by value and is dispatched to
 * the handler registered under (dst, kind) — see
 * Fabric::bindRx()/sendRecord().
 */
struct WireRecord : WireHeader, WireBody
{
};

static_assert(std::is_trivially_copyable_v<WireRecord>);

/** One packet in flight across the fabric (see file comment). */
struct FabricPacket : WireHeader
{
    std::uint32_t flow = 0;        ///< ECMP flow label
    std::uint8_t priority = 0;     ///< traffic class (net/pfc.hh)
    bool ecn = false;              ///< CE mark accumulated en route
    bool isRecord = false;         ///< body is live, not deliver
    sim::Time readyAt = 0;         ///< egress-eligible (fwd latency)
    union {
        sim::EventQueue::Callback deliver; ///< runs at the destination
        WireBody body; ///< handed to the (dst, kind) rx handler
    };

    FabricPacket(const WireHeader &h, sim::EventQueue::Callback &&d)
        : WireHeader(h), deliver(std::move(d))
    {
    }

    explicit FabricPacket(const WireRecord &rec)
        : WireHeader(rec), isRecord(true), body(rec)
    {
    }

    /** Clone (PoolRef copy): the copy owns its own delegate or body. */
    FabricPacket(const FabricPacket &o)
        : WireHeader(o), flow(o.flow), priority(o.priority), ecn(o.ecn),
          isRecord(o.isRecord), readyAt(o.readyAt)
    {
        if (isRecord)
            new (&body) WireBody(o.body);
        else
            new (&deliver) sim::EventQueue::Callback(o.deliver);
    }

    FabricPacket &operator=(const FabricPacket &) = delete;

    ~FabricPacket()
    {
        if (!isRecord)
            std::destroy_at(&deliver);
    }

    /** The record a record-plane packet carries. */
    WireRecord
    record() const
    {
        return WireRecord{{*this}, body};
    }
};

// A delegate plus a 32-byte header: 160 B. Three cache lines at most.
static_assert(sizeof(FabricPacket) <= 192, "FabricPacket outgrew its slot");

/** The descriptor slab; never freed while its thread runs (see file
 *  comment and sim/thread_owned.hh). */
inline sim::Pool<FabricPacket> &
fabricPacketPool()
{
    static thread_local auto *pool =
        sim::newThreadOwned<sim::Pool<FabricPacket>>("net::Fabric.packet");
    return *pool;
}

} // namespace npf::net

#endif // NPF_NET_PACKET_HH
