/**
 * @file
 * The NIC rig the Ethernet tests share: a scenario::NicRig with one
 * receive ring that records the marker (payload_pool.hh) of every
 * frame it delivers, and an injector that stamps frames with them.
 */

#ifndef NPF_TESTS_MARKER_RIG_HH
#define NPF_TESTS_MARKER_RIG_HH

#include <cstdint>
#include <vector>

#include "payload_pool.hh"
#include "scenario/eth_world.hh"

namespace npf::test {

struct MarkerRig : scenario::NicRig
{
    unsigned ring = 0;
    mem::VirtAddr bufs = 0; ///< one page per ring entry
    std::vector<std::uint64_t> delivered;

    explicit MarkerRig(const eth::RxRingConfig &cfg, bool prefault = false)
    {
        Ring r = addRing(cfg, prefault, [this](const eth::Frame &f) {
            delivered.push_back(payloadValue(f));
        });
        ring = r.id;
        bufs = r.bufs;
    }

    /** Put a frame marked @p id on the wire toward the ring. */
    void
    inject(std::uint64_t id, std::size_t bytes = 1000)
    {
        eth::Frame f;
        f.dstRing = ring;
        f.bytes = bytes;
        f.payload = payloadPool().acquire(id);
        send(f);
    }
};

} // namespace npf::test

#endif // NPF_TESTS_MARKER_RIG_HH
