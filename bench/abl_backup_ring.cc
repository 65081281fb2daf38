/**
 * @file
 * Ablation for §5's bm_size parameter: how large must the provider's
 * per-ring pending window be before a bursty faulting stream stops
 * losing packets? bm_size caps both parked packets and in-order
 * packets stored behind an unresolved rNPF, so small windows drop
 * under bursts even though the backup ring itself has room.
 */

#include "bench/common.hh"
#include "eth/backup_ring.hh"

using namespace npf;
using namespace npf::bench;

namespace {

struct Rig
{
    sim::EventQueue eq;
    mem::MemoryManager mm{1ull << 30};
    mem::AddressSpace &as{mm.createAddressSpace("iouser")};
    core::NpfController npfc{eq};
    core::ChannelId ch{npfc.attach(as)};
    eth::EthNic nic{eq, npfc};
    eth::EthNic peer{eq, npfc};
    unsigned ring;
    mem::VirtAddr bufs;
    std::uint64_t delivered = 0;

    explicit Rig(std::size_t bm_size, double fault_prob)
        : ring(0)
    {
        peer.connectTo(nic, net::LinkConfig{12e9, 1000, 38});
        nic.connectTo(peer, net::LinkConfig{12e9, 1000, 38});
        eth::RxRingConfig cfg;
        cfg.size = 512;
        cfg.bmSize = bm_size;
        cfg.syntheticRnpfProb = fault_prob;
        ring = nic.createRxRing(ch, cfg, [this](const eth::Frame &) {
            ++delivered;
            eth::RxRing &r = nic.ring(ring);
            if (r.postableSlots() > 0) {
                nic.postRxBuffer(ring,
                                 bufs + (r.tail % r.cfg.size) * 4096,
                                 4096);
            }
        });
        bufs = as.allocRegion(cfg.size * 4096);
        npfc.prefault(ch, bufs, cfg.size * 4096, true);
        for (std::size_t i = 0; i < cfg.size; ++i)
            nic.postRxBuffer(ring, bufs + i * 4096, 4096);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    parseFlagsOrExit(argc, argv, obsFlags(obs_args));
    header("Ablation: backup-ring pending window (bm_size) vs loss "
           "under a bursty faulting stream");
    constexpr std::uint64_t kFrames = 2000;
    constexpr double kFaultProb = 0.05;
    row("packet spacing 20us (bursty vs ~220us resolutions), fault "
        "prob %.2f, %llu frames",
        kFaultProb, static_cast<unsigned long long>(kFrames));
    row("%10s %12s %12s %12s", "bm_size", "delivered", "dropped",
        "parked");
    for (std::size_t bm : {1, 4, 16, 64, 256}) {
        Rig rig(bm, kFaultProb);
        auto obs = openObsSession(obs_args, rig.eq);
        for (std::uint64_t i = 0; i < kFrames; ++i) {
            rig.eq.schedule(i * 20 * sim::kMicrosecond, [&rig] {
                eth::Frame f;
                f.dstRing = rig.ring;
                f.bytes = 1500; // payload stays empty: never read here
                eth::EthNic *dst = &rig.nic;
                rig.peer.txLink()->send(f.bytes,
                                        [dst, f] { dst->receive(f); });
            });
        }
        rig.eq.run();
        const eth::RxRing::Stats &s = rig.nic.ring(rig.ring).stats;
        row("%10zu %12llu %12llu %12llu", bm,
            static_cast<unsigned long long>(rig.delivered),
            static_cast<unsigned long long>(s.dropped),
            static_cast<unsigned long long>(s.toBackup));
    }
    row("%s", "larger windows absorb resolution bursts; the paper's "
              "choice decouples the provider's bound from the ring "
              "size");
    return 0;
}
