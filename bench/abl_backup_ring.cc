/**
 * @file
 * Ablation for §5's bm_size parameter: how large must the provider's
 * per-ring pending window be before a bursty faulting stream stops
 * losing packets? bm_size caps both parked packets and in-order
 * packets stored behind an unresolved rNPF, so small windows drop
 * under bursts even though the backup ring itself has room.
 */

#include <map>

#include "bench/common.hh"
#include "bench/report.hh"
#include "eth/backup_ring.hh"

using namespace npf;
using namespace npf::bench;

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
    std::map<std::size_t, double> dropped;
    for (std::size_t bm : {1, 4, 16, 64, 256}) {
        scenario::NicRig rig;
        eth::RxRingConfig cfg;
        cfg.size = 512;
        cfg.bmSize = bm;
        cfg.syntheticRnpfProb = kFaultProb;
        std::uint64_t delivered = 0;
        unsigned ring = rig.addRing(cfg, /*prefault=*/true,
                                    [&](const eth::Frame &) { ++delivered; })
                            .id;
        auto obs = openObsSession(obs_args, rig.eq);
        for (std::uint64_t i = 0; i < kFrames; ++i) {
            rig.eq.schedule(i * 20 * sim::kMicrosecond, [&rig, ring] {
                eth::Frame f;
                f.dstRing = ring;
                f.bytes = 1500; // payload stays empty: never read here
                rig.send(f);
            });
        }
        rig.eq.run();
        const eth::RxRing::Stats &s = rig.nic.ring(ring).stats;
        dropped[bm] = double(s.dropped);
        row("%10zu %12llu %12llu %12llu", bm,
            static_cast<unsigned long long>(delivered),
            static_cast<unsigned long long>(s.dropped),
            static_cast<unsigned long long>(s.toBackup));
    }
    row("%s", "larger windows absorb resolution bursts; the paper's "
              "choice decouples the provider's bound from the ring "
              "size");

    // The claim (EXPERIMENTS.md): small windows drop, fewer the larger
    // they are, and 64 entries or more lose nothing.
    Report rep("abl_backup_ring");
    rep.gate("lossless.bm64", dropped[64], Cmp::Eq, 0);
    rep.gate("lossless.bm256", dropped[256], Cmp::Eq, 0);
    rep.gate("falling.bm4", dropped[4], Cmp::Lt, dropped[1]);
    rep.gate("falling.bm16", dropped[16], Cmp::Lt, dropped[4]);
    rep.gate("lossy.bm16", dropped[16], Cmp::Gt, 0);
    return rep.finish();
}
