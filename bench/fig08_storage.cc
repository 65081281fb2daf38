/**
 * @file
 * Reproduces Figure 8: the tgt/iSER storage experiment.
 *  (a) Random 512 KB read bandwidth from a 4 GB LUN versus host
 *      memory (4-8 GB), pinned comm buffers vs NPF. Pinned fails to
 *      load below 5 GB; NPF leaves more memory to the page cache and
 *      wins by up to ~1.9x until the whole LUN fits.
 *  (b) tgt resident memory versus initiator sessions at a fixed 6 GB,
 *      for 64 KB and 512 KB blocks; with NPFs the untouched tails of
 *      the 512 KB chunks never get physical memory.
 */

#include <memory>
#include <vector>

#include "app/storage.hh"
#include "bench/common.hh"
#include "net/fabric.hh"

using namespace npf;
using namespace npf::app;
using namespace npf::bench;

namespace {

constexpr std::size_t kGiB = 1ull << 30;
constexpr std::size_t kMiB = 1ull << 20;

struct StorageBed
{
    sim::EventQueue eq;
    net::Fabric fabric;
    std::unique_ptr<mem::MemoryManager> tgtMm, iniMm;
    mem::AddressSpace *tgtAs = nullptr;
    std::unique_ptr<core::NpfController> tgtNpfc, iniNpfc;
    std::unique_ptr<StorageTarget> tgt;
    std::vector<std::unique_ptr<ib::QueuePair>> qps;
    std::vector<std::unique_ptr<FioClient>> fios;

    StorageBed(std::size_t mem_bytes, core::RegMode mode, unsigned sessions,
               std::size_t block_bytes, unsigned qd)
        : fabric(eq, 2, net::kFdrFabric)
    {
        mem::MemCostConfig costs;
        // Admission policy: the provider refuses pinning that would
        // leave the system under its operating minimum (models the
        // paper's "<5 GB fails to load" outcome: at 5 GB the 1 GB
        // pool is exactly admissible, below it is not).
        constexpr std::size_t kSysReserve = 1300 * kMiB;
        costs.maxPinnableBytes = mem_bytes > kSysReserve + 1400 * kMiB
                                     ? mem_bytes - 2700 * kMiB
                                     : 1;
        tgtMm = std::make_unique<mem::MemoryManager>(mem_bytes, costs);
        iniMm = std::make_unique<mem::MemoryManager>(8 * kGiB);
        tgtAs = &tgtMm->createAddressSpace("tgt");
        // Kernel/system memory is off limits to both configurations.
        auto &sys = tgtMm->createAddressSpace("system");
        mem::VirtAddr sysr = sys.allocRegion(kSysReserve);
        sys.touch(sysr, kSysReserve, true);
        sys.pinRange(sysr, kSysReserve);

        tgtNpfc = std::make_unique<core::NpfController>(eq);
        iniNpfc = std::make_unique<core::NpfController>(eq);
        auto tch = tgtNpfc->attach(*tgtAs);
        auto &iniAs = iniMm->createAddressSpace("fio");
        auto ich = iniNpfc->attach(iniAs);

        StorageConfig scfg;
        tgt = std::make_unique<StorageTarget>(
            eq, *tgtAs, scfg, core::Registration(mode, *tgtNpfc, tch));
        if (!tgt->ok())
            return;

        for (unsigned s = 0; s < sessions; ++s) {
            auto qpT = std::make_unique<ib::QueuePair>(eq, fabric, 0,
                                                       *tgtNpfc, tch);
            auto qpI = std::make_unique<ib::QueuePair>(eq, fabric, 1,
                                                       *iniNpfc, ich);
            qpT->connect(*qpI);
            qpI->connect(*qpT);
            auto queue = std::make_shared<std::deque<IoRequest>>();
            tgt->addSession(*qpT, queue);
            fios.push_back(std::make_unique<FioClient>(
                eq, *qpI, iniAs, queue, block_bytes, qd,
                scfg.lunBytes, 7 + s));
            qps.push_back(std::move(qpT));
            qps.push_back(std::move(qpI));
        }
        for (auto &f : fios)
            f->start();
    }

    /** Populate the page cache with one sequential scan (what a few
     *  minutes of the paper's fio run achieve; avoids paying the
     *  coupon-collector warm-up in simulated network traffic). */
    void
    prewarmCache()
    {
        for (std::uint64_t off = 0; off < 4 * kGiB; off += 512 * 1024)
            tgt->cache().access(off, 512 * 1024);
    }

    double
    measureGBps(sim::Time warm, sim::Time measure)
    {
        eq.runUntil(eq.now() + warm);
        for (auto &f : fios)
            f->resetCounters();
        sim::Time start = eq.now();
        eq.runUntil(start + measure);
        std::uint64_t bytes = 0;
        for (auto &f : fios)
            bytes += f->bytesRead();
        return double(bytes) / sim::toSeconds(eq.now() - start) / 1e9;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    ObsArgs obs_args;
    parseFlagsOrExit(argc, argv, obsFlags(obs_args));
    header("Figure 8(a): read bandwidth [GB/s] vs host memory, "
           "512KB random reads of a 4GB LUN");
    row("%10s %10s %10s %8s", "memory[GB]", "npf", "pin", "npf/pin");
    for (std::size_t gb : {4, 5, 6, 7, 8}) {
        double v[2] = {0, 0};
        bool ran[2] = {false, false};
        int i = 0;
        for (core::RegMode mode : {core::RegMode::Npf, core::RegMode::Copy}) {
            StorageBed bed(gb * kGiB, mode, 1, 512 * 1024, 16);
            auto obs = openObsSession(obs_args, bed.eq);
            if (bed.tgt->ok()) {
                ran[i] = true;
                bed.prewarmCache();
                v[i] = bed.measureGBps(sim::kSecond,
                                       2 * sim::kSecond);
            }
            ++i;
        }
        char pin_s[16], ratio_s[16];
        if (ran[1]) {
            std::snprintf(pin_s, 16, "%.2f", v[1]);
            std::snprintf(ratio_s, 16, "%.2fx", v[0] / v[1]);
        } else {
            std::snprintf(pin_s, 16, "%s", "FAIL");
            std::snprintf(ratio_s, 16, "%s", "-");
        }
        row("%10zu %10.2f %10s %8s", gb, v[0], pin_s, ratio_s);
    }
    row("%s", "paper shape: pin fails <5GB; npf wins 1.4-1.9x at 5-6GB; "
              "both converge once the LUN fits in the page cache");

    header("Figure 8(b): tgt resident memory [GB] vs initiator "
           "sessions (6GB host)");
    row("%10s %12s %12s %12s", "sessions", "npf-64KB", "npf-512KB",
        "pin(any)");
    for (unsigned sessions : {1u, 10u, 20u, 40u, 80u}) {
        double r[3];
        int i = 0;
        for (auto [mode, block] :
             {std::pair{core::RegMode::Npf, std::size_t(64 * 1024)},
              std::pair{core::RegMode::Npf, std::size_t(512 * 1024)},
              std::pair{core::RegMode::Copy, std::size_t(512 * 1024)}}) {
            StorageBed bed(6 * kGiB, mode, sessions, block, 4);
            auto obs = openObsSession(obs_args, bed.eq);
            if (!bed.tgt->ok()) {
                r[i++] = -1;
                continue;
            }
            bed.eq.runUntil(bed.eq.now() + 1500 * sim::kMillisecond);
            // Comm-buffer residency = total resident minus the page
            // cache's resident share.
            double cache_pages =
                bed.tgt->cache().residentFraction() *
                double(4 * kGiB / mem::kPageSize);
            double comm_bytes =
                double(bed.tgtAs->residentBytes()) -
                cache_pages * mem::kPageSize;
            r[i++] = comm_bytes / double(kGiB);
        }
        row("%10u %12.3f %12.3f %12.3f", sessions, r[0], r[1], r[2]);
    }
    row("%s", "paper shape: pin holds ~1GB always; npf-512KB grows "
              "toward it with sessions; npf-64KB stays ~8x lower "
              "(untouched chunk tails)");
    return 0;
}
