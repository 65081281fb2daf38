/**
 * @file
 * A tgt-style iSER storage target serving random reads from a 4 GB
 * LUN over simulated RDMA, with the memory trade-off of §6.1: pinned
 * communication buffers steal page-cache memory; NPF-backed buffers
 * give it back. Prints bandwidth and memory for both builds on a
 * 4.5 GB host.
 *
 * Build & run:  ./build/examples/storage_server
 */

#include <cstdio>
#include <deque>
#include <memory>

#include "app/storage.hh"
#include "scenario/ib_world.hh"

using namespace npf;
using namespace npf::app;

namespace {

constexpr std::size_t kGiB = 1ull << 30;
constexpr std::size_t kMiB = 1ull << 20;

void
runOnce(bool pinned)
{
    sim::EventQueue eq;
    // Host A is the 4.5 GB target, host B the 2 GB fio initiator: one
    // RC queue pair each, connected.
    scenario::RcPair rc(eq, {.memA = 4608 * kMiB, .memB = 2 * kGiB});

    StorageConfig cfg;
    StorageTarget tgt(
        eq, rc.asA, cfg,
        core::Registration(pinned ? core::RegMode::Copy : core::RegMode::Npf,
                           rc.npfcA, rc.chA));
    if (!tgt.ok()) {
        std::printf("%-8s failed to start: cannot pin the 1 GB "
                    "communication pool\n",
                    pinned ? "pinned" : "npf");
        return;
    }

    auto queue = std::make_shared<std::deque<IoRequest>>();
    tgt.addSession(rc.qpA, queue);
    FioClient fio(eq, rc.qpB, rc.asB, queue, 512 * 1024, 16,
                  cfg.lunBytes, 42);
    fio.start();

    // Warm the page cache with one sequential scan, then run.
    for (std::uint64_t off = 0; off < cfg.lunBytes; off += 512 * 1024)
        tgt.cache().access(off, 512 * 1024);
    eq.runUntil(eq.now() + sim::kSecond);
    fio.resetCounters();
    sim::Time start = eq.now();
    eq.runUntil(start + 2 * sim::kSecond);
    double gbps = double(fio.bytesRead()) /
                  sim::toSeconds(eq.now() - start) / 1e9;

    std::printf("%-8s bandwidth %.2f GB/s | tgt resident %4zu MB | "
                "page-cache residency %4.0f%% | disk reads %llu\n",
                pinned ? "pinned" : "npf", gbps,
                tgt.residentBytes() / kMiB,
                100.0 * tgt.cache().residentFraction(),
                static_cast<unsigned long long>(tgt.disk().reads()));
}

} // namespace

int
main()
{
    std::printf("iSER storage target, 4 GB LUN, 4.5 GB host, random "
                "512 KB reads (qd 16)\n\n");
    runOnce(false);
    runOnce(true);
    std::printf("\nNPF leaves the unused tail of every 512 KB "
                "communication chunk unbacked,\nso the page cache "
                "gets the memory instead — that is the Fig. 8 "
                "speedup.\n");
    return 0;
}
