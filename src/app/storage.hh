/**
 * @file
 * The §6.1 storage workload: a tgt-style iSER target serving a 4 GB
 * LUN from a page cache, with per-transaction 512 KB communication
 * chunks that are either statically pinned (the copying baseline) or
 * demand-paged via NPFs; plus a fio-style random-read initiator.
 */

#ifndef NPF_APP_STORAGE_HH
#define NPF_APP_STORAGE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "app/disk.hh"
#include "core/registration.hh"
#include "ib/queue_pair.hh"
#include "load/recorder.hh"
#include "mem/memory_manager.hh"
#include "mem/page_cache.hh"
#include "sim/random.hh"

namespace npf::app {

/** The tgt daemon's fixed parameters. */
struct StorageParams
{
    std::size_t chunkBytes = 512 * 1024; ///< per-transaction buffer
    unsigned chunksPerSession = 25;      ///< tgt's per-connection pool
    sim::Time perIoCpu = sim::fromMicroseconds(15);
    DiskConfig disk;
};

/** Every target's fixed parameters. */
inline constexpr StorageParams kStorage{};

/** Target-side parameters. */
struct StorageConfig
{
    std::size_t lunBytes = 4ull << 30;
};

/** One fio-style initiator's shared request descriptor. */
struct IoRequest
{
    std::uint64_t offset = 0;
    std::size_t len = 0;
    mem::VirtAddr initiatorBuf = 0;
    std::uint64_t id = 0;
};

/**
 * iSER target (tgt). Sessions are added after construction; each
 * pairs a target-side QP with an initiator-side FioClient. Requests
 * travel as small Sends; data returns via RDMA Write followed by a
 * small response Send (RC ordering makes the write land first).
 */
class StorageTarget
{
  public:
    /**
     * @param as the tgt daemon's address space (page cache + chunks).
     * @param reg the tgt channel's discipline. A copying one is the
     *   classic tgt, which pins its whole communication pool; NPF
     *   (the default) leaves the pool demand-paged; a perIo() one
     *   maps each session's request ring up front and brackets every
     *   outbound DMA (data chunk + response header) with
     *   beforeDma()/afterDma() (docs/REGISTRATION.md).
     */
    StorageTarget(sim::EventQueue &eq, mem::AddressSpace &as,
                  StorageConfig cfg, core::Registration reg = {});

    /** False when pinning the pool failed (not enough memory). */
    bool ok() const { return ok_; }

    /**
     * Register one session. @p qp is the target-side queue pair
     * (already connected); @p request_queue is the out-of-band
     * request descriptor channel shared with the initiator.
     */
    void addSession(ib::QueuePair &qp,
                    std::shared_ptr<std::deque<IoRequest>> request_queue);

    std::uint64_t iosServed() const { return ios_; }
    Disk &disk() { return disk_; }
    mem::PageCache &cache() { return *cache_; }

    /** Resident bytes of the tgt process (Fig. 8(b)'s metric). */
    std::size_t residentBytes() const { return as_.residentBytes(); }
    const core::Registration &registration() const { return reg_; }

  private:
    struct Session
    {
        ib::QueuePair *qp;
        std::shared_ptr<std::deque<IoRequest>> requests;
        mem::VirtAddr chunkRegion = 0;
        mem::VirtAddr recvRegion = 0;
        unsigned nextChunk = 0;
        std::uint64_t nextRecvId = 1;
        /// Sends in flight under a perIo() registration.
        core::InflightDma inflight;
    };

    void handleRequest(Session &s);

    sim::EventQueue &eq_;
    mem::AddressSpace &as_;
    core::Registration reg_;
    Disk disk_;
    mem::VirtAddr poolBase_ = 0;
    std::unique_ptr<mem::PageCache> cache_;
    std::vector<std::unique_ptr<Session>> sessions_;
    bool ok_ = true;
    sim::Time busyUntil_ = 0;
    std::uint64_t ios_ = 0;
};

/**
 * fio: random-read initiator over one session. Keeps @p queue_depth
 * requests outstanding; measures completed bytes.
 */
class FioClient
{
  public:
    FioClient(sim::EventQueue &eq, ib::QueuePair &qp,
              mem::AddressSpace &as,
              std::shared_ptr<std::deque<IoRequest>> request_queue,
              std::size_t block_bytes, unsigned queue_depth,
              std::size_t lun_bytes, std::uint64_t seed);

    void start();

    /**
     * Feed per-IO latency into @p rec under class @p cls (responses
     * arrive in submit order: RC ordering + the serialized target).
     */
    void
    recordInto(load::Recorder *rec, load::Recorder::ClassId cls)
    {
        rec_ = rec;
        recClass_ = cls;
    }

    std::uint64_t completed() const { return completed_; }
    std::uint64_t bytesRead() const { return bytesRead_; }

    /** Reset the measurement counters (post-warm-up). */
    void
    resetCounters()
    {
        completed_ = 0;
        bytesRead_ = 0;
    }

  private:
    void submit();

    sim::EventQueue &eq_;
    ib::QueuePair &qp_;
    std::shared_ptr<std::deque<IoRequest>> requests_;
    std::size_t blockBytes_;
    unsigned queueDepth_;
    std::size_t lunBytes_;
    sim::Rng rng_;
    mem::VirtAddr bufRegion_ = 0;
    mem::VirtAddr respRegion_ = 0;
    unsigned nextBuf_ = 0;
    std::uint64_t nextId_ = 1;
    std::uint64_t completed_ = 0;
    std::uint64_t bytesRead_ = 0;
    load::Recorder *rec_ = nullptr;
    load::Recorder::ClassId recClass_ = 0;
    std::deque<sim::Time> submitTimes_; ///< FIFO, matches responses
};

} // namespace npf::app

#endif // NPF_APP_STORAGE_HH
