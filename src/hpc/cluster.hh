/**
 * @file
 * An MPI-like communication substrate over the simulated InfiniBand
 * fabric: N single-process ranks, a full mesh of RC queue pairs, and
 * one core::Registration per rank — copying through bounce buffers, a
 * pin-down cache, NPF/ODP (the three of §6.2), or NP-RDMA-style
 * on-demand IOVA mapping (docs/REGISTRATION.md).
 */

#ifndef NPF_HPC_CLUSTER_HH
#define NPF_HPC_CLUSTER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/registration.hh"
#include "ib/queue_pair.hh"
#include "mem/memory_manager.hh"
#include "net/fabric.hh"

namespace npf::hpc {

/** Fixed MPI middleware parameters. */
struct ClusterParams
{
    /** CPU reduction bandwidth (allreduce). */
    double reduceBwBytesPerSec = 8e9;
    /** Bounce-buffer memcpy bandwidth (copy mode, both sides). */
    double copyBwBytesPerSec = 12e9;
    /** Messages at or below this ride the eager (always-copied) path
     *  in every mode, as real MPI middleware does. */
    std::size_t eagerThreshold = 8192;
};

/** Every cluster's fixed middleware parameters. */
inline constexpr ClusterParams kCluster{};

/** Cluster parameters (defaults model the paper's IB testbed). */
struct ClusterConfig
{
    unsigned ranks = 8;
    std::size_t memoryPerRank = 4ull << 30;
    net::FabricConfig fabric = net::kFdrFabric;
    /** Optional net::Topology spec (net/topology.hh grammar); empty
     *  keeps the legacy single-switch fabric. The spec's host count
     *  must equal `ranks`. */
    std::string topology;
    ib::QpConfig qp;
    /** Pin-down cache budget per rank; 0 = unlimited. */
    std::size_t pinDownCacheBytes = 0;

    /**
     * Shard-facet mode. When @p engine is set (with shards > 1 for a
     * real partition), this Cluster instance is ONE shard's facet of
     * a logical cluster: it builds hosts/QPs only for the ranks it
     * owns (rank % shards == shard) and every QP rides the fabric's
     * record plane — cross-shard pairs via BoundaryMsgs, same-shard
     * pairs via the identically-keyed local path, so any shard count
     * replays bit-identically. Construct one facet per shard, each
     * inside ShardedEngine::invokeOn with eq = engine->queue(shard);
     * engine lookahead must be <= fabric.recordLookahead(). Requires
     * an empty `topology` (legacy fabric).
     */
    sim::ShardedEngine *engine = nullptr;
    unsigned shard = 0;
    unsigned shards = 1;
};

/**
 * The cluster: owns per-rank hosts (memory manager, address space,
 * NPF controller) and the QP mesh, and provides tagged-free ordered
 * isend/irecv between ranks with registration costs applied.
 */
class Cluster
{
  public:
    using Done = std::function<void()>;

    /** Every owned rank registers its buffers under @p mode. */
    Cluster(sim::EventQueue &eq, ClusterConfig cfg,
            core::RegMode mode = core::RegMode::Npf);
    ~Cluster();

    unsigned ranks() const { return cfg_.ranks; }

    /** True when this instance hosts @p rank (always, outside facet
     *  mode). Facet accessors (space/npfc/alloc/isend/irecv) are only
     *  valid for owned ranks. */
    bool
    ownsRank(unsigned rank) const
    {
        return cfg_.engine == nullptr || cfg_.shards <= 1 ||
               rank % cfg_.shards == cfg_.shard;
    }
    sim::EventQueue &eventQueue() { return eq_; }
    mem::AddressSpace &space(unsigned rank) { return *spaces_[rank]; }
    core::NpfController &npfc(unsigned rank) { return *npfcs_[rank]; }
    core::ChannelId channel(unsigned rank) const { return channels_[rank]; }

    /** Allocate a buffer in @p rank's address space (CPU-touched, so
     *  pages are present; IOMMU-cold unless pinned). */
    mem::VirtAddr allocBuffer(unsigned rank, std::size_t bytes);

    /** Nonblocking ordered send of [buf, buf+len) to @p dst. */
    void isend(unsigned src, unsigned dst, mem::VirtAddr buf,
               std::size_t len, Done done);

    /** Nonblocking ordered receive from @p src into [buf, buf+len). */
    void irecv(unsigned dst, unsigned src, mem::VirtAddr buf,
               std::size_t len, Done done);

    /** CPU cost of reducing @p len bytes (allreduce step). */
    sim::Time
    reduceCost(std::size_t len) const
    {
        return sim::fromSeconds(double(len) / kCluster.reduceBwBytesPerSec);
    }

    /** Aggregate rNPFs seen across all ranks (reporting). */
    std::uint64_t totalRnpfs() const;
    /** Aggregate Registration::regOps() across ranks (reporting). */
    std::uint64_t totalRegOps() const;

  private:
    struct PendingOps
    {
        std::unordered_map<std::uint64_t, Done> sends;
        std::unordered_map<std::uint64_t, Done> recvs;
    };

    ib::QueuePair &qp(unsigned a, unsigned b) { return *qps_[a][b]; }
    sim::Time copyCost(std::size_t len) const
    {
        return sim::fromSeconds(double(len) / kCluster.copyBwBytesPerSec);
    }
    /** @p done, run once @p rank's registration has released
     *  [buf, buf+len) (NP-RDMA unmaps between completion and
     *  delivery). */
    Done afterDmaThen(unsigned rank, mem::VirtAddr buf, std::size_t len,
                      Done done);

    sim::EventQueue &eq_;
    ClusterConfig cfg_;
    std::unique_ptr<net::Fabric> fabric_;
    std::vector<std::unique_ptr<mem::MemoryManager>> hosts_;
    std::vector<mem::AddressSpace *> spaces_;
    std::vector<std::unique_ptr<core::NpfController>> npfcs_;
    std::vector<core::ChannelId> channels_;
    std::vector<core::Registration> regs_; ///< NPF for unowned ranks
    std::vector<std::vector<std::unique_ptr<ib::QueuePair>>> qps_;
    std::vector<std::vector<PendingOps>> pending_; ///< [rank][peer]
    std::vector<mem::VirtAddr> bounceSend_;
    std::vector<mem::VirtAddr> bounceRecv_;
    std::uint64_t nextWrId_ = 1;
};

} // namespace npf::hpc

#endif // NPF_HPC_CLUSTER_HH
