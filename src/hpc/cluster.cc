#include "hpc/cluster.hh"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace npf::hpc {

namespace {

constexpr std::size_t kBounceBytes = 8ull << 20; ///< covers 4 MB msgs

} // namespace

Cluster::Rank::Rank(sim::EventQueue &eq, const ClusterConfig &cfg,
                    unsigned r, core::RegMode mode)
    : mm(cfg.memoryPerRank),
      as(mm.createAddressSpace("rank" + std::to_string(r))),
      npfc(eq, core::OdpConfig{}, 0xc0ffee + r), ch(npfc.attach(as)),
      qps(cfg.ranks), pending(cfg.ranks)
{
    // Eager/bounce buffers: pre-pinned, as real middleware does.
    bounceSend = as.allocRegion(kBounceBytes, "bounce-s");
    bounceRecv = as.allocRegion(kBounceBytes, "bounce-r");
    as.pinRange(bounceSend, kBounceBytes);
    as.pinRange(bounceRecv, kBounceBytes);
    npfc.prefault(ch, bounceSend, kBounceBytes, true);
    npfc.prefault(ch, bounceRecv, kBounceBytes, true);
    reg = core::Registration(mode, npfc, ch, cfg.pinDownCacheBytes);
}

Cluster::Cluster(sim::EventQueue &eq, ClusterConfig cfg,
                 core::RegMode mode)
    : eq_(eq), cfg_(std::move(cfg))
{
    if (!cfg_.topology) {
        fabric_ = std::make_unique<net::Fabric>(eq_, cfg_.ranks,
                                                net::kFdrFabric);
    } else if (cfg_.topology->hosts == cfg_.ranks) {
        fabric_ = std::make_unique<net::Fabric>(eq_, *cfg_.topology);
    } else {
        std::fprintf(stderr,
                     "Cluster: topology has %u hosts, cluster has %u "
                     "ranks\n",
                     cfg_.topology->hosts, cfg_.ranks);
        std::abort();
    }
    const bool facet = cfg_.engine != nullptr;
    if (facet) {
        std::vector<std::uint16_t> owner(cfg_.ranks);
        for (unsigned r = 0; r < cfg_.ranks; ++r)
            owner[r] = static_cast<std::uint16_t>(r % cfg_.shards);
        fabric_->shardBind(*cfg_.engine, cfg_.shard, std::move(owner));
    }

    // Another facet hosts an unowned rank; its null entry keeps rank
    // indices global.
    ranks_.resize(cfg_.ranks);
    for (unsigned r = 0; r < cfg_.ranks; ++r)
        if (ownsRank(r))
            ranks_[r] = std::make_unique<Rank>(eq_, cfg_, r, mode);

    // Full QP mesh (facet mode: only the rows of owned ranks).
    for (unsigned a = 0; a < cfg_.ranks; ++a) {
        if (!ranks_[a])
            continue;
        Rank &ra = *ranks_[a];
        for (unsigned b = 0; b < cfg_.ranks; ++b)
            if (a != b)
                ra.qps[b] = std::make_unique<ib::QueuePair>(
                    eq_, *fabric_, a, ra.npfc, ra.ch, cfg_.qp,
                    0xdead + a * 64 + b);
    }
    for (unsigned a = 0; a < cfg_.ranks; ++a) {
        if (!ranks_[a])
            continue;
        for (unsigned b = 0; b < cfg_.ranks; ++b) {
            if (a == b)
                continue;
            ib::QueuePair &q = qp(a, b);
            if (facet)
                // Record plane for EVERY pair — also same-shard ones —
                // so event ordering is independent of the partition
                // (1-shard and N-shard facets replay bit-identically).
                // Demux key = the remote rank: unique per node since
                // the mesh has one QP per ordered rank pair.
                q.connectRemote(b, /*my_kind=*/b, /*peer_kind=*/a);
            else
                q.connect(qp(b, a));
            q.onCompletion([this, a, b](const ib::Completion &c) {
                auto &ops = ranks_[a]->pending[b];
                auto &map = c.isRecv ? ops.recvs : ops.sends;
                auto it = map.find(c.wrId);
                if (it == map.end())
                    return;
                Done done = std::move(it->second);
                map.erase(it);
                if (done)
                    done();
            });
        }
    }
}

Cluster::~Cluster() = default;

mem::VirtAddr
Cluster::allocBuffer(unsigned rank, std::size_t bytes)
{
    assert(ownsRank(rank));
    mem::AddressSpace &as = space(rank);
    mem::VirtAddr buf = as.allocRegion(bytes, "mpi-buf");
    // The application initializes its buffers: CPU-present,
    // IOMMU-cold.
    as.touch(buf, bytes, /*write=*/true);
    return buf;
}

Cluster::Done
Cluster::afterDmaThen(unsigned rank, mem::VirtAddr buf, std::size_t len,
                      Done done)
{
    return [this, rank, buf, len, inner = std::move(done)] {
        sim::Time t = ranks_[rank]->reg.afterDma(buf, len);
        if (t == 0 || !inner) {
            if (inner)
                inner();
        } else {
            eq_.scheduleAfter(t, inner);
        }
    };
}

void
Cluster::isend(unsigned src, unsigned dst, mem::VirtAddr buf,
               std::size_t len, Done done)
{
    assert(src != dst);
    assert(ownsRank(src) && "isend must run on the src rank's facet");
    std::uint64_t id = nextWrId_++;

    // Eager messages, and every message under a copying discipline,
    // go through the pre-pinned bounce buffer; the rest are
    // registered in place (NPF: posted directly, faults in the NIC).
    Rank &rs = *ranks_[src];
    core::Registration &reg = rs.reg;
    const bool staged = len <= kCluster.eagerThreshold || reg.copies();
    if (!staged)
        done = afterDmaThen(src, buf, len, std::move(done));
    rs.pending[dst].sends[id] = std::move(done);

    mem::VirtAddr dma_src = staged ? rs.bounceSend : buf;
    sim::Time pre = staged ? copyCost(len) : reg.beforeDma(buf, len);

    auto post = [this, src, dst, dma_src, len, id] {
        ib::WorkRequest w;
        w.op = ib::Opcode::Send;
        w.local = dma_src;
        w.len = len;
        w.wrId = id;
        qp(src, dst).postSend(w);
    };
    if (pre == 0)
        post();
    else
        eq_.scheduleAfter(pre, post);
}

void
Cluster::irecv(unsigned dst, unsigned src, mem::VirtAddr buf,
               std::size_t len, Done done)
{
    assert(src != dst);
    assert(ownsRank(dst) && "irecv must run on the dst rank's facet");
    std::uint64_t id = nextWrId_++;

    Rank &rd = *ranks_[dst];
    core::Registration &reg = rd.reg;
    const bool staged = len <= kCluster.eagerThreshold || reg.copies();
    mem::VirtAddr dma_dst = staged ? rd.bounceRecv : buf;
    sim::Time pre = staged ? 0 : reg.beforeDma(buf, len);

    if (staged) {
        // Deliver after the CPU copies out of the bounce buffer.
        done = [this, len, inner = std::move(done)] {
            eq_.scheduleAfter(copyCost(len), inner);
        };
    } else {
        done = afterDmaThen(dst, buf, len, std::move(done));
    }
    rd.pending[src].recvs[id] = std::move(done);

    auto post = [this, dst, src, dma_dst, len, id] {
        ib::WorkRequest w;
        w.local = dma_dst;
        w.len = len;
        w.wrId = id;
        qp(dst, src).postRecv(w);
    };
    if (pre == 0)
        post();
    else
        eq_.scheduleAfter(pre, post);
}

std::uint64_t
Cluster::totalRnpfs() const
{
    std::uint64_t n = 0;
    for (const auto &r : ranks_)
        if (r)
            n += r->npfc.stats().npfs;
    return n;
}

std::uint64_t
Cluster::totalRegOps() const
{
    std::uint64_t n = 0;
    for (const auto &r : ranks_)
        if (r)
            n += r->reg.regOps();
    return n;
}

} // namespace npf::hpc
