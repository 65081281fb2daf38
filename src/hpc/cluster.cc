#include "hpc/cluster.hh"

#include <cassert>

namespace npf::hpc {

namespace {

constexpr std::size_t kBounceBytes = 8ull << 20; ///< covers 4 MB msgs

} // namespace

Cluster::Cluster(sim::EventQueue &eq, ClusterConfig cfg,
                 core::RegMode mode)
    : eq_(eq), cfg_(cfg)
{
    const bool facet = cfg_.engine != nullptr;
    assert((!facet || cfg_.topology.empty()) &&
           "facet mode needs the legacy fabric (record plane)");
    fabric_ = std::make_unique<net::Fabric>(eq_, cfg_.ranks, cfg_.fabric,
                                            cfg_.topology);
    if (facet) {
        std::vector<std::uint16_t> owner(cfg_.ranks);
        for (unsigned r = 0; r < cfg_.ranks; ++r)
            owner[r] = static_cast<std::uint16_t>(r % cfg_.shards);
        fabric_->shardBind(*cfg_.engine, cfg_.shard, std::move(owner));
    }

    for (unsigned r = 0; r < cfg_.ranks; ++r) {
        if (!ownsRank(r)) {
            // Another facet hosts this rank; keep the slots so rank
            // indices stay global.
            hosts_.push_back(nullptr);
            spaces_.push_back(nullptr);
            npfcs_.push_back(nullptr);
            channels_.push_back(0);
            bounceSend_.push_back(0);
            bounceRecv_.push_back(0);
            regs_.emplace_back();
            continue;
        }
        hosts_.push_back(
            std::make_unique<mem::MemoryManager>(cfg_.memoryPerRank));
        spaces_.push_back(
            &hosts_.back()->createAddressSpace("rank" + std::to_string(r)));
        npfcs_.push_back(std::make_unique<core::NpfController>(
            eq_, core::OdpConfig{}, 0xc0ffee + r));
        channels_.push_back(npfcs_.back()->attach(*spaces_.back()));

        // Eager/bounce buffers: pre-pinned, as real middleware does.
        mem::VirtAddr bs = spaces_[r]->allocRegion(kBounceBytes, "bounce-s");
        mem::VirtAddr br = spaces_[r]->allocRegion(kBounceBytes, "bounce-r");
        spaces_[r]->pinRange(bs, kBounceBytes);
        spaces_[r]->pinRange(br, kBounceBytes);
        npfcs_[r]->prefault(channels_[r], bs, kBounceBytes, true);
        npfcs_[r]->prefault(channels_[r], br, kBounceBytes, true);
        bounceSend_.push_back(bs);
        bounceRecv_.push_back(br);

        regs_.emplace_back(mode, *npfcs_[r], channels_[r],
                           cfg_.pinDownCacheBytes);
    }

    // Full QP mesh (facet mode: only the rows of owned ranks).
    qps_.resize(cfg_.ranks);
    pending_.resize(cfg_.ranks);
    for (unsigned a = 0; a < cfg_.ranks; ++a) {
        qps_[a].resize(cfg_.ranks);
        pending_[a].resize(cfg_.ranks);
        if (!ownsRank(a))
            continue;
        for (unsigned b = 0; b < cfg_.ranks; ++b) {
            if (a == b)
                continue;
            qps_[a][b] = std::make_unique<ib::QueuePair>(
                eq_, *fabric_, a, *npfcs_[a], channels_[a], cfg_.qp,
                0xdead + a * 64 + b);
        }
    }
    for (unsigned a = 0; a < cfg_.ranks; ++a) {
        if (!ownsRank(a))
            continue;
        for (unsigned b = 0; b < cfg_.ranks; ++b) {
            if (a == b)
                continue;
            if (facet)
                // Record plane for EVERY pair — also same-shard ones —
                // so event ordering is independent of the partition
                // (1-shard and N-shard facets replay bit-identically).
                // Demux key = the remote rank: unique per node since
                // the mesh has one QP per ordered rank pair.
                qps_[a][b]->connectRemote(b, /*my_kind=*/b,
                                          /*peer_kind=*/a);
            else
                qps_[a][b]->connect(*qps_[b][a]);
            qps_[a][b]->onCompletion([this, a, b](const ib::Completion &c) {
                auto &ops = pending_[a][b];
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
    mem::VirtAddr buf = spaces_[rank]->allocRegion(bytes, "mpi-buf");
    // The application initializes its buffers: CPU-present,
    // IOMMU-cold.
    spaces_[rank]->touch(buf, bytes, /*write=*/true);
    return buf;
}

Cluster::Done
Cluster::afterDmaThen(unsigned rank, mem::VirtAddr buf, std::size_t len,
                      Done done)
{
    return [this, rank, buf, len, inner = std::move(done)] {
        sim::Time t = regs_[rank].afterDma(buf, len);
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
    core::Registration &reg = regs_[src];
    const bool staged = len <= kCluster.eagerThreshold || reg.copies();
    if (!staged)
        done = afterDmaThen(src, buf, len, std::move(done));
    pending_[src][dst].sends[id] = std::move(done);

    mem::VirtAddr dma_src = staged ? bounceSend_[src] : buf;
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

    core::Registration &reg = regs_[dst];
    const bool staged = len <= kCluster.eagerThreshold || reg.copies();
    mem::VirtAddr dma_dst = staged ? bounceRecv_[dst] : buf;
    sim::Time pre = staged ? 0 : reg.beforeDma(buf, len);

    if (staged) {
        // Deliver after the CPU copies out of the bounce buffer.
        done = [this, len, inner = std::move(done)] {
            eq_.scheduleAfter(copyCost(len), inner);
        };
    } else {
        done = afterDmaThen(dst, buf, len, std::move(done));
    }
    pending_[dst][src].recvs[id] = std::move(done);

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
    for (const auto &c : npfcs_)
        if (c)
            n += c->stats().npfs;
    return n;
}

std::uint64_t
Cluster::totalRegOps() const
{
    std::uint64_t n = 0;
    for (const core::Registration &reg : regs_)
        n += reg.regOps();
    return n;
}

} // namespace npf::hpc
