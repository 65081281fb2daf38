#include "net/fabric.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "fault/fault.hh"

namespace npf::net {

Fabric::Fabric(sim::EventQueue &eq, unsigned nodes, FabricConfig cfg)
    : eq_(eq), cfg_(cfg)
{
    nodeSeq_.assign(nodes, 0);
    for (unsigned i = 0; i < nodes; ++i) {
        up_.push_back(std::make_unique<Link>(eq_, cfg_.link));
        down_.push_back(std::make_unique<Link>(eq_, cfg_.link));
    }
    initCommon();
}

Fabric::Fabric(sim::EventQueue &eq, const Topology &topo)
    : eq_(eq), topo_(std::make_unique<Topology>(topo))
{
    std::string err;
    if (!topo.validate(&err)) {
        std::fprintf(stderr, "Fabric: %s\n", err.c_str());
        std::abort();
    }
    const Topology &t = *topo_;
    nodeSeq_.assign(t.hosts, 0);

    switches_.reserve(t.switches);
    for (unsigned s = 0; s < t.switches; ++s)
        switches_.push_back(std::make_unique<Switch>(
            eq_, *this, t.hosts + s, t.switchCfg));
    hostUp_.assign(t.hosts, nullptr);
    hostDown_.assign(t.hosts, nullptr);
    hostPauseDepth_.assign(t.hosts, 0);

    // One egress port per directed edge end.
    std::map<std::pair<unsigned, unsigned>, Egress *> port_of;
    auto make_port = [&](unsigned from, unsigned to,
                         const LinkConfig &lc) {
        Switch *owner =
            t.isHost(from) ? nullptr : switches_[from - t.hosts].get();
        ports_.push_back(std::make_unique<Egress>(
            eq_, *this, to, lc, t.switchCfg, owner));
        Egress *p = ports_.back().get();
        if (owner != nullptr)
            owner->addEgress(p);
        else
            hostUp_[from] = p;
        if (t.isHost(to))
            hostDown_[to] = p;
        else
            switches_[to - t.hosts]->addUpstream(p);
        port_of[{from, to}] = p;
    };
    for (const Topology::Edge &e : t.edges) {
        make_port(e.a, e.b, e.link);
        make_port(e.b, e.a, e.link);
    }

    auto r = t.routes();
    for (unsigned s = 0; s < t.switches; ++s) {
        unsigned v = t.hosts + s;
        std::vector<std::vector<Egress *>> table(t.hosts);
        for (unsigned d = 0; d < t.hosts; ++d)
            for (unsigned nb : r[v][d])
                table[d].push_back(port_of.at({v, nb}));
        switches_[s]->setRoutes(std::move(table));
    }
    initCommon();
}

Fabric::~Fabric() = default;

void
Fabric::initCommon()
{
    // Built after the nodes' links so that those keep the obs
    // instance numbers (net.link<i>) a fabric has always given them.
    LinkConfig loop;
    loop.bandwidthBitsPerSec = std::numeric_limits<double>::infinity();
    loop.propagation =
        topo_ ? topo_->switchCfg.forwardLatency : cfg_.switchLatency;
    loop.perPacketOverheadBytes = 0;
    loop_ = std::make_unique<Link>(eq_, loop);
    obs_.init("net.fabric");
    obs_.counter("host_pauses", &stats_.hostPauses);
}

Link &
Fabric::downlink(unsigned node)
{
    return topo_ ? hostDown_[node]->link() : *down_[node];
}

void
Fabric::sendTopo(unsigned src, unsigned dst, std::size_t bytes,
                 unsigned priority, std::uint32_t flow,
                 sim::EventQueue::Callback deliver)
{
    sim::PoolRef ref = fabricPacketPool().acquire(
        WireHeader{src, dst, 0, static_cast<std::uint32_t>(bytes)},
        std::move(deliver));
    FabricPacket *pkt = ref.as<FabricPacket>();
    pkt->flow = flow;
    pkt->priority = static_cast<std::uint8_t>(priority);
    hostUp_[src]->enqueue(std::move(ref));
}

void
Fabric::arrive(unsigned vertex, sim::PoolRef pkt)
{
    if (topo_->isHost(vertex))
        deliverToHost(std::move(pkt));
    else
        switches_[vertex - topo_->hosts]->receive(std::move(pkt));
}

void
Fabric::deliverToHost(sim::PoolRef pkt)
{
    FabricPacket *p = pkt.as<FabricPacket>();
    rx_.ecn = p->ecn;
    rx_.priority = p->priority;
    // Release the descriptor before running the callback: delivery
    // handlers commonly send() in turn, and the freed slot lets that
    // send reuse it instead of growing the slab.
    if (p->isRecord) {
        WireRecord rec = p->record();
        pkt.reset();
        dispatch(rec);
    } else {
        sim::EventQueue::Callback deliver = std::move(p->deliver);
        pkt.reset();
        deliver();
    }
    rx_ = RxContext{};
}

// --- record-based delivery plane ------------------------------------

namespace {

/** BoundaryMsg <-> WireRecord packing for the cross-shard hop. */
sim::BoundaryMsg
packRecord(const WireRecord &rec, sim::Time when, std::uint64_t key,
           std::uint32_t engine_kind, unsigned src_shard,
           unsigned dst_shard)
{
    sim::BoundaryMsg m;
    m.when = when;
    m.orderKey = key;
    m.kind = engine_kind;
    m.srcShard = static_cast<std::uint16_t>(src_shard);
    m.dstShard = static_cast<std::uint16_t>(dst_shard);
    m.a = (std::uint64_t(rec.src) << 32) | rec.dst;
    m.b = (std::uint64_t(rec.kind) << 32) | rec.bytes;
    m.c = rec.payloadLen;
    std::memcpy(m.payload, rec.payload, sizeof(m.payload));
    m.payloadLen = rec.payloadLen;
    return m;
}

WireRecord
unpackRecord(const sim::BoundaryMsg &m)
{
    WireRecord rec;
    rec.src = static_cast<std::uint32_t>(m.a >> 32);
    rec.dst = static_cast<std::uint32_t>(m.a);
    rec.kind = static_cast<std::uint32_t>(m.b >> 32);
    rec.bytes = static_cast<std::uint32_t>(m.b);
    rec.payloadLen = static_cast<std::uint32_t>(m.c);
    std::memcpy(rec.payload, m.payload, sizeof(rec.payload));
    return rec;
}

} // namespace

void
Fabric::bindRx(unsigned node, std::uint32_t kind, RxHandler h)
{
    std::uint64_t key = (std::uint64_t(node) << 32) | kind;
    auto [it, fresh] = rxHandlers_.emplace(key, std::move(h));
    if (!fresh) {
        std::fprintf(stderr,
                     "Fabric: duplicate rx binding node %u kind %u\n",
                     node, kind);
        std::abort();
    }
}

void
Fabric::shardBind(sim::ShardedEngine &engine, unsigned my_shard,
                  std::vector<std::uint16_t> owner_of_node,
                  std::uint32_t engineKind)
{
    if (topo_ != nullptr) {
        std::fprintf(stderr,
                     "Fabric: shardBind is legacy-mode only (topology "
                     "fabrics stay single-shard)\n");
        std::abort();
    }
    if (owner_of_node.size() != up_.size()) {
        std::fprintf(stderr,
                     "Fabric: owner map covers %zu nodes, fabric has "
                     "%zu\n",
                     owner_of_node.size(), up_.size());
        std::abort();
    }
    engine_ = &engine;
    myShard_ = my_shard;
    engineKind_ = engineKind;
    ownerOf_ = std::move(owner_of_node);
    engine.bind(my_shard, engineKind,
                [this](const sim::BoundaryMsg &m) {
                    lastHop(fabricPacketPool().acquire(unpackRecord(m)));
                });
}

sim::Time
Fabric::recordLookahead() const
{
    if (topo_ != nullptr) {
        std::fprintf(stderr,
                     "Fabric: recordLookahead is legacy-mode only\n");
        std::abort();
    }
    return cfg_.recordLookahead();
}

void
Fabric::sendRecord(const WireRecord &rec)
{
    if (topo_ != nullptr) {
        std::fprintf(stderr,
                     "Fabric: sendRecord is legacy-mode only\n");
        std::abort();
    }
    if (rec.src == rec.dst) {
        lastHop(fabricPacketPool().acquire(rec));
        return;
    }
    std::uint64_t key = nextOrderKey(rec.src);
    Link::TxOutcome tx = up_[rec.src]->transmit(rec.bytes);
    if (tx.dropped)
        return;
    bool local = ownerOf_.empty() || ownerOf_[rec.dst] == myShard_;
    // The switch hop. Even when the destination is local, it goes
    // through scheduleBoundary with the cross-shard order key so a
    // 1-shard world replays an N-shard partitioning bit-identically.
    auto stage = [&](sim::Time up_arrival, std::uint64_t k) {
        sim::Time exit = up_arrival + cfg_.switchLatency;
        if (local) {
            sim::PoolRef ref = fabricPacketPool().acquire(rec);
            eq_.scheduleBoundary(
                exit, k,
                [this, ref = std::move(ref)]() mutable {
                    lastHop(std::move(ref));
                },
                "net.fabric.switchrec");
        } else {
            engine_->post(packRecord(rec, exit, k, engineKind_,
                                     myShard_, ownerOf_[rec.dst]));
        }
    };
    if (tx.duplicated)
        stage(tx.dupArrival, nextOrderKey(rec.src));
    stage(tx.arrival, key);
}

void
Fabric::lastHop(sim::PoolRef pkt)
{
    const FabricPacket *p = pkt.as<FabricPacket>();
    Link &link = p->src == p->dst ? *loop_ : *down_[p->dst];
    std::uint32_t bytes = p->bytes;
    auto deliver = [this, pkt = std::move(pkt)]() mutable {
        deliverToHost(std::move(pkt));
    };
    link.send(bytes, std::move(deliver), "net.fabric.rxrec");
}

void
Fabric::dispatch(const WireRecord &rec)
{
    auto it =
        rxHandlers_.find((std::uint64_t(rec.dst) << 32) | rec.kind);
    if (it == rxHandlers_.end()) {
        std::fprintf(stderr,
                     "Fabric: record for unbound (node %u, kind %u)\n",
                     rec.dst, rec.kind);
        std::abort();
    }
    it->second(rec);
}

void
Fabric::setHostRxPause(unsigned node, bool on)
{
    if (!topo_)
        return;
    unsigned &depth = hostPauseDepth_[node];
    if (on) {
        if (depth++ != 0)
            return;
        ++stats_.hostPauses;
    } else {
        if (depth == 0 || --depth != 0)
            return;
    }
    // The NIC's pause frame crosses the host's wire backward; only
    // the data class is paused, so control traffic (NACKs, ACKs,
    // CNPs) keeps flowing and the loop cannot deadlock on its own
    // recovery messages.
    Egress *down = hostDown_[node];
    eq_.scheduleAfter(hostUp_[node]->link().config().propagation,
                      [down, on] { down->setPaused(0, on); },
                      "net.pfc.host");
}

} // namespace npf::net
