#include "scenario/ib_world.hh"

namespace npf::scenario {

namespace {

constexpr std::size_t kGiB = 1ull << 30;

std::unique_ptr<net::Fabric>
makeFabric(sim::EventQueue &eq, const net::Topology *topo)
{
    if (topo != nullptr)
        return std::make_unique<net::Fabric>(eq, *topo);
    return std::make_unique<net::Fabric>(eq, 2, net::kFdrFabric);
}

} // namespace

IbBed::IbBed(sim::EventQueue &q, const net::Topology *topo)
    : eq(q), fabric(makeFabric(eq, topo)), serverMm(2 * kGiB),
      clientMm(2 * kGiB), serverAs(serverMm.createAddressSpace("kv")),
      clientAs(clientMm.createAddressSpace("load")), serverNpfc(eq),
      sch(serverNpfc.attach(serverAs))
{
    unsigned clientHosts = topo != nullptr ? topo->hosts - 1 : 1;
    for (unsigned h = 0; h < clientHosts; ++h) {
        clientNpfcs.emplace_back(eq);
        cchs.push_back(clientNpfcs.back().attach(clientAs));
    }
}

RcPair::RcPair(sim::EventQueue &q, const Options &o)
    : eq(q), fabric(eq, 2, net::kFdrFabric), mmA(o.memA), mmB(o.memB),
      asA(mmA.createAddressSpace("a")),
      asB(mmB.createAddressSpace("b")), npfcA(eq), npfcB(eq),
      chA(npfcA.attach(asA)), chB(npfcB.attach(asB)),
      qpA(eq, fabric, 0, npfcA, chA, o.qp, 1),
      qpB(eq, fabric, 1, npfcB, chB, o.qp, 2)
{
    qpA.connect(qpB);
    qpB.connect(qpA);
}

KvWorld::KvWorld(IbBed &b, const load::PoolConfig &pc,
                 const load::RecorderConfig &rc, const Options &o)
    : bed(b), opt(o),
      kv(b.serverAs, o.kvBytes, app::KvRpcConfig{}.valueBytes),
      server(b.eq, kv, host, b.serverAs, {},
             core::Registration(o.reg, b.serverNpfc, b.sch)),
      rec(rc), pool(b.eq, pc)
{
    host.addInstance();
    kv.reserve(pc.workload.keys.keys);
    for (std::uint64_t k = 0; k < pc.workload.keys.keys; ++k)
        kv.set(k);
    pool.setRecorder(rec);
    // Pre-size every latency histogram so an allocation-gated measure
    // window never sees one grow; zero-count buckets change no result.
    rec.reserveLatencyRange(0.1, 1e7);
}

void
KvWorld::connect(unsigned endpoints)
{
    for (unsigned i = 0; i < endpoints; ++i) {
        unsigned h = i % bed.clientNpfcs.size();
        ib::QueuePair &qpS =
            qps.emplace_back(bed.eq, *bed.fabric, 0, bed.serverNpfc,
                             bed.sch, ib::QpConfig{}, 2 * i + 1);
        ib::QueuePair &qpC = qps.emplace_back(
            bed.eq, *bed.fabric, 1 + h, bed.clientNpfcs[h], bed.cchs[h],
            opt.clientQp, 2 * i + 2);
        qpS.connect(qpC);
        qpC.connect(qpS);
        auto reqs = std::make_shared<sim::RingDeque<app::KvRpcRequest>>();
        auto rsps = std::make_shared<sim::RingDeque<app::KvRpcResponse>>();
        server.addSession(qpS, reqs, rsps);
        transports.emplace_back(qpC, bed.clientAs, reqs, rsps);
        transports.back().connect(pool);
    }
}

IncastRig::IncastRig(const net::Topology &topo, const Options &o)
    : fabric(eq, topo), victimMm(2 * kGiB),
      victimAs(victimMm.createAddressSpace("victim")), victimNpfc(eq)
{
    for (unsigned host : o.senders)
        senders.emplace_back(*this, host, o);
}

IncastRig::Sender::Sender(IncastRig &rig, unsigned host, const Options &o)
    : mm(2 * kGiB), as(mm.createAddressSpace("sender")), npfc(rig.eq),
      ch(npfc.attach(as)), vch(rig.victimNpfc.attach(rig.victimAs)),
      qp(rig.eq, rig.fabric, host, npfc, ch, o.qp, 100 + host),
      vqp(rig.eq, rig.fabric, 0, rig.victimNpfc, vch, o.qp, 200 + host)
{
    qp.connect(vqp);
    vqp.connect(qp);
    src = as.allocRegion(o.regionBytes);
    dst = rig.victimAs.allocRegion(o.regionBytes);
    npfc.prefault(ch, src, o.regionBytes, true);
    if (o.warmVictim)
        rig.victimNpfc.prefault(vch, dst, o.regionBytes, true);
    else
        rig.victimAs.touch(dst, o.regionBytes, /*write=*/true);
}

StreamWorld::StreamWorld(sim::EventQueue &q, sim::ShardedEngine &engine,
                         unsigned s, unsigned shards)
    : eq(q), mm(1 * kGiB), as(mm.createAddressSpace("stream")), npfc(eq),
      ch(npfc.attach(as))
{
    fabric = std::make_unique<net::Fabric>(eq, shards, kFabric);
    std::vector<std::uint16_t> owner(shards);
    for (unsigned n = 0; n < shards; ++n)
        owner[n] = std::uint16_t(n);
    fabric->shardBind(engine, s, std::move(owner));

    sbuf = as.allocRegion(kMsgBytes * kSendWindow, "stream-s");
    rbuf = as.allocRegion(kMsgBytes * kRecvDepth, "stream-r");
    as.touch(sbuf, kMsgBytes * kSendWindow, /*write=*/true);
    as.touch(rbuf, kMsgBytes * kRecvDepth, /*write=*/true);

    tx = std::make_unique<ib::QueuePair>(eq, *fabric, s, npfc, ch,
                                         ib::QpConfig{}, 0xbeef + s);
    rx = std::make_unique<ib::QueuePair>(eq, *fabric, s, npfc, ch,
                                         ib::QpConfig{}, 0xfeed + s);
    tx->connectRemote((s + 1) % shards, /*my_kind=*/1, /*peer_kind=*/0);
    rx->connectRemote((s + shards - 1) % shards, /*my_kind=*/0,
                      /*peer_kind=*/1);

    rx->onCompletion([this](const ib::Completion &c) {
        if (!c.isRecv)
            return;
        ++received;
        if (!stopped)
            postRecv(received % kRecvDepth);
    });
    tx->onCompletion([this](const ib::Completion &c) {
        if (c.isRecv)
            return;
        ++sent;
        // A failed send means the QP is in error: every re-post would
        // only be flushed again, one zero-delay event after another.
        if (c.ok && !stopped)
            postSend(sent % kSendWindow);
    });
    for (unsigned i = 0; i < kRecvDepth; ++i)
        postRecv(i);
    for (unsigned i = 0; i < kSendWindow; ++i)
        postSend(i);
}

void
StreamWorld::postSend(unsigned slot)
{
    ib::WorkRequest w;
    w.op = ib::Opcode::Send;
    w.local = sbuf + slot * kMsgBytes;
    w.len = kMsgBytes;
    tx->postSend(w);
}

void
StreamWorld::postRecv(unsigned slot)
{
    ib::WorkRequest w;
    w.local = rbuf + slot * kMsgBytes;
    w.len = kMsgBytes;
    rx->postRecv(w);
}

} // namespace npf::scenario
