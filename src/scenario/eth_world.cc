#include "scenario/eth_world.hh"

namespace npf::scenario {

EthBed::EthBed(const Options &o)
{
    mem::MemoryManager *smm = o.sharedServerMm;
    if (smm == nullptr) {
        serverMm = std::make_unique<mem::MemoryManager>(
            o.serverMemBytes, mem::MemCostConfig{}, o.serverSwap);
        smm = serverMm.get();
    }
    if (!o.serverCgroup.empty() && !smm->hasCgroup(o.serverCgroup))
        smm->createCgroup(o.serverCgroup, o.cgroupLimit);
    clientMm = std::make_unique<mem::MemoryManager>(1ull << 30);
    serverAs = &smm->createAddressSpace("server", o.serverCgroup);
    clientAs = &clientMm->createAddressSpace("client");
    serverNpfc = std::make_unique<core::NpfController>(eq);
    clientNpfc = std::make_unique<core::NpfController>(eq);
    serverCh = serverNpfc->attach(*serverAs);
    clientCh = clientNpfc->attach(*clientAs);

    serverNic = std::make_unique<eth::EthNic>(eq, *serverNpfc);
    clientNic = std::make_unique<eth::EthNic>(eq, *clientNpfc);
    serverNic->connectTo(*clientNic);
    clientNic->connectTo(*serverNic);

    eth::RxRingConfig srv_ring;
    srv_ring.size = o.ringSize;
    srv_ring.bmSize = std::min<std::size_t>(64, o.ringSize);
    srv_ring.policy = o.policy;
    srv_ring.syntheticRnpfProb = o.syntheticRnpfProb;
    srv_ring.syntheticMajor = o.syntheticMajor;

    eth::RxRingConfig cli_ring;
    cli_ring.size = 1024;
    cli_ring.policy = eth::RxFaultPolicy::Pin;

    // lwIP-era stacks run small windows; that also keeps TCP itself
    // from overrunning a 64-entry ring (which would conflate ring
    // overflow with rNPF loss).
    tcp::EndpointConfig scfg, ccfg;
    scfg.pinRxBuffers = o.policy == eth::RxFaultPolicy::Pin;
    scfg.prefaultRxBuffers = o.prefaultRxBuffers;
    scfg.rxBufBytes = o.rxBufBytes;
    scfg.tcp.mss = o.mss;
    scfg.tcp.maxWindowBytes = 64 * 1024;
    ccfg.pinRxBuffers = true;
    ccfg.rxBufBytes = o.rxBufBytes;
    ccfg.tcp.mss = o.mss;
    ccfg.tcp.maxWindowBytes = 64 * 1024;

    // Ring 0 on each NIC; each endpoint addresses the peer's ring 0.
    server = std::make_unique<tcp::Endpoint>(eq, *serverNic, *serverAs,
                                             serverCh, srv_ring, 0, scfg);
    client = std::make_unique<tcp::Endpoint>(eq, *clientNic, *clientAs,
                                             clientCh, cli_ring, 0, ccfg);
}

bool
EthBed::connect(std::uint32_t id, sim::Time deadline)
{
    tcp::TcpConnection &srv = server->connection(id);
    tcp::TcpConnection &cli = client->connection(id);
    srv.listen();
    bool done = false, ok = false;
    cli.connect([&](bool success) {
        done = true;
        ok = success;
    });
    eq.runUntilCondition([&] { return done; }, eq.now() + deadline);
    return ok && cli.established();
}

MemcachedInstance::MemcachedInstance(EthBed &b, app::HostModel &host,
                                     const Options &o)
    : bed(b), kv(*b.serverAs, o.kvBytes, o.server.valueBytes),
      server(b.eq, kv, host, o.server)
{
    host.addInstance();
    auto preload = [&] {
        kv.reserve(o.preloadKeys);
        for (std::uint64_t k = 0; k < o.preloadKeys; ++k)
            kv.set(k);
    };
    if (!o.preloadAfterConnect)
        preload();
    std::vector<app::RpcChannel *> raw;
    for (std::uint32_t id = 1; id <= o.connections; ++id) {
        if (!bed.connect(id) && failedConnect == 0)
            failedConnect = id;
        chans.emplace_back(bed.client->connection(id),
                           bed.server->connection(id));
        server.serve(chans.back());
        raw.push_back(&chans.back());
    }
    if (o.preloadAfterConnect)
        preload();
    if (o.slap)
        slap = std::make_unique<app::Memaslap>(bed.eq, raw, *o.slap,
                                               o.slapSeed);
}

NicRig::NicRig()
    : mm(1ull << 30), as(mm.createAddressSpace("iouser")), npfc(eq),
      ch(npfc.attach(as)), nic(eq, npfc), peer(eq, npfc)
{
    peer.connectTo(nic);
    nic.connectTo(peer);
}

NicRig::Ring
NicRig::addRing(const eth::RxRingConfig &cfg, bool prefault,
                eth::EthNic::RxHandler onFrame)
{
    constexpr std::size_t kBuf = mem::kPageSize;
    Ring &r = rings_.emplace_back();
    auto deliver = [this, &r, onFrame = std::move(onFrame)](
                       const eth::Frame &f) {
        onFrame(f);
        eth::RxRing &ring = nic.ring(r.id);
        if (ring.postableSlots() > 0)
            nic.postRxBuffer(r.id, r.bufs + ring.tail % ring.cfg.size * kBuf,
                             kBuf);
    };
    r.id = nic.createRxRing(ch, cfg, std::move(deliver));
    r.bufs = as.allocRegion(cfg.size * kBuf);
    if (prefault)
        npfc.prefault(ch, r.bufs, cfg.size * kBuf, true);
    for (std::size_t i = 0; i < cfg.size; ++i)
        nic.postRxBuffer(r.id, r.bufs + i * kBuf, kBuf);
    return r;
}

void
NicRig::send(eth::Frame f)
{
    eth::EthNic *dst = &nic;
    peer.txLink()->send(f.bytes, [dst, f] { dst->receive(f); });
}

} // namespace npf::scenario
