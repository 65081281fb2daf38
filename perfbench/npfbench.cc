/**
 * @file
 * npfbench: the npfsim benchmark driver.
 *
 * Builds one of four fixed workloads from the simulator's libraries,
 * seeded from the command line, and measures it twice over:
 *
 *  - untraced: set-up time (median of several builds), host speed
 *    (simulated seconds per host second: several identical replica
 *    worlds run the window, and its host time is the sum over its
 *    chunks of each chunk's fastest replica, every chunk's wall time
 *    scaled to a reference CPU by a probe of its CPU's current speed),
 *    peak RSS, and the simulated outcome of the measure window
 *    (throughput, CO-corrected latency percentiles, failures);
 *  - traced (--trace 1): a fresh world with every event queue's
 *    per-site profiler and the causal latency attributor on, whose
 *    per-site host time is grouped by module prefix, plus every
 *    module's stats() counters and ns/op timings of each layer's public
 *    calls on fixtures taken from the warmed world.
 *
 * Correctness: every run folds its simulated observables into an FNV
 * digest. The digest at a fixed simulated checkpoint (independent of
 * --seconds) is printed for comparison with the pinned table, the
 * traced world must reproduce the untraced world's digest exactly, and
 * the single-threaded workloads must not allocate in the measure
 * window.
 *
 *   npfbench --workload NAME --seed N --seconds S --trace 0|1
 *   npfbench --workload NAME --seed N --check-only
 *
 * The last stdout line is one JSON object; perfbench/run.py turns it
 * into the benchmark's result line.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "app/kv_rpc.hh"
#include "app/memcached.hh"
#include "core/npf_controller.hh"
#include "eth/eth_nic.hh"
#include "ib/queue_pair.hh"
#include "load/client_pool.hh"
#include "load/recorder.hh"
#include "mem/memory_manager.hh"
#include "net/fabric.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "sim/shard.hh"
#include "tcp/endpoint.hh"

// --- allocation counter ------------------------------------------------
// Every global operator new, on any thread. The single-threaded
// workloads gate on zero allocations inside the measure window.

static std::atomic<std::uint64_t> g_allocs{0};

void *
operator new(std::size_t sz)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(sz != 0 ? sz : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t sz)
{
    return ::operator new(sz);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace npf;
using namespace npf::app;

namespace {

constexpr std::size_t kMiB = 1ull << 20;
constexpr std::size_t kGiB = 1ull << 30;

using Clock = std::chrono::steady_clock;

/** Keep @p v, and the work that produced it, from being optimised out. */
template <typename T>
void
keep(const T &v)
{
    asm volatile("" : : "g"(v) : "memory");
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
die(const char *fmt, const char *arg)
{
    std::fprintf(stderr, "npfbench: ");
    std::fprintf(stderr, fmt, arg);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** FNV-1a over 64-bit words (the shard_scale digest). */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    mix(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    }
};

// --- counters read from every module's stats() --------------------------
//
// Components register pointers into their Stats structs with the
// calling thread's obs::Registry under instance-numbered names
// ("ib.qp12.send_npfs"). Summing over instances (digits stripped from
// each name component: "ib.qp.send_npfs") reads a module's stats()
// for the whole world at once.

using Counters = std::map<std::string, double>;

/** Counter names (instance digits stripped) the per-layer metrics use. */
const char *const kCounterNames[] = {
    "ib.qp.data_packets_sent", "ib.qp.retransmitted",
    "ib.qp.rnr_nacks_sent",    "ib.qp.send_npfs",
    "net.link.packets",        "tcp.conn.segments_sent",
    "tcp.conn.retransmissions", "eth.nic.frames_received",
    "eth.nic.ring.dropped",    "eth.backup.parked",
    "eth.backup.overflow_drops", "core.npf.npfs",
    "core.npf.merged_npfs",    "iommu.mmu.tlb_hits",
    "iommu.mmu.tlb_misses",    "core.npf.invalidations",
    "mem.mm.minor_faults",     "mem.mm.major_faults",
    "mem.mm.evictions",        "load.pool.issued",
    "load.pool.shed_arrivals",
};

std::string
stripInstance(const std::string &name)
{
    std::string out;
    std::size_t start = 0;
    while (start <= name.size()) {
        std::size_t dot = name.find('.', start);
        if (dot == std::string::npos)
            dot = name.size();
        std::size_t end = dot;
        while (end > start && name[end - 1] >= '0' && name[end - 1] <= '9')
            --end;
        if (!out.empty())
            out.push_back('.');
        out.append(name, start, end - start);
        start = dot + 1;
    }
    return out;
}

/** Sum the wanted counters over the calling thread's registry. */
void
addCounters(Counters &into)
{
    obs::Registry &reg = obs::Registry::global();
    for (const std::string &name : reg.names()) {
        std::string key = stripInstance(name);
        for (const char *want : kCounterNames) {
            if (key == want) {
                into[key] += reg.value(name).value_or(0.0);
                break;
            }
        }
    }
}

double
delta(const Counters &a, const Counters &b, const char *key)
{
    auto ia = a.find(key), ib = b.find(key);
    double va = ia == a.end() ? 0.0 : ia->second;
    double vb = ib == b.end() ? 0.0 : ib->second;
    return vb - va;
}

// --- workloads -----------------------------------------------------------

/** Handles into a warmed world for the per-layer call timings. */
struct Fixture
{
    sim::EventQueue *eq = nullptr;
    core::NpfController *npfc = nullptr;
    core::ChannelId ch = 0;
    mem::AddressSpace *as = nullptr;
    KvStore *kv = nullptr;
    std::uint64_t hotKeys = 1;
    load::KeyModel *keys = nullptr;
};

/** Measure-window outcome, all simulated. */
struct Outcome
{
    std::uint64_t attempted = 0; ///< requests issued in the window
    std::uint64_t completed = 0; ///< responses recorded in the window
    std::uint64_t ops = 0;       ///< what sim_ops_per_s counts
    std::uint64_t failed = 0;    ///< timeouts+give-ups+shed+conn failures
    std::uint64_t kvHits = 0, kvLookups = 0;
    load::Histogram latency;     ///< CO-corrected response latency [us]
    std::vector<obs::PhaseBreakdown> breakdowns; ///< traced runs only
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run from the end of set-up to the start of the measure window. */
    virtual void warmUp() = 0;

    /** Advance the simulation by one measure chunk. */
    virtual void runChunk() = 0;

    /** Snapshot the counters the outcome is taken relative to. */
    virtual void beginWindow() = 0;

    virtual void outcome(Outcome &o) = 0;

    /** Fold every simulated observable into @p d. */
    virtual void fold(Digest &d) = 0;

    /** Event queues, one per thread that runs simulation work. */
    virtual std::vector<sim::EventQueue *> queues() = 0;

    /** Run @p fn on the thread that owns queue @p q. */
    virtual void
    onOwner(unsigned q, const std::function<void()> &fn)
    {
        (void)q;
        fn();
    }

    /** Threads that execute events in parallel. */
    virtual unsigned threads() const { return 1; }

    /** Boundary messages posted across shards so far. */
    virtual std::uint64_t crossMsgs() const { return 0; }

    /** Stats counters summed over every owning thread's registry. */
    Counters
    counters()
    {
        Counters c;
        unsigned n = unsigned(queues().size());
        for (unsigned q = 0; q < n; ++q) {
            if (q > 0 && threads() == 1)
                break; // one thread, one registry
            onOwner(q, [&c] { addCounters(c); });
        }
        return c;
    }

    /** Fixture handles on queue 0's thread. */
    virtual Fixture fixture() = 0;
};

/** Per-workload constants. */
struct Spec
{
    const char *name;
    sim::Time warm;          ///< simulated warm-up
    sim::Time chunk;         ///< simulated length of one measure chunk
    double chunksPerSecond;  ///< chunks per host second of --seconds
    unsigned checkChunks;    ///< checkpoint for the pinned digest
    bool allocGate;          ///< must not allocate in the window
    unsigned builds;         ///< set-ups timed per run, >= kReplicas
    std::unique_ptr<Workload> (*build)(const Spec &, std::uint64_t seed,
                                       sim::Time window, bool traced);
};

/** Identical worlds run through the measure window (host speed). */
constexpr unsigned kReplicas = 3;

/**
 * Recorder config for a measure window that opens at @p warm. Traced
 * runs keep every phase breakdown, so the attr.* means cover all
 * requests rather than the slowest few; @p maxRate (requests per
 * simulated second of one recorder) sizes that store.
 */
load::RecorderConfig
recorderConfig(sim::Time warm, sim::Time window, bool traced,
               double maxRate)
{
    load::RecorderConfig rc{warm, window};
    rc.slowK =
        traced ? std::size_t(maxRate * sim::toSeconds(window)) + 1024 : 0;
    return rc;
}

/**
 * Point the calling thread's attributor at @p eq, enabling it first if
 * needed (enabling resets every lane, so it happens once per world,
 * before the first model opens one).
 */
void
enableAttribution(sim::EventQueue &eq)
{
    obs::Attributor &at = obs::attributor();
    if (!at.enabled())
        at.enable(true);
    at.setClock(&eq);
}

void
disableAttribution()
{
    obs::Attributor &at = obs::attributor();
    at.enable(false);
    at.setClock(nullptr);
}

void
foldRecorder(Digest &d, const load::Recorder &rec)
{
    for (unsigned c = 0; c < rec.classes(); ++c) {
        d.mix(rec.completions(c));
        d.mix(rec.timeouts(c));
        d.mix(rec.response(c).count());
        d.mix(rec.response(c).sum());
        d.mix(rec.response(c).percentile(50));
        d.mix(rec.response(c).percentile(99));
    }
}

void
addRecorder(Outcome &o, const load::Recorder &rec)
{
    for (unsigned c = 0; c < rec.classes(); ++c) {
        o.completed += rec.completions(c);
        o.latency.merge(rec.response(c));
        const auto &slow = rec.slowSamples(c);
        o.breakdowns.insert(o.breakdowns.end(), slow.begin(), slow.end());
    }
}

// --- the Ethernet bed ----------------------------------------------------

/**
 * One memcached server host (direct channel, selectable rx fault
 * policy) and one pinned client host over a 12 Gb/s link: the paper's
 * §6 Ethernet setup.
 */
struct EthBed
{
    struct Options
    {
        eth::RxFaultPolicy policy = eth::RxFaultPolicy::Pin;
        std::size_t rxBufBytes = 2048;
        std::size_t mss = 1448;
        mem::MemoryManager *sharedServerMm = nullptr;
        std::string serverCgroup;
        std::size_t cgroupLimit = 0;
    };

    sim::EventQueue eq;
    std::unique_ptr<mem::MemoryManager> serverMm, clientMm;
    mem::AddressSpace *serverAs = nullptr, *clientAs = nullptr;
    std::unique_ptr<core::NpfController> serverNpfc, clientNpfc;
    core::ChannelId serverCh = 0;
    std::unique_ptr<eth::EthNic> serverNic, clientNic;
    std::unique_ptr<tcp::Endpoint> server, client;
    unsigned connectFailures = 0;

    explicit EthBed(const Options &o)
    {
        mem::MemoryManager *smm = o.sharedServerMm;
        if (smm == nullptr) {
            serverMm = std::make_unique<mem::MemoryManager>(2 * kGiB);
            smm = serverMm.get();
        }
        if (!o.serverCgroup.empty() && !smm->hasCgroup(o.serverCgroup))
            smm->createCgroup(o.serverCgroup, o.cgroupLimit);
        clientMm = std::make_unique<mem::MemoryManager>(1 * kGiB);
        serverAs = &smm->createAddressSpace("server", o.serverCgroup);
        clientAs = &clientMm->createAddressSpace("client");
        serverNpfc = std::make_unique<core::NpfController>(eq);
        clientNpfc = std::make_unique<core::NpfController>(eq);
        serverCh = serverNpfc->attach(*serverAs);
        core::ChannelId cch = clientNpfc->attach(*clientAs);

        serverNic = std::make_unique<eth::EthNic>(eq, *serverNpfc);
        clientNic = std::make_unique<eth::EthNic>(eq, *clientNpfc);
        net::LinkConfig link;
        link.bandwidthBitsPerSec = 12e9;
        link.propagation = 1000;
        serverNic->connectTo(*clientNic, link);
        clientNic->connectTo(*serverNic, link);

        eth::RxRingConfig srvRing;
        srvRing.size = 256;
        srvRing.bmSize = 64;
        srvRing.policy = o.policy;
        eth::RxRingConfig cliRing;
        cliRing.size = 1024;
        cliRing.policy = eth::RxFaultPolicy::Pin;

        tcp::EndpointConfig scfg, ccfg;
        scfg.pinRxBuffers = o.policy == eth::RxFaultPolicy::Pin;
        scfg.rxBufBytes = o.rxBufBytes;
        scfg.tcp.mss = o.mss;
        scfg.tcp.maxWindowBytes = 64 * 1024;
        ccfg.pinRxBuffers = true;
        ccfg.rxBufBytes = o.rxBufBytes;
        ccfg.tcp.mss = o.mss;
        ccfg.tcp.maxWindowBytes = 64 * 1024;
        server = std::make_unique<tcp::Endpoint>(eq, *serverNic, *serverAs,
                                                 serverCh, srvRing, 0, scfg);
        client = std::make_unique<tcp::Endpoint>(eq, *clientNic, *clientAs,
                                                 cch, cliRing, 0, ccfg);
    }

    /** TCP handshake for connection @p id (part of set-up). */
    void
    connect(std::uint32_t id)
    {
        tcp::TcpConnection &srv = server->connection(id);
        tcp::TcpConnection &cli = client->connection(id);
        srv.listen();
        bool done = false, ok = false;
        cli.connect([&](bool success) {
            done = true;
            ok = success;
        });
        eq.runUntilCondition([&] { return done; },
                             eq.now() + 300 * sim::kSecond);
        if (!ok)
            ++connectFailures;
    }
};

/** One memcached instance on its own bed, driven by closed-loop memaslap. */
struct MemcachedInstance
{
    std::unique_ptr<EthBed> bed;
    HostModel &host;
    std::unique_ptr<KvStore> kv;
    std::unique_ptr<MemcachedServer> server;
    std::vector<std::unique_ptr<RpcChannel>> chans;
    std::unique_ptr<load::Recorder> rec;
    std::unique_ptr<Memaslap> slap;
    std::uint64_t issued0 = 0, hits0 = 0, kvHits0 = 0, kvMisses0 = 0;
    std::uint64_t fail0 = 0;

    MemcachedInstance(const EthBed::Options &bo, HostModel &h,
                      std::size_t cacheBytes, std::size_t itemBytes,
                      sim::Time opCpu, const MemaslapConfig &scfg,
                      std::uint64_t seed, const load::RecorderConfig &rc,
                      bool traced)
        : bed(std::make_unique<EthBed>(bo)), host(h)
    {
        if (traced)
            enableAttribution(bed->eq);
        host.addInstance();
        kv = std::make_unique<KvStore>(*bed->serverAs, cacheBytes,
                                       itemBytes);
        MemcachedConfig mcfg;
        mcfg.valueBytes = itemBytes;
        mcfg.baseOpCpu = opCpu;
        server = std::make_unique<MemcachedServer>(bed->eq, *kv, host, mcfg);
        std::vector<RpcChannel *> raw;
        for (std::uint32_t id = 1; id <= 4; ++id) {
            bed->connect(id);
            chans.push_back(std::make_unique<RpcChannel>(
                bed->client->connection(id), bed->server->connection(id)));
            server->serve(*chans.back());
            raw.push_back(chans.back().get());
        }
        slap = std::make_unique<Memaslap>(bed->eq, raw, scfg, seed);
        rec = std::make_unique<load::Recorder>(rc);
        slap->pool().setRecorder(*rec);
        rec->reserveLatencyRange(0.1, 1e7);
        for (std::uint64_t k = 0; k < scfg.keys; ++k)
            kv->set(k);
    }

    std::uint64_t
    failures()
    {
        load::ClientPool &p = slap->pool();
        return p.timeouts() + p.giveups() + p.shedArrivals();
    }

    void
    begin()
    {
        issued0 = slap->pool().issued();
        hits0 = slap->hits();
        kvHits0 = kv->hits();
        kvMisses0 = kv->misses();
        fail0 = failures();
    }

    void
    addTo(Outcome &o, bool opsAreHits)
    {
        load::ClientPool &p = slap->pool();
        o.attempted += p.issued() - issued0;
        std::uint64_t before = o.completed;
        addRecorder(o, *rec);
        o.ops += opsAreHits ? slap->hits() - hits0 : o.completed - before;
        o.failed += failures() - fail0 + bed->connectFailures;
        o.kvHits += kv->hits() - kvHits0;
        o.kvLookups += (kv->hits() - kvHits0) + (kv->misses() - kvMisses0);
    }

    void
    fold(Digest &d)
    {
        load::ClientPool &p = slap->pool();
        d.mix(bed->eq.now());
        d.mix(bed->eq.stats().executed);
        d.mix(bed->eq.stats().scheduled);
        d.mix(p.issued());
        d.mix(p.completions());
        d.mix(p.hits());
        d.mix(failures());
        d.mix(kv->hits());
        d.mix(kv->misses());
        d.mix(server->opsServed());
        d.mix(server->majorFaults());
        d.mix(bed->serverNpfc->stats().npfs);
        d.mix(bed->serverNpfc->stats().invalidations);
        foldRecorder(d, *rec);
    }

    Fixture
    fixture()
    {
        Fixture f;
        f.eq = &bed->eq;
        f.npfc = bed->serverNpfc.get();
        f.ch = bed->serverCh;
        f.as = bed->serverAs;
        f.kv = kv.get();
        f.hotKeys = std::min<std::uint64_t>(kv->items(), 1000);
        f.keys = &slap->pool().keyModel();
        return f;
    }
};

/**
 * eth_memcached_pin: closed-loop memaslap (4 TCP connections with 4
 * requests outstanding each, 90% get, 2000 x 1 KB keys) over a pinned
 * rx ring, stack_bench's eth_pin. No NPFs at all: the TCP/Ethernet
 * fast path.
 */
class EthMemcachedPin final : public Workload
{
  public:
    EthMemcachedPin(const Spec &s, std::uint64_t seed, sim::Time window,
                    bool traced)
        : spec_(s)
    {
        EthBed::Options bo;
        bo.policy = eth::RxFaultPolicy::Pin;
        inst_ = std::make_unique<MemcachedInstance>(
            bo, host_, 64 * kMiB, 1024, sim::fromMicroseconds(5.2),
            MemaslapConfig{0.9, 2000, 4, 64}, seed,
            recorderConfig(s.warm, window, traced, 250e3), traced);
        inst_->slap->start();
    }

    ~EthMemcachedPin() override { disableAttribution(); }

    void
    warmUp() override
    {
        inst_->bed->eq.runUntil(spec_.warm);
    }

    void
    runChunk() override
    {
        sim::EventQueue &eq = inst_->bed->eq;
        eq.runUntil(eq.now() + spec_.chunk);
    }

    void beginWindow() override { inst_->begin(); }
    void outcome(Outcome &o) override { inst_->addTo(o, false); }
    void fold(Digest &d) override { inst_->fold(d); }

    std::vector<sim::EventQueue *>
    queues() override
    {
        return {&inst_->bed->eq};
    }

    Fixture fixture() override { return inst_->fixture(); }

  private:
    const Spec &spec_;
    HostModel host_;
    std::unique_ptr<MemcachedInstance> inst_;
};

/**
 * eth_wss_swap_npf: Fig. 7's NPF configuration. Two memcached
 * instances with backup-ring rx and 20 KB items share one 1 GB cgroup;
 * their working sets (100 MB and 900 MB) swap as soon as set-up ends,
 * so the measure window holds both the cold rx rings' rNPF storm
 * (backup-ring parking) and the reclaim-driven recovery (evictions,
 * MMU-notifier invalidations, major faults). There is no warm-up:
 * once the rings are warm their buffers stay hot and never fault
 * again. sim_ops_per_s counts GET hits.
 */
class EthWssSwapNpf final : public Workload
{
  public:
    static constexpr std::size_t kItemBytes = 20 * 1024;
    static constexpr std::uint64_t kSmallKeys =
        (100 * kMiB) / (kItemBytes + 64);
    static constexpr std::uint64_t kBigKeys =
        (900 * kMiB) / (kItemBytes + 64);
    /** fig07's lockstep quantum between the two instances' queues. */
    static constexpr sim::Time kQuantum = sim::kSecond / 4;

    EthWssSwapNpf(const Spec &s, std::uint64_t seed, sim::Time window,
                  bool traced)
        : spec_(s), traced_(traced), hostMm_(8ull << 30)
    {
        for (unsigned i = 0; i < 2; ++i) {
            EthBed::Options bo;
            bo.policy = eth::RxFaultPolicy::BackupRing;
            bo.rxBufBytes = 9216; // jumbo frames for 20 KB values
            bo.mss = 8948;
            bo.sharedServerMm = &hostMm_;
            bo.serverCgroup = "vms";
            bo.cgroupLimit = 1000 * kMiB;
            MemaslapConfig scfg;
            scfg.keys = i == 0 ? kSmallKeys : kBigKeys;
            scfg.window = 4;
            inst_[i] = std::make_unique<MemcachedInstance>(
                bo, host_, 950 * kMiB, kItemBytes,
                sim::fromMicroseconds(18), scfg, seed * 0x9e37 + 31 + i,
                recorderConfig(s.warm, window, traced, 60e3), traced);
        }
        for (auto &in : inst_)
            in->slap->start();
    }

    ~EthWssSwapNpf() override { disableAttribution(); }

    void
    warmUp() override
    {
        lockstep(spec_.warm);
        // The working sets swap: the measure window is the recovery.
        inst_[0]->slap->setKeys(kBigKeys);
        inst_[1]->slap->setKeys(kSmallKeys);
    }

    void
    runChunk() override
    {
        lockstep(inst_[0]->bed->eq.now() + spec_.chunk);
    }

    void
    beginWindow() override
    {
        for (auto &in : inst_)
            in->begin();
    }

    void
    outcome(Outcome &o) override
    {
        for (auto &in : inst_)
            in->addTo(o, true);
    }

    void
    fold(Digest &d) override
    {
        for (auto &in : inst_)
            in->fold(d);
        const mem::MemoryManager::Stats &ms = hostMm_.stats();
        d.mix(ms.minorFaults);
        d.mix(ms.majorFaults);
        d.mix(ms.evictions);
        d.mix(ms.swapIns);
        d.mix(ms.swapOuts);
    }

    std::vector<sim::EventQueue *>
    queues() override
    {
        return {&inst_[0]->bed->eq, &inst_[1]->bed->eq};
    }

    Fixture fixture() override { return inst_[0]->fixture(); }

  private:
    /** Advance both queues to @p until in fig07's fine lockstep. */
    void
    lockstep(sim::Time until)
    {
        sim::EventQueue &a = inst_[0]->bed->eq, &b = inst_[1]->bed->eq;
        while (a.now() < until) {
            sim::Time next = std::min(until, a.now() + kQuantum);
            for (sim::EventQueue *q : {&a, &b}) {
                if (traced_)
                    obs::attributor().setClock(q);
                q->runUntil(next);
            }
        }
    }

    const Spec &spec_;
    bool traced_;
    HostModel host_;
    mem::MemoryManager hostMm_;
    std::unique_ptr<MemcachedInstance> inst_[2];
};

/** One KV-RPC server over IB RC with an open-loop client pool. */
struct KvWorld
{
    sim::EventQueue &eq;
    net::Fabric fabric;
    mem::MemoryManager serverMm, clientMm;
    mem::AddressSpace &serverAs, &clientAs;
    core::NpfController serverNpfc, clientNpfc;
    core::ChannelId sch, cch;
    HostModel host;
    KvStore kv;
    KvRpcConfig rpc;
    KvRcServer server;
    std::vector<std::unique_ptr<ib::QueuePair>> qps;
    std::deque<KvRcTransport> transports;
    load::Recorder rec;
    load::ClientPool pool;
    std::uint64_t issued0 = 0, fail0 = 0, kvHits0 = 0, kvMisses0 = 0;

    KvWorld(sim::EventQueue &q, const load::PoolConfig &pc,
            unsigned endpoints, std::size_t memBytes,
            const load::RecorderConfig &rc)
        : eq(q),
          fabric(eq, 2,
                 net::FabricConfig{net::LinkConfig{56e9, 300, 32}, 200}),
          serverMm(memBytes), clientMm(memBytes),
          serverAs(serverMm.createAddressSpace("kv")),
          clientAs(clientMm.createAddressSpace("load")), serverNpfc(eq),
          clientNpfc(eq), sch(serverNpfc.attach(serverAs)),
          cch(clientNpfc.attach(clientAs)), kv(serverAs, memBytes / 4, 1024),
          server(eq, kv, host, serverAs, rpc), rec(rc), pool(eq, pc)
    {
        host.addInstance();
        for (std::uint64_t k = 0; k < pc.workload.keys.keys; ++k)
            kv.set(k);
        pool.setRecorder(rec);
        rec.reserveLatencyRange(0.1, 1e7);
        for (unsigned i = 0; i < endpoints; ++i) {
            auto qpS = std::make_unique<ib::QueuePair>(eq, fabric, 0,
                                                       serverNpfc, sch);
            auto qpC = std::make_unique<ib::QueuePair>(eq, fabric, 1,
                                                       clientNpfc, cch);
            qpS->connect(*qpC);
            qpC->connect(*qpS);
            auto reqs = std::make_shared<sim::RingDeque<KvRpcRequest>>();
            auto rsps = std::make_shared<sim::RingDeque<KvRpcResponse>>();
            server.addSession(*qpS, reqs, rsps);
            transports.emplace_back(*qpC, clientAs, reqs, rsps, rpc);
            transports.back().connect(pool);
            qps.push_back(std::move(qpS));
            qps.push_back(std::move(qpC));
        }
    }

    std::uint64_t
    failures() const
    {
        return pool.timeouts() + pool.giveups() + pool.shedArrivals();
    }

    void
    begin()
    {
        issued0 = pool.issued();
        fail0 = failures();
        kvHits0 = kv.hits();
        kvMisses0 = kv.misses();
    }

    void
    addTo(Outcome &o)
    {
        o.attempted += pool.issued() - issued0;
        std::uint64_t before = o.completed;
        addRecorder(o, rec);
        o.ops += o.completed - before;
        o.failed += failures() - fail0;
        o.kvHits += kv.hits() - kvHits0;
        o.kvLookups += (kv.hits() - kvHits0) + (kv.misses() - kvMisses0);
    }

    void
    fold(Digest &d)
    {
        d.mix(eq.now());
        d.mix(eq.stats().executed);
        d.mix(eq.stats().scheduled);
        d.mix(pool.issued());
        d.mix(pool.completions());
        d.mix(pool.hits());
        d.mix(failures());
        d.mix(kv.hits());
        d.mix(kv.misses());
        d.mix(server.opsServed());
        d.mix(serverNpfc.stats().npfs);
        d.mix(serverNpfc.stats().mergedNpfs);
        d.mix(clientNpfc.stats().npfs);
        foldRecorder(d, rec);
    }

    Fixture
    fixture()
    {
        Fixture f;
        f.eq = &eq;
        f.npfc = &serverNpfc;
        f.ch = sch;
        f.as = &serverAs;
        f.kv = &kv;
        f.hotKeys = std::min<std::uint64_t>(kv.items(), 1000);
        f.keys = &pool.keyModel();
        return f;
    }
};

load::PoolConfig
kvPoolConfig(const char *workload, std::uint64_t clients, double rate,
             std::uint64_t seed)
{
    std::string err;
    auto spec = load::WorkloadSpec::parse(workload, &err);
    if (!spec)
        die("bad workload spec: %s", err.c_str());
    load::PoolConfig pc;
    pc.clients = clients;
    pc.seed = seed;
    pc.workload = *spec;
    pc.workload.arrival.kind = load::ArrivalSpec::Kind::Poisson;
    pc.workload.arrival.ratePerSec = rate;
    return pc;
}

/**
 * ib_kv_openloop: open-loop Poisson KV-RPC over IB RC. 100k logical
 * clients over 64 QPs, Zipf 0.99 over 100k x 1 KB keys, 90% get, at a
 * fixed rate below saturation. Responses are zero-copy from item
 * memory, so cold items raise real send-side NPFs.
 */
class IbKvOpenloop final : public Workload
{
  public:
    static constexpr double kRate = 200e3;

    IbKvOpenloop(const Spec &s, std::uint64_t seed, sim::Time window,
                 bool traced)
        : spec_(s)
    {
        if (traced)
            enableAttribution(eq_);
        world_ = std::make_unique<KvWorld>(
            eq_,
            kvPoolConfig("keys=zipf:n=100k,theta=0.99;get=0.9", 100000,
                         kRate, seed),
            64, 2 * kGiB, recorderConfig(s.warm, window, traced, kRate));
        world_->pool.start();
    }

    ~IbKvOpenloop() override
    {
        world_.reset();
        disableAttribution();
    }

    void warmUp() override { eq_.runUntil(spec_.warm); }
    void runChunk() override { eq_.runUntil(eq_.now() + spec_.chunk); }
    void beginWindow() override { world_->begin(); }
    void outcome(Outcome &o) override { world_->addTo(o); }
    void fold(Digest &d) override { world_->fold(d); }
    std::vector<sim::EventQueue *> queues() override { return {&eq_}; }
    Fixture fixture() override { return world_->fixture(); }

  private:
    const Spec &spec_;
    sim::EventQueue eq_;
    std::unique_ptr<KvWorld> world_;
};

/**
 * Shard s's endpoint of the cross-shard RC stream ring: node s of an
 * S-node fabric facet, streaming 8 KB Sends to shard (s+1) % S over
 * the record plane while receiving from (s-1) % S (shard_scale's ring).
 */
struct StreamWorld
{
    static constexpr std::size_t kMsgBytes = 8192;
    static constexpr unsigned kRecvDepth = 16;
    static constexpr unsigned kSendWindow = 4;

    sim::EventQueue &eq;
    std::unique_ptr<net::Fabric> fabric;
    mem::MemoryManager mm;
    mem::AddressSpace &as;
    core::NpfController npfc;
    core::ChannelId ch;
    std::unique_ptr<ib::QueuePair> tx, rx;
    mem::VirtAddr sbuf = 0, rbuf = 0;
    std::uint64_t sent = 0, received = 0;

    StreamWorld(sim::EventQueue &q, sim::ShardedEngine &engine, unsigned s,
                unsigned shards)
        : eq(q), mm(256 * kMiB), as(mm.createAddressSpace("stream")),
          npfc(eq), ch(npfc.attach(as))
    {
        // Propagation + switch latency = 2.5 us of record lookahead.
        net::FabricConfig fc{net::LinkConfig{56e9, 2000, 32}, 500};
        fabric = std::make_unique<net::Fabric>(eq, shards, fc);
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
            postRecv(unsigned(received % kRecvDepth));
        });
        tx->onCompletion([this](const ib::Completion &c) {
            if (c.isRecv)
                return;
            ++sent;
            postSend(unsigned(sent % kSendWindow));
        });
        for (unsigned i = 0; i < kRecvDepth; ++i)
            postRecv(i);
        for (unsigned i = 0; i < kSendWindow; ++i)
            postSend(i);
    }

    void
    postSend(unsigned slot)
    {
        ib::WorkRequest w;
        w.op = ib::Opcode::Send;
        w.local = sbuf + slot * kMsgBytes;
        w.len = kMsgBytes;
        tx->postSend(w);
    }

    void
    postRecv(unsigned slot)
    {
        ib::WorkRequest w;
        w.local = rbuf + slot * kMsgBytes;
        w.len = kMsgBytes;
        rx->postRecv(w);
    }
};

/**
 * shard_kv_ring: sim::ShardedEngine over kShards KV worlds (2^20
 * logical clients in total) plus the cross-shard RC stream ring. The
 * worlds are fixed; only the engine's parallelism is measured.
 */
class ShardKvRing final : public Workload
{
  public:
    static constexpr unsigned kShards = 2;
    static constexpr std::uint64_t kClients = 1u << 20;
    static constexpr double kRatePerShard = 100e3;
    /** ClientPool reserves an in-flight slot per client on every
     *  endpoint, so endpoints x clients bounds the resident set. */
    static constexpr unsigned kEndpointsPerShard = 8;

    ShardKvRing(const Spec &s, std::uint64_t seed, sim::Time window,
                bool traced)
        : spec_(s), engine_(engineConfig()), worlds_(kShards)
    {
        for (unsigned sh = 0; sh < kShards; ++sh) {
            engine_.invokeOn(sh, [&, sh] {
                sim::EventQueue &q = engine_.queue(sh);
                if (traced)
                    enableAttribution(q);
                World &w = worlds_[sh];
                w.stream =
                    std::make_unique<StreamWorld>(q, engine_, sh, kShards);
                // 1k keys: the cold-item NPFs end within the warm-up,
                // so the window's p99 is the steady state's.
                w.kv = std::make_unique<KvWorld>(
                    q,
                    kvPoolConfig("keys=zipf:n=1k,theta=0.99;get=0.9",
                                 kClients / kShards, kRatePerShard,
                                 seed * 0x9e37 + sh),
                    kEndpointsPerShard, 512 * kMiB,
                    recorderConfig(s.warm, window, traced,
                                   kRatePerShard));
                w.kv->pool.start();
            });
        }
    }

    ~ShardKvRing() override
    {
        // Worlds die on the thread that built them, before the engine
        // joins its workers.
        for (unsigned sh = 0; sh < kShards; ++sh) {
            engine_.invokeOn(sh, [&, sh] {
                worlds_[sh].kv.reset();
                worlds_[sh].stream.reset();
                disableAttribution();
            });
        }
    }

    void warmUp() override { engine_.run(spec_.warm); }

    void
    runChunk() override
    {
        until_ = std::max(until_, spec_.warm) + spec_.chunk;
        engine_.run(until_);
    }

    void
    beginWindow() override
    {
        for (World &w : worlds_)
            w.kv->begin();
    }

    void
    outcome(Outcome &o) override
    {
        for (World &w : worlds_)
            w.kv->addTo(o);
    }

    void
    fold(Digest &d) override
    {
        for (unsigned sh = 0; sh < kShards; ++sh) {
            World &w = worlds_[sh];
            d.mix(std::uint64_t(sh));
            w.kv->fold(d);
            d.mix(w.stream->sent);
            d.mix(w.stream->received);
            d.mix(w.stream->tx->stats().dataPacketsSent);
            d.mix(w.stream->tx->stats().bytesDelivered);
            d.mix(w.stream->rx->stats().messagesDelivered);
            d.mix(w.stream->npfc.stats().npfs);
        }
    }

    std::vector<sim::EventQueue *>
    queues() override
    {
        std::vector<sim::EventQueue *> q;
        for (unsigned sh = 0; sh < kShards; ++sh)
            q.push_back(&engine_.queue(sh));
        return q;
    }

    void
    onOwner(unsigned q, const std::function<void()> &fn) override
    {
        engine_.invokeOn(q, fn);
    }

    unsigned threads() const override { return kShards; }
    std::uint64_t crossMsgs() const override { return engine_.posted(); }
    Fixture fixture() override { return worlds_[0].kv->fixture(); }

  private:
    struct World
    {
        std::unique_ptr<KvWorld> kv;
        std::unique_ptr<StreamWorld> stream;
    };

    static sim::ShardedEngine::Config
    engineConfig()
    {
        sim::ShardedEngine::Config ec;
        ec.shards = kShards;
        // The stream fabric's recordLookahead(): 2000 ns + 500 ns.
        ec.lookahead = 2500;
        return ec;
    }

    const Spec &spec_;
    sim::ShardedEngine engine_;
    std::vector<World> worlds_;
    sim::Time until_ = 0;
};

template <typename W>
std::unique_ptr<Workload>
make(const Spec &s, std::uint64_t seed, sim::Time window, bool traced)
{
    return std::make_unique<W>(s, seed, window, traced);
}

// Simulated chunk lengths are sized so a chunk takes tens of host
// milliseconds on a 2020s x86 core; chunksPerSecond converts --seconds
// into a fixed chunk count, so the simulated window (and every
// simulated metric) depends only on --seconds and --seed, never on how
// fast the host happens to be.
const Spec kSpecs[] = {
    {"eth_memcached_pin", 2 * sim::kSecond, 250 * sim::kMillisecond,
     14.0, 4, true, 25, make<EthMemcachedPin>},
    {"eth_wss_swap_npf", 0, 250 * sim::kMillisecond, 30.0, 4, false, 15,
     make<EthWssSwapNpf>},
    {"ib_kv_openloop", sim::kSecond, 50 * sim::kMillisecond,
     38.0, 4, false, 9, make<IbKvOpenloop>},
    {"shard_kv_ring", 200 * sim::kMillisecond, 5 * sim::kMillisecond, 54.0,
     4, false, 9, make<ShardKvRing>},
};

// --- measurement ---------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median ns per call of @p op over @p iters calls, five repetitions. */
template <typename Op>
double
timeCalls(unsigned iters, Op &&op)
{
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        auto t0 = Clock::now();
        for (unsigned i = 0; i < iters; ++i)
            op(i);
        reps.push_back(secondsSince(t0) * 1e9 / iters);
    }
    return median(reps);
}

/**
 * Per-layer call timings on the warmed world. Runs after the measure
 * window and the digest, on queue 0's thread: it perturbs the world.
 */
void
timeFixtures(Workload &w, std::map<std::string, double> &m)
{
    w.onOwner(0, [&] {
        Fixture f = w.fixture();
        constexpr unsigned kPages = 64;
        constexpr std::size_t kPage = mem::kPageSize;

        // Engine: schedule + run a no-op event among the warmed wheel's
        // pending events (all of which are due after now()).
        std::uint64_t ran = 0;
        m["sim.schedule_run_ns"] = timeCalls(1u << 16, [&](unsigned i) {
            f.eq->scheduleAfter(0, [&ran] { ++ran; });
            if ((i & 63) == 63)
                for (int k = 0; k < 64; ++k)
                    f.eq->step();
        });

        // A fresh mapped region: DMA, IOTLB and CPU-touch hit paths.
        mem::VirtAddr hot = f.as->allocRegion(kPages * kPage, "bench-hot");
        f.npfc->prefault(f.ch, hot, kPages * kPage, true);
        m["core.dma_access_ns"] = timeCalls(1u << 16, [&](unsigned i) {
            f.npfc->dmaAccess(f.ch, hot + (i % kPages) * kPage, kPage,
                              false);
        });
        iommu::IoMmu &mmu = f.npfc->iommu(f.ch);
        std::uint64_t hits = 0;
        m["iommu.iotlb_lookup_ns"] = timeCalls(1u << 18, [&](unsigned i) {
            hits += mmu.translate((hot / kPage) + i % kPages).tlbHit;
        });
        m["mem.touch_ns"] = timeCalls(1u << 16, [&](unsigned i) {
            f.as->touch(hot + (i % kPages) * kPage, 64, false);
        });

        // Synchronous NPF resolution of one fresh page per call.
        constexpr unsigned kCold = 256;
        std::vector<double> reps;
        for (int r = 0; r < 5; ++r) {
            mem::VirtAddr cold =
                f.as->allocRegion(kCold * kPage, "bench-cold");
            auto t0 = Clock::now();
            for (unsigned i = 0; i < kCold; ++i)
                f.npfc->computeResolve(f.ch, cold + i * kPage, kPage, true);
            reps.push_back(secondsSince(t0) * 1e9 / kCold);
            f.as->freeRegion(cold);
        }
        m["core.resolve_ns"] = median(reps);

        sim::Rng rng(7);
        std::uint64_t sink = 0;
        m["load.key_draw_ns"] = timeCalls(1u << 18, [&](unsigned) {
            sink += f.keys->next(rng, f.eq->now());
        });
        m["app.kv_get_ns"] = timeCalls(1u << 16, [&](unsigned i) {
            sink += f.kv->get(i % f.hotKeys).hit;
        });
        keep(sink + hits + ran);
    });
}

/** Site-label prefix -> module (the layer a per-site time belongs to). */
std::string
moduleOf(const char *site)
{
    if (site == nullptr || site[0] == '\0')
        return "(unlabeled)";
    const char *dot = std::strchr(site, '.');
    std::string head = dot ? std::string(site, dot) : std::string(site);
    if (head == "npf")
        return "core"; // npf.trigger / npf.resolve: the NPF controller
    return head;
}

bool
startsWith(const char *s, const char *prefix)
{
    return s != nullptr && std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

struct HostRun
{
    std::vector<double> chunkHost; ///< reference-CPU seconds, by chunk
    double wall = 0;               ///< unscaled wall seconds, all chunks
    unsigned threads = 1;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::uint64_t checkDigest = 0;
    std::uint64_t digest = 0;
    Outcome out;
    Counters c0, c1;
    std::uint64_t cross0 = 0, cross1 = 0;
    std::vector<std::uint64_t> shardEvents0, shardEvents1;
};

/** Events executed so far, summed over @p qs. */
std::uint64_t
eventsOf(const std::vector<sim::EventQueue *> &qs)
{
    std::uint64_t e = 0;
    for (sim::EventQueue *q : qs)
        e += q->stats().executed;
    return e;
}

/**
 * CPU speed probe: a fixed mix of binary-heap pushes and pops and
 * hash-table probes, cache-resident and branchy like the event loop
 * but sharing no code with the simulator. On a shared host the speed
 * of each CPU swings with its neighbours' load; the probe tells the
 * fast ones from the slow ones, and how slow the chosen one is right
 * now. Allocation-free after construction.
 */
class CpuProbe
{
  public:
    CpuProbe() : table_(kTable, 0) { heap_.reserve(kHeap + 1); }

    /** Wall seconds for one fixed pass. */
    double
    run()
    {
        auto t0 = Clock::now();
        std::uint64_t x = 0x2545f4914f6cdd1dull;
        for (unsigned k = 0; k < kSteps; ++k) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap_.push_back(x);
            std::push_heap(heap_.begin(), heap_.end());
            if (heap_.size() > kHeap) {
                std::pop_heap(heap_.begin(), heap_.end());
                heap_.pop_back();
            }
            table_[(x * 0x9e3779b97f4a7c15ull) >> (64 - kTableBits)] += x;
        }
        keep(table_.data());
        return secondsSince(t0);
    }

  private:
    static constexpr unsigned kTableBits = 16;
    static constexpr std::size_t kTable = std::size_t(1) << kTableBits;
    static constexpr std::size_t kHeap = 1024;
    static constexpr unsigned kSteps = 1u << 11;
    std::vector<std::uint64_t> table_;
    std::vector<std::uint64_t> heap_;
};

/**
 * The probe's pass time on the reference CPU, about its time on an
 * uncontended core of a 2020s Xeon. Host times are reported as seconds
 * of that CPU: a wall time measured on a CPU whose probe took p is
 * scaled by kRefProbeSeconds / p. The probe shares no code with the
 * simulator, so a change to the simulator moves the scaled time by the
 * same share as the wall time, while a neighbour that slows the whole
 * CPU down for a while moves it far less.
 */
constexpr double kRefProbeSeconds = 50e-6;

/**
 * Places the simulation's threads on the currently fastest CPUs of
 * the process's affinity set: before every set-up and every measure
 * chunk it probes each CPU and pins each simulation thread to a fast
 * one. Both commits of a comparison run the same placement, so times
 * measure the simulator rather than whichever neighbour shares its
 * CPU. Allocation-free after construction.
 */
class CpuPicker
{
  public:
    CpuPicker()
    {
#ifdef __linux__
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
        speed_.reserve(cpus_.size());
        ranked_.reserve(cpus_.size());
#endif
        int top = cpus_.empty() ? 0 : cpus_.back() + 1;
        time_.assign(std::size_t(top), 0.0);
        taken_.assign(std::size_t(top), false);
        assigned_.assign(kMaxThreads, -1);
    }

    /** Gives the constructing thread its whole affinity set back. */
    ~CpuPicker() { pinTo(-1); }

    CpuPicker(const CpuPicker &) = delete;
    CpuPicker &operator=(const CpuPicker &) = delete;

    /** Probe every CPU from the calling thread; fastest first. */
    const std::vector<int> &
    rank()
    {
        speed_.clear();
        for (int c : cpus_) {
            pinTo(c);
            probe_.run(); // settle on the CPU, warm the probe's cache
            speed_.push_back({std::min(probe_.run(), probe_.run()), c});
        }
        std::sort(speed_.begin(), speed_.end());
        ranked_.clear();
        for (const auto &[t, c] : speed_) {
            ranked_.push_back(c);
            time_[std::size_t(c)] = t;
        }
        return ranked_;
    }

    /** Pin the calling thread to the fastest CPU right now. */
    void
    pinFastest()
    {
        if (rank().empty())
            return;
        pinTo(ranked_.front());
        scale_ = kRefProbeSeconds / time_[std::size_t(ranked_.front())];
    }

    /**
     * Reference-CPU seconds per wall second on the CPUs chosen by the
     * last pinFastest() or place(): the probe's reference time over its
     * time on the slowest of them, the one a lockstep run waits for.
     */
    double scale() const { return scale_; }

    /**
     * Pin @p w's simulation threads to fast CPUs, one each. A thread
     * stays put while its CPU is within 25% of the fastest free one:
     * every move costs a cache refill.
     */
    void
    place(Workload &w)
    {
        if (rank().empty())
            return;
        unsigned threads = std::min(w.threads(), kMaxThreads);
        std::fill(taken_.begin(), taken_.end(), false);
        double slowest = 0;
        for (unsigned t = 0; t < threads; ++t) {
            int cpu = freeFastest();
            int cur = assigned_[t];
            if (cur >= 0 && !taken_[std::size_t(cur)] &&
                time_[std::size_t(cur)] <= 1.25 * time_[std::size_t(cpu)])
                cpu = cur;
            taken_[std::size_t(cpu)] = true;
            assigned_[t] = cpu;
            slowest = std::max(slowest, time_[std::size_t(cpu)]);
            w.onOwner(t, [this, cpu] { pinTo(cpu); });
        }
        scale_ = kRefProbeSeconds / slowest;
        // A sharded run's controlling thread mostly sleeps; keep it
        // off the workers' CPUs when there is one to spare.
        if (threads > 1)
            pinTo(freeFastest());
    }

    /** Pin the calling thread to @p cpu, or to every allowed CPU
     *  when @p cpu < 0 (no-op off Linux). */
    void
    pinTo(int cpu) const
    {
#ifdef __linux__
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int c : cpus_)
            if (cpu < 0 || c == cpu)
                CPU_SET(c, &set);
        (void)sched_setaffinity(0, sizeof set, &set);
#else
        (void)cpu;
#endif
    }

  private:
    static constexpr unsigned kMaxThreads = 64;

    /** Fastest CPU no thread took yet (the fastest if all are taken). */
    int
    freeFastest() const
    {
        for (int c : ranked_)
            if (!taken_[std::size_t(c)])
                return c;
        return ranked_.front();
    }

    std::vector<int> cpus_;
    std::vector<std::pair<double, int>> speed_;
    std::vector<int> ranked_;
    std::vector<double> time_;  ///< last probe time, by CPU number
    std::vector<bool> taken_;   ///< CPU already holds a thread
    std::vector<int> assigned_; ///< CPU of each simulation thread
    double scale_ = 1.0;
    CpuProbe probe_;
};

std::vector<std::uint64_t>
perQueueEvents(Workload &w)
{
    std::vector<std::uint64_t> v;
    for (sim::EventQueue *q : w.queues())
        v.push_back(q->stats().executed);
    return v;
}

/** Warm @p w up and run its measure window, chunk by chunk. */
HostRun
measure(Workload &w, const Spec &spec, unsigned chunks, CpuPicker &picker)
{
    HostRun r;
    r.threads = w.threads();
    r.chunkHost.reserve(chunks); // no allocation inside the window
    picker.place(w);
    w.warmUp();
    w.beginWindow();
    r.c0 = w.counters();
    r.cross0 = w.crossMsgs();
    r.shardEvents0 = perQueueEvents(w);
    std::vector<sim::EventQueue *> qs = w.queues();
    std::uint64_t ev0 = eventsOf(qs);
    std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    for (unsigned c = 0; c < chunks; ++c) {
        picker.place(w);
        auto t0 = Clock::now();
        w.runChunk();
        double s = secondsSince(t0);
        r.wall += s;
        r.chunkHost.push_back(s * picker.scale());
        if (c + 1 == spec.checkChunks) {
            Digest d;
            w.fold(d);
            r.checkDigest = d.h;
        }
    }
    r.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    r.events = eventsOf(qs) - ev0;
    r.c1 = w.counters();
    r.cross1 = w.crossMsgs();
    r.shardEvents1 = perQueueEvents(w);
    w.outcome(r.out);
    Digest d;
    w.fold(d);
    r.digest = d.h;
    return r;
}

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::string m = line.substr(colon + 1);
                m.erase(0, m.find_first_not_of(' '));
                return m;
            }
        }
    }
    return "unknown";
}

/** JSON string literal (escapes quotes, backslashes, control chars). */
std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o.push_back('\\');
            o.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            o.push_back(' ');
        } else {
            o.push_back(c);
        }
    }
    return o + "\"";
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

using Metrics = std::map<std::string, double>;

/**
 * Per-layer metrics read from the untraced run's counters; @p hostSeconds
 * is the window's host time in reference-CPU seconds (see main()).
 */
void
layerCounters(const HostRun &host, double hostSeconds, Metrics &m)
{
    const Outcome &o = host.out;
    m["sim.events"] = double(host.events);
    m["sim.ns_per_event"] = hostSeconds * 1e9 / double(host.events);
    m["sim.steady_allocs"] = double(host.allocs);
    m["fail_frac"] = o.attempted == 0
                         ? 0.0
                         : double(o.failed) / double(o.attempted);
    const Counters &c0 = host.c0, &c1 = host.c1;
    auto d = [&](const char *k) { return delta(c0, c1, k); };
    m["load.issued"] = d("load.pool.issued");
    m["load.shed"] = d("load.pool.shed_arrivals");
    m["ib.packets"] = d("ib.qp.data_packets_sent");
    m["ib.retransmitted"] = d("ib.qp.retransmitted");
    m["ib.rnr_nacks"] = d("ib.qp.rnr_nacks_sent");
    m["ib.send_npfs"] = d("ib.qp.send_npfs");
    m["net.link_deliveries"] = d("net.link.packets");
    m["tcp.segments"] = d("tcp.conn.segments_sent");
    m["tcp.retransmits"] = d("tcp.conn.retransmissions");
    m["eth.rx_frames"] = d("eth.nic.frames_received");
    m["eth.backup_parked"] = d("eth.backup.parked");
    m["eth.rx_drops"] =
        d("eth.nic.ring.dropped") + d("eth.backup.overflow_drops");
    double npfs = d("core.npf.npfs"), merged = d("core.npf.merged_npfs");
    m["core.npfs"] = npfs;
    m["core.merged_frac"] =
        npfs + merged == 0 ? 0.0 : merged / (npfs + merged);
    double th = d("iommu.mmu.tlb_hits"), tm = d("iommu.mmu.tlb_misses");
    m["iommu.iotlb_hit_frac"] = th + tm == 0 ? 0.0 : th / (th + tm);
    // MMU-notifier invalidations the NPF controller pushed through
    // its IOMMUs (reclaim of device-visible pages).
    m["iommu.invalidations"] = d("core.npf.invalidations");
    m["mem.minor_faults"] = d("mem.mm.minor_faults");
    m["mem.major_faults"] = d("mem.mm.major_faults");
    m["mem.evictions"] = d("mem.mm.evictions");
    m["app.kv_hit_frac"] =
        o.kvLookups == 0 ? 0.0 : double(o.kvHits) / double(o.kvLookups);
    m["shard.cross_msgs"] = double(host.cross1 - host.cross0);
    double evMax = 0, evSum = 0;
    for (std::size_t q = 0; q < host.shardEvents1.size(); ++q) {
        double e = double(host.shardEvents1[q] - host.shardEvents0[q]);
        evMax = std::max(evMax, e);
        evSum += e;
    }
    std::size_t nq = host.shardEvents1.size();
    m["shard.events_max_over_mean"] =
        host.threads > 1 && evSum > 0 ? evMax / (evSum / double(nq)) : 1.0;
}

/**
 * Per-layer metrics of a traced run: a fresh world with the profiler
 * and the attributor on from set-up, run through the same window.
 * @return false when it does not reproduce the untraced digest.
 */
bool
tracedRun(const Spec &spec, std::uint64_t seed, sim::Time window,
          unsigned chunks, const HostRun &host, CpuPicker &picker,
          Metrics &m)
{
    std::unique_ptr<Workload> w = spec.build(spec, seed, window, true);
    picker.place(*w);
    w->warmUp();
    w->beginWindow();
    std::vector<sim::EventQueue *> qs = w->queues();
    for (sim::EventQueue *q : qs) {
        q->clearProfile();
        q->enableProfile(true);
    }
    double tracedWall = 0, tracedHost = 0;
    for (unsigned c = 0; c < chunks; ++c) {
        picker.place(*w);
        auto t0 = Clock::now();
        w->runChunk();
        double s = secondsSince(t0);
        tracedWall += s;
        tracedHost += s * picker.scale();
    }
    for (sim::EventQueue *q : qs)
        q->enableProfile(false);
    Outcome to;
    w->outcome(to);
    Digest td;
    w->fold(td);

    std::map<std::string, double> siteNs;
    double selfNs = 0, all = 0, unlabeled = 0, fabricEvents = 0;
    for (sim::EventQueue *q : qs) {
        for (const auto &[site, sp] : q->siteProfiles()) {
            siteNs[moduleOf(site)] += double(sp.wallNs);
            selfNs += double(sp.wallNs);
            all += double(sp.count);
            if (site == nullptr || site[0] == '\0')
                unlabeled += double(sp.count);
            if (startsWith(site, "net.fabric."))
                fabricEvents += double(sp.count);
        }
    }
    double perOp = to.completed == 0 ? 0.0 : 1.0 / double(to.completed);
    for (const char *mod : {"load", "ib", "net", "tcp", "eth", "core",
                            "app"})
        m[std::string(mod) + ".site_ns"] = siteNs[mod] * perOp;
    m["net.fabric_packets"] = fabricEvents;
    double busy = selfNs / (double(w->threads()) * tracedWall * 1e9);
    m["shard.busy_frac"] = busy;
    m["trace.explained_frac"] = busy;
    m["trace.unlabeled_frac"] = all == 0 ? 0.0 : unlabeled / all;
    // Against one untraced replica's window, run the same way.
    double untracedHost = 0;
    for (double s : host.chunkHost)
        untracedHost += s;
    m["trace.overhead_frac"] = tracedHost / untracedHost - 1.0;

    // Mean simulated wait per request in each attribution phase.
    double n = double(to.breakdowns.size());
    auto phaseUs = [&](obs::Phase p) {
        double s = 0;
        for (const obs::PhaseBreakdown &b : to.breakdowns)
            s += double(b.ns[unsigned(p)]);
        return n == 0 ? 0.0 : s / n / 1e3;
    };
    m["attr.queue_us"] = phaseUs(obs::Phase::Queue);
    m["attr.npf_driver_us"] = phaseUs(obs::Phase::NpfDriver);
    m["attr.rnr_backoff_us"] = phaseUs(obs::Phase::RnrBackoff);
    m["attr.retransmit_us"] = phaseUs(obs::Phase::Retransmit);

    timeFixtures(*w, m);
    return td.h == host.digest;
}

#ifdef __clang__
const char *const kCompiler = "clang " __VERSION__;
#else
const char *const kCompiler = "gcc " __VERSION__;
#endif

struct Args
{
    const Spec *spec = nullptr;
    std::uint64_t seed = 0;
    bool haveSeed = false;
    double seconds = 0;
    bool trace = false;
    bool haveTrace = false;
    bool checkOnly = false;
};

bool
parseU64(const char *s, std::uint64_t *out)
{
    if (*s < '0' || *s > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    *out = v;
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--check-only") {
            a.checkOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            die("missing value for %s", flag.c_str());
        const char *v = argv[++i];
        if (flag == "--workload") {
            for (const Spec &s : kSpecs)
                if (std::strcmp(s.name, v) == 0)
                    a.spec = &s;
            if (a.spec == nullptr)
                die("unknown workload: %s", v);
        } else if (flag == "--seed") {
            if (!parseU64(v, &a.seed))
                die("bad --seed: %s", v);
            a.haveSeed = true;
        } else if (flag == "--seconds") {
            std::uint64_t s = 0;
            if (!parseU64(v, &s) || s < 1 || s > 3600)
                die("bad --seconds (whole number 1..3600): %s", v);
            a.seconds = double(s);
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                die("bad --trace (0 or 1): %s", v);
            a.trace = v[0] == '1';
            a.haveTrace = true;
        } else {
            die("unknown flag: %s", flag.c_str());
        }
    }
    if (a.spec == nullptr || !a.haveSeed)
        die("%s", "--workload and --seed are required");
    if (!a.checkOnly && (a.seconds == 0 || !a.haveTrace))
        die("%s", "--seconds and --trace are required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const Spec &spec = *args.spec;

#ifdef __GLIBC__
    // A fixed mmap threshold. By default glibc raises it when a large
    // block is freed, so a rebuilt world's big arrays come from warm
    // heap pages in some builds and from fresh pages in others, and
    // set-up time splits into two modes (3 ms and 9 ms on
    // eth_memcached_pin). Fixed, every build's large arrays are fresh,
    // page-faulted pages, as in a new process.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif

    if (args.checkOnly) {
        // A full run's window is at least one chunk longer than the
        // checkpoint; so is this one, or completions landing exactly
        // on the checkpoint would fall outside the recorder's window.
        std::unique_ptr<Workload> w = spec.build(
            spec, args.seed, (spec.checkChunks + 1) * spec.chunk, false);
        CpuPicker picker;
        HostRun r = measure(*w, spec, spec.checkChunks, picker);
        std::printf("{\"check_digest\": \"%016" PRIx64 "\"}\n",
                    r.checkDigest);
        return 0;
    }

    // --seconds of host time is split over kReplicas windows.
    unsigned chunks = std::max(
        spec.checkChunks + 1,
        unsigned(std::lround(args.seconds * spec.chunksPerSecond /
                             kReplicas)));
    sim::Time window = sim::Time(chunks) * spec.chunk;

    // Set-up: spec.builds builds, each timed up to the first warm-up
    // event; their median is setup_s. The last kReplicas builds are
    // measured, one after another, through the same window. Host times
    // are in reference-CPU seconds (kRefProbeSeconds). Each replica
    // executes exactly the same events, chunk by chunk, so the
    // interference the probe misses, which only ever slows a chunk
    // down, is filtered per chunk: the window's host time is the sum
    // over its chunks of the fastest replica's time for that chunk.
    // Every chunk counts at its own cost, so a change confined to one
    // phase of the window (an NPF storm, a recovery) moves it in
    // proportion.
    std::vector<double> setups;
    std::vector<double> bestHost(chunks, HUGE_VAL);
    std::vector<std::string> problems;
    HostRun host;
    CpuPicker picker;
    for (unsigned b = 0; b < spec.builds; ++b) {
        picker.pinFastest();
        auto t0 = Clock::now();
        std::unique_ptr<Workload> w =
            spec.build(spec, args.seed, window, false);
        setups.push_back(secondsSince(t0) * picker.scale());
        if (b + kReplicas < spec.builds)
            continue;
        HostRun r = measure(*w, spec, chunks, picker);
        for (unsigned c = 0; c < chunks; ++c)
            bestHost[c] = std::min(bestHost[c], r.chunkHost[c]);
        if (b + kReplicas > spec.builds && r.digest != host.digest)
            problems.push_back("replica worlds diverged");
        r.allocs = std::max(r.allocs, host.allocs);
        host = std::move(r);
    }
    double windowSim = sim::toSeconds(window);
    double hostSeconds = 0;
    for (double s : bestHost)
        hostSeconds += s;
    const Outcome &o = host.out;

    if (spec.allocGate && host.allocs != 0)
        problems.push_back("allocations in the measure window: " +
                           std::to_string(host.allocs));
    if (o.completed == 0)
        problems.push_back("no request completed");

    Metrics m;
    if (!args.trace) {
        m["setup_s"] = median(setups);
        m["sim_s_per_wall_s"] = windowSim / hostSeconds;
        m["peak_rss_mb"] = peakRssMiB();
        m["sim_ops_per_s"] = double(o.ops) / windowSim;
        m["sim_p50_us"] = o.latency.percentile(50);
        m["sim_p99_us"] = o.latency.percentile(99);
        m["ok_frac"] = o.attempted == 0
                           ? 0.0
                           : double(o.attempted - std::min(o.failed,
                                                           o.attempted)) /
                                 double(o.attempted);
    } else {
        layerCounters(host, hostSeconds, m);
        if (!tracedRun(spec, args.seed, window, chunks, host, picker, m))
            problems.push_back("traced run diverged from the untraced run");
    }

    // Human-readable summary, then the machine-readable last line.
    std::printf("workload=%s seed=%" PRIu64 " chunks=%u window_sim_s=%.3f "
                "window_host_s=%.4f last_replica_wall_s=%.4f "
                "latency_samples=%" PRIu64 " events=%" PRIu64
                " check_digest=%016" PRIx64 " digest=%016" PRIx64 "\n",
                spec.name, args.seed, chunks, windowSim, hostSeconds,
                host.wall, o.latency.count(), host.events, host.checkDigest,
                host.digest);
    for (const std::string &p : problems)
        std::printf("FAIL: %s\n", p.c_str());

    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::string js = "{\"correct\": ";
    js += problems.empty() ? "true" : "false";
    js += ", \"attempted\": " + std::to_string(o.attempted);
    js += ", \"failed\": " + std::to_string(o.failed);
    js += ", \"check_digest\": \"";
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, host.checkDigest);
    js += hex;
    js += "\", \"digest\": \"";
    std::snprintf(hex, sizeof hex, "%016" PRIx64, host.digest);
    js += hex;
    js += "\", \"latency_samples\": " + std::to_string(o.latency.count());
    js += ", \"stamp\": {\"nproc\": " + std::to_string(nproc) +
          ", \"cpu\": " + jsonStr(cpuModel()) +
          ", \"compiler\": " + jsonStr(kCompiler) +
          ", \"build_type\": " + jsonStr(NPFBENCH_BUILD_TYPE) +
          ", \"seed\": " + std::to_string(args.seed) + "}";
    js += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : m) {
        if (!first)
            js += ", ";
        first = false;
        js += jsonStr(name) + ": " + jsonNum(value);
    }
    js += "}}";
    std::printf("%s\n", js.c_str());
    return 0;
}
