/**
 * @file
 * The paper's running example (§5): a memcached server inside a
 * lightweight VM, driven by memaslap (90% get / 10% set, 1 KB values
 * by default) over a direct Ethernet channel with a user-level TCP
 * stack.
 */

#ifndef NPF_APP_MEMCACHED_HH
#define NPF_APP_MEMCACHED_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "app/host_model.hh"
#include "app/kv_store.hh"
#include "load/client_pool.hh"
#include "sim/random.hh"
#include "sim/series.hh"
#include "tcp/endpoint.hh"

namespace npf::app {

/**
 * Both directions of one client<->server TCP connection, with
 * message framing (the metadata travels out-of-band; see
 * tcp::MessageStream).
 */
struct RpcChannel
{
    tcp::TcpConnection &client;
    tcp::TcpConnection &server;
    tcp::MessageStream request;  ///< client -> server
    tcp::MessageStream response; ///< server -> client

    RpcChannel(tcp::TcpConnection &cli, tcp::TcpConnection &srv)
        : client(cli), server(srv), request(cli, srv), response(srv, cli)
    {
    }
};

/** Server-side parameters. */
struct MemcachedConfig
{
    std::size_t valueBytes = 1024;
    /** Per-request CPU (parse, hash, LRU). Calibrated so a single
     *  uncontended instance serves ~186 KTPS (Table 5). */
    sim::Time baseOpCpu = sim::fromMicroseconds(5.2);
};

/** Wire size of a memcached miss reply or SET ack. */
inline constexpr std::size_t kMissReplyBytes = 64;

/**
 * memcached: decodes requests from RpcChannels, runs them through
 * the KvStore on a single serialized "worker core", replies with the
 * value (GET hit) or a small status (miss / SET ack).
 *
 * Cookies encode (op, key); bit 63 of the response cookie reports a
 * hit. Bits 48..61 are ignored by the server and echoed back — load
 * generators stash a request serial there (see ChannelTransport).
 */
class MemcachedServer
{
  public:
    static constexpr std::uint64_t kOpSet = 1ull << 62;
    static constexpr std::uint64_t kHitFlag = 1ull << 63;
    static constexpr std::uint64_t kKeyMask = (1ull << 48) - 1;

    MemcachedServer(sim::EventQueue &eq, KvStore &store, HostModel &host,
                    MemcachedConfig cfg = {});

    /** Attach one client connection. */
    void serve(RpcChannel &ch);

    std::uint64_t opsServed() const { return ops_; }
    std::uint64_t majorFaults() const { return majorFaults_; }

  private:
    void handleRequest(RpcChannel &ch, std::uint64_t cookie);

    sim::EventQueue &eq_;
    KvStore &store_;
    HostModel &host_;
    MemcachedConfig cfg_;
    sim::Time busyUntil_ = 0;
    std::uint64_t ops_ = 0;
    std::uint64_t majorFaults_ = 0;
    int attrLane_ = -1; ///< server-core lane (shared by all channels)
};

/**
 * load::Transport adapter for one RpcChannel: requests carry
 * (key | op | serial<<48) in the cookie; the server echoes the
 * cookie, so the response handler recovers the serial and the hit
 * flag and feeds the pool.
 */
class ChannelTransport final : public load::Transport
{
  public:
    static constexpr unsigned kSerialShift = 48;

    explicit ChannelTransport(RpcChannel &ch) : ch_(ch) {}

    /** Register as a pool endpoint and install the response hook. */
    void
    connect(load::ClientPool &pool)
    {
        pool_ = &pool;
        ep_ = pool.addEndpoint(*this, ch_.client.attrLane());
        ch_.response.onMessage(
            [this](std::uint64_t cookie, std::size_t /*len*/) {
                pool_->complete(
                    ep_,
                    std::uint32_t(cookie >> kSerialShift) &
                        load::ClientPool::kSerialMask,
                    (cookie & MemcachedServer::kHitFlag) != 0);
            });
    }

    void
    issue(std::uint32_t serial, std::uint64_t key, bool is_set,
          std::size_t bytes) override
    {
        std::uint64_t cookie =
            key | (std::uint64_t(serial) << kSerialShift);
        if (is_set)
            cookie |= MemcachedServer::kOpSet;
        ch_.request.sendMessage(bytes, 0, cookie);
    }

  private:
    RpcChannel &ch_;
    load::ClientPool *pool_ = nullptr;
    unsigned ep_ = 0;
};

/** Load-generator parameters (memaslap defaults from the paper). */
struct MemaslapConfig
{
    double getRatio = 0.9;
    std::uint64_t keys = 1000;  ///< working-set size in items
    unsigned window = 4;        ///< outstanding requests per channel
    std::size_t requestBytes = 64;
};

/**
 * memaslap: the paper's closed-loop generator, now a thin preset
 * over load::ClientPool — window*channels logical clients, uniform
 * keys, zero think time (the pool re-issues inline on completion, so
 * the event interleaving matches the original generator exactly).
 * Counts transactions and hits; optionally records a rate series
 * (for the throughput-versus-time figures).
 */
class Memaslap
{
  public:
    Memaslap(sim::EventQueue &eq, std::vector<RpcChannel *> channels,
             MemaslapConfig cfg, std::uint64_t seed = 99);

    /** Begin issuing requests (channels must be established). */
    void start() { pool_.start(); }

    /** Change the working set (Fig. 7's dynamic experiment). */
    void setKeys(std::uint64_t keys) { pool_.keyModel().setKeys(keys); }

    /** Attach a per-transaction rate recorder. */
    void recordInto(sim::RateSeries *tps, sim::RateSeries *hps)
    {
        pool_.attachRateSeries(tps, hps);
    }

    std::uint64_t transactions() const { return pool_.completions(); }
    std::uint64_t hits() const { return pool_.hits(); }

    /** Reset counters (e.g. after warm-up). */
    void resetCounters() { pool_.resetCounters(); }

    /** The underlying pool (recorder attachment, counters). */
    load::ClientPool &pool() { return pool_; }

  private:
    static load::PoolConfig poolConfig(const MemaslapConfig &cfg,
                                       std::size_t channels,
                                       std::uint64_t seed);

    load::ClientPool pool_;
    std::deque<ChannelTransport> transports_; ///< stable addresses
};

} // namespace npf::app

#endif // NPF_APP_MEMCACHED_HH
