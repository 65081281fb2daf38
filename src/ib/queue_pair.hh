/**
 * @file
 * Reliable-connection (RC) queue pair with network-page-fault
 * support, modeling the paper's modified Connect-IB firmware (§4):
 *
 *  - send-side NPFs stall the sender until resolution (local data);
 *  - receive NPFs on Send/RDMA-Write trigger an RNR NACK that
 *    suspends the remote sender for a timer, after which it rewinds
 *    to the faulting PSN and retransmits;
 *  - RDMA-read responses cannot be RNR-NACKed (no standard support),
 *    so the faulting initiator drops everything and requests a
 *    rewind (NAK-sequence) only after the fault is resolved;
 *  - reliability comes from PSN sequencing + cumulative ACKs;
 *    packet loss is decoupled from congestion control, exactly as in
 *    InfiniBand.
 */

#ifndef NPF_IB_QUEUE_PAIR_HH
#define NPF_IB_QUEUE_PAIR_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "core/npf_controller.hh"
#include "ib/verbs.hh"
#include "net/dcqcn.hh"
#include "net/fabric.hh"
#include "obs/flow_tracer.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/ring_deque.hh"

namespace npf::ib {

/** Fixed queue-pair parameters. */
struct QpParams
{
    unsigned maxOutstandingWrs = 16;     ///< send window, in WRs
    unsigned ackEvery = 32;              ///< coalesced ACK interval
    sim::Time retransmitTimeout =        ///< backstop rewind timer
        sim::fromMicroseconds(4000);
    std::size_t controlBytes = 16;       ///< ACK/NACK wire size
};

/** Every queue pair's fixed parameters. */
inline constexpr QpParams kQp{};

/** Queue-pair parameters. */
struct QpConfig
{
    std::size_t pathMtu = 4096;          ///< bytes per data packet
    unsigned rnrRetryLimit = 1000;       ///< before erroring the WR

    /** §6.4 what-if: per-data-packet synthetic rNPF probability. */
    double syntheticRnpfProb = 0.0;
    /** Synthetic faults are major (swap-backed) faults. */
    bool syntheticMajor = false;

    /**
     * The paper's proposed RC extension (§4): let a faulting
     * RDMA-read *initiator* suspend the responder with a read-RNR
     * NACK instead of dropping the whole response stream and asking
     * for a rewind after resolution. Off by default (standard RC).
     */
    bool readRnrExtension = false;

    /**
     * While an rNPF resolves, assert PFC toward this host
     * (Fabric::setHostRxPause) in addition to the RNR NACK: the NIC
     * backpressures the last-hop switch instead of silently dropping
     * the retry traffic. This is the coupling the paper warns about —
     * an NPF stall becomes a fabric pause storm. Topology mode only.
     */
    bool pauseOnRnpf = false;

    /** DCQCN-style end-host rate limiting, driven by CNPs that the
     *  destination QP emits when packets arrive CE-marked. */
    bool dcqcn = false;
};

/**
 * One side of an RC connection. Create two, then connect() them.
 *
 * DMA accesses go through the owning NpfController channel, so cold
 * buffers genuinely fault and resolve through the full NPF flow.
 *
 * On a topology-mode fabric, data packets ride traffic class 0 and
 * control packets net::kControlPriority, so NACKs and CNPs escape the
 * congestion they report (net/pfc.hh).
 */
class QueuePair
{
  public:
    using CompletionHandler = std::function<void(const Completion &)>;

    struct Stats
    {
        std::uint64_t dataPacketsSent = 0;
        std::uint64_t dataPacketsDelivered = 0;
        std::uint64_t dataPacketsDropped = 0;
        std::uint64_t retransmitted = 0;
        std::uint64_t rnrNacksSent = 0;
        std::uint64_t rnrNacksReceived = 0;
        std::uint64_t nakSeqSent = 0;
        std::uint64_t readRnrSent = 0;     ///< extension (§4 proposal)
        std::uint64_t readRnrReceived = 0;
        std::uint64_t rewinds = 0;
        std::uint64_t sendNpfs = 0;   ///< local (sender-side) faults
        std::uint64_t recvNpfs = 0;   ///< rNPFs (incl. synthetic)
        std::uint64_t messagesDelivered = 0;
        std::uint64_t bytesDelivered = 0;
        std::uint64_t cnpsSent = 0;     ///< ECN marks notified back
        std::uint64_t cnpsReceived = 0; ///< rate-limiter activations
    };

    QueuePair(sim::EventQueue &eq, net::Fabric &fabric, unsigned node,
              core::NpfController &npfc, core::ChannelId channel,
              QpConfig cfg = {}, std::uint64_t seed = 7);

    /** Wire this QP to its remote peer (call on both sides). */
    void
    connect(QueuePair &peer)
    {
        peer_ = &peer;
        peerNode_ = peer.node_;
    }

    /** The connected remote peer (nullptr before connect()). */
    QueuePair *peer() { return peer_; }

    /**
     * Wire this QP to a peer it cannot hold a pointer to — one owned
     * by another shard. Packets travel the fabric's record plane
     * (serializable net::WireRecord instead of delivery closures):
     * this QP binds (node, @p my_kind) for its inbound packets and
     * addresses outbound ones to (@p peer_node, @p peer_kind). The
     * two sides' calls must mirror each other, one ordered pair per
     * (node, kind). Requires a legacy-mode fabric. Both planes share
     * the wire timing and the fault dice, so a record-connected pair
     * observes exactly what a pointer-connected one does (the same
     * completions at the same times, the same stats); it executes one
     * event fewer per packet, since the record plane has no separate
     * uplink-arrival event (tests/ib_test.cc pins both).
     */
    void connectRemote(unsigned peer_node, std::uint32_t my_kind,
                       std::uint32_t peer_kind);

    /** True when connected via the record plane. */
    bool remote() const { return remote_; }

    /**
     * obs::Attributor lane this QP's blocking phases (send NPF, rNPF
     * resolution, RNR backoff, retransmit rewinds) are charged to.
     * Both QPs of one session conventionally share a lane, so the
     * client's breakdown sees server-side faults too. -1 = off.
     */
    void setAttrLane(int lane) { attrLane_ = lane; }
    int attrLane() const { return attrLane_; }

    /** Post a send/RDMA work request. On a QP in the error state it
     *  completes with ok = false, in a zero-delay event of its own. */
    void postSend(WorkRequest wr);

    /** Post a receive buffer (consumed by remote Sends, in order). */
    void postRecv(WorkRequest wr);

    /** Completion callback (both send and receive completions). */
    void onCompletion(CompletionHandler h) { completionHandler_ = std::move(h); }

    const Stats &stats() const { return stats_; }
    unsigned node() const { return node_; }
    core::ChannelId channel() const { return channel_; }
    core::NpfController &controller() { return npfc_; }

    /** True after a fatal QP error (RNR retries exhausted). */
    bool inError() const { return error_; }

  private:
    /** One wire packet. */
    struct Packet
    {
        enum class Type {
            Data,         ///< Send / RDMA-Write payload
            ReadRequest,  ///< initiator -> responder
            ReadResponse, ///< responder -> initiator payload
            Ack,          ///< cumulative data ACK
            RnrNack,      ///< receiver-not-ready, carries resume PSN
            NakSeq,       ///< rewind request (read-response recovery)
            ReadRnr,      ///< extension: suspend the read responder
            Cnp,          ///< congestion notification (DCQCN)
        };

        Type type = Type::Data;
        Opcode op = Opcode::Send;
        std::uint64_t psn = 0;      ///< data/read-response sequencing
        std::size_t bytes = 0;      ///< payload length
        std::size_t offset = 0;     ///< offset within the message
        std::size_t msgLen = 0;     ///< total message length
        bool firstOfMsg = false;
        bool lastOfMsg = false;
        mem::VirtAddr remoteAddr = 0;
        std::uint64_t wrId = 0;
        std::uint64_t ackPsn = 0;   ///< for Ack: highest in-order PSN
        std::uint64_t readId = 0;   ///< read stream identifier
    };

    /** A transmitted-but-unacked work request. */
    struct InflightWr
    {
        WorkRequest wr;
        std::uint64_t firstPsn = 0;
        std::uint64_t lastPsn = 0;
        bool fullySent = false;
    };

    /** An in-progress inbound message (Send or RDMA-Write). */
    struct InboundMsg
    {
        bool active = false;
        Opcode op = Opcode::Send;
        mem::VirtAddr base = 0; ///< DMA destination base
        std::size_t len = 0;
        std::size_t received = 0;
        std::uint64_t wrId = 0; ///< recv WQE id for Send
    };

    /** Responder-side state for one RDMA read. */
    struct ReadResponderState
    {
        bool active = false;
        mem::VirtAddr base = 0;
        std::size_t len = 0;
        std::uint64_t readId = 0;
        std::uint64_t nextPsn = 0;  ///< next response PSN to emit
        std::uint64_t limitPsn = 0; ///< one past last response PSN
        bool paused = false;        ///< local fault being resolved
    };

    /** Initiator-side state for one outstanding RDMA read. */
    struct ReadInitiatorState
    {
        bool active = false;
        WorkRequest wr;
        std::uint64_t readId = 0;
        std::uint64_t requestPsn = 0; ///< the read request's PSN
        std::uint64_t expectedPsn = 0;
        std::uint64_t limitPsn = 0;
        bool faultPending = false;
    };

    // --- transmit machinery (data direction: this -> peer) -----------
    void pumpSend();
    void transmitOne();
    std::optional<Packet> buildPacketAt(std::uint64_t psn);
    void armRetransmitTimer();
    void handleAck(std::uint64_t ackPsn);
    void handleRnrNack(std::uint64_t resumePsn);
    void sendControl(Packet pkt);
    /** Put @p pkt on the wire to the peer as @p bytes at @p priority:
     *  a record on the record plane in remote mode, else a delivery
     *  closure through the fabric. */
    void sendPacket(const Packet &pkt, std::size_t bytes,
                    unsigned priority);

    // --- receive machinery -------------------------------------------
    void handlePacket(Packet pkt);
    void processPacket(Packet pkt);
    void handleData(const Packet &pkt);
    void handleReadResponse(const Packet &pkt);
    void deliverCompletion(Completion c);
    /** Complete @p wr with an error (a fatal QP error's flush). */
    void flushWithError(const WorkRequest &wr);
    void raiseRnpf(mem::VirtAddr addr, std::size_t len, std::uint64_t psn);
    void maybeAck(bool force);

    // --- DCQCN -------------------------------------------------------
    std::uint32_t flowLabel() const;
    /** Notification point: the destination saw a CE mark. */
    void maybeSendCnp();
    /** Reaction point: a CNP arrived from the destination. */
    void dcqcnOnCnp();
    void armDcqcnTimers();
    /** Pacing gate: wire availability, plus the DCQCN rate limiter
     *  when it is active. */
    sim::Time nextTxTime(std::size_t bytes);

    // --- read responder stream ----------------------------------------
    void pumpReadResponse();
    void startRead(const Packet &req);
    /** Initiator: once the read request is acked, nothing else times
     *  the response stream, so a lost response would stall the read
     *  (and every later one on the QP) for good. A period without
     *  progress asks the responder to rewind to expectedPsn. */
    void armReadTimer();
    void sendNakSeq();

    sim::EventQueue &eq_;
    net::Fabric &fabric_;
    unsigned node_;
    core::NpfController &npfc_;
    core::ChannelId channel_;
    QpConfig cfg_;
    sim::Rng rng_;
    QueuePair *peer_ = nullptr;
    unsigned peerNode_ = 0;    ///< valid once connected (either way)
    std::uint32_t txKind_ = 0; ///< peer's bindRx demux key
    bool remote_ = false;      ///< record-plane connection
    CompletionHandler completionHandler_;
    Stats stats_;
    int attrLane_ = -1; ///< attribution lane (-1 = off)

    // sender: WR records live in flat rings that grow to the window's
    // high-water mark once and are then recycled allocation-free.
    sim::RingDeque<WorkRequest> sendQueue_; ///< not yet assigned PSNs
    sim::RingDeque<InflightWr> inflight_;   ///< PSN-assigned, unacked
    std::uint64_t nextPsn_ = 0;         ///< next PSN to allocate
    std::uint64_t txPsn_ = 0;           ///< next PSN to transmit
    std::uint64_t highestTxPsn_ = 0;    ///< one past highest ever sent
    std::uint64_t ackedPsn_ = 0;        ///< all PSNs below are acked
    std::uint64_t ackedAtArm_ = 0;      ///< progress marker for timer
    bool txScheduled_ = false;
    bool senderPaused_ = false;         ///< RNR backoff in effect
    bool localFaultPending_ = false;    ///< send-side NPF resolving
    bool error_ = false;                ///< fatal QP error state
    unsigned rnrRetries_ = 0;
    sim::EventId retransmitTimer_ = sim::kInvalidEvent;

    // receiver
    sim::RingDeque<WorkRequest> recvQueue_;
    std::uint64_t expectedPsn_ = 0;
    bool rnpfPending_ = false; ///< resolution in progress; drop inbound
    obs::FlowId rnpfFlow_ = 0; ///< flow of the in-progress rNPF
    InboundMsg inbound_;
    unsigned unackedArrivals_ = 0;

    // RDMA read
    ReadResponderState readResp_;
    ReadInitiatorState readInit_;
    std::uint64_t nextReadId_ = 1;
    bool readRespScheduled_ = false;
    sim::EventId readTimer_ = sim::kInvalidEvent;
    std::uint64_t readPsnAtArm_ = 0; ///< progress marker for readTimer_

    // DCQCN (inert unless cfg_.dcqcn and CNPs arrive)
    net::DcqcnRate dcqcn_;
    sim::Time cnpNextAllowed_ = 0; ///< CNP pacing (notification side)
    sim::Time rateNextTx_ = 0;     ///< rate-limiter token clock
    sim::EventId alphaTimer_ = sim::kInvalidEvent;
    sim::EventId rateTimer_ = sim::kInvalidEvent;
    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::ib

#endif // NPF_IB_QUEUE_PAIR_HH
