/**
 * @file
 * A deliberately faithful-enough TCP endpoint: slow start, congestion
 * avoidance, RTO with exponential backoff and give-up, duplicate-ACK
 * fast retransmit, SYN retries. These are exactly the dynamics that
 * turn dropped-on-rNPF packets into the near-deadlock of the paper's
 * cold-ring problem (Fig. 4), so they are modeled rather than
 * abstracted.
 */

#ifndef NPF_TCP_TCP_CONNECTION_HH
#define NPF_TCP_TCP_CONNECTION_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mem/types.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/ring_deque.hh"
#include "sim/time.hh"
#include "tcp/segment.hh"

namespace npf::tcp {

/** Fixed stack parameters (Linux-of-the-era values). */
struct TcpParams
{
    unsigned initialCwndSegs = 10;
    sim::Time minRto = 200 * sim::kMillisecond;
    unsigned maxDataRetries = 15;
    unsigned dupAckThreshold = 3;
};

/** The stack's fixed parameters. */
inline constexpr TcpParams kTcp{};

/** Per-connection stack parameters (Linux-of-the-era defaults). */
struct TcpConfig
{
    std::size_t mss = 1448;
    std::size_t maxWindowBytes = 1 << 20;
    sim::Time maxRto = 120 * sim::kSecond;
    sim::Time initialRto = 1 * sim::kSecond;
    unsigned maxSynRetries = 6;
};

/**
 * One endpoint of a TCP connection.
 *
 * Segments leave through the SegmentSink (the NIC glue provides it)
 * and arrive through receiveSegment(). Application payload is
 * byte-counted; send() optionally records the source buffer address
 * so the NIC DMA-reads real (possibly cold) IOuser memory.
 */
class TcpConnection
{
  public:
    /** (segment, source buffer address or 0) -> hand to the NIC. */
    using SegmentSink =
        std::function<void(const Segment &, mem::VirtAddr src)>;
    using DataHandler = std::function<void(std::size_t bytes)>;
    using VoidHandler = std::function<void()>;

    enum class State { Closed, SynSent, SynReceived, Established, Failed };

    struct Stats
    {
        std::uint64_t segmentsSent = 0;
        std::uint64_t segmentsReceived = 0;
        std::uint64_t bytesSent = 0;
        std::uint64_t bytesDelivered = 0;
        std::uint64_t retransmissions = 0;
        std::uint64_t timeouts = 0;
        std::uint64_t fastRetransmits = 0;
        std::uint64_t dupAcksReceived = 0;
        std::uint64_t synRetries = 0;
    };

    TcpConnection(sim::EventQueue &eq, std::uint32_t conn_id,
                  SegmentSink sink, TcpConfig cfg = {});

    std::uint32_t connId() const { return connId_; }
    State state() const { return state_; }
    bool established() const { return state_ == State::Established; }
    bool failed() const { return state_ == State::Failed; }

    /** Active open: send SYN, retry with backoff. */
    void connect(std::function<void(bool ok)> on_connected);

    /** Passive open: wait for a SYN. */
    void listen();

    /**
     * Queue @p bytes of application payload. @p src is the IOuser
     * buffer the NIC will DMA-read (0 = stack-internal scratch).
     */
    void send(std::size_t bytes, mem::VirtAddr src = 0);

    /** In-order payload delivery to the application. */
    void onDeliver(DataHandler h) { deliverHandler_ = std::move(h); }

    /** Connection gave up (max retries exceeded). */
    void onFailure(VoidHandler h) { failureHandler_ = std::move(h); }

    /** Inbound segment from the NIC. */
    void receiveSegment(const Segment &seg);

    /**
     * obs::Attributor lane this connection's retransmit stalls are
     * charged to (-1 = off). Both directions of one RPC channel
     * conventionally share a lane.
     */
    void setAttrLane(int lane) { attrLane_ = lane; }
    int attrLane() const { return attrLane_; }

    const Stats &stats() const { return stats_; }
    std::size_t cwnd() const { return cwnd_; }
    std::size_t bytesInFlight() const
    {
        return static_cast<std::size_t>(sndNxt_ - sndUna_);
    }
    std::size_t unsentBytes() const { return unsent_; }
    sim::Time currentRto() const { return rto_; }

  private:
    /** A contiguous chunk of queued payload with its source buffer. */
    struct SendRecord
    {
        std::uint64_t seqStart;
        std::size_t len;
        mem::VirtAddr src;
    };

    void processSegment(const Segment &seg);
    void pumpSend();
    void emitData(std::uint64_t seq, std::size_t len);
    void emitAck();
    void handleAckField(const Segment &seg);
    void armRto();
    void cancelRto();
    void onRtoFire();
    void updateRtt(sim::Time sample);
    void fail();
    mem::VirtAddr srcFor(std::uint64_t seq, std::size_t &len_inout) const;
    void sendSyn();
    void sendSynAck();

    sim::EventQueue &eq_;
    std::uint32_t connId_;
    SegmentSink sink_;
    TcpConfig cfg_;
    State state_ = State::Closed;
    Stats stats_;
    DataHandler deliverHandler_;
    VoidHandler failureHandler_;
    std::function<void(bool)> onConnected_;

    // --- sender ---
    std::uint64_t sndUna_ = 0;  ///< oldest unacked byte
    std::uint64_t sndNxt_ = 0;  ///< next byte to transmit
    std::uint64_t sndMax_ = 0;  ///< highest byte ever transmitted
    std::size_t unsent_ = 0;    ///< queued, not yet transmitted
    sim::RingDeque<SendRecord> records_;
    std::size_t cwnd_ = 0;      ///< bytes
    std::size_t ssthresh_ = 0;  ///< bytes
    unsigned dupAcks_ = 0;
    unsigned retries_ = 0;      ///< consecutive RTOs without progress
    sim::Time rto_;
    sim::Time srtt_ = 0;
    sim::Time rttvar_ = 0;
    bool rttValid_ = false;
    std::uint64_t rttSeq_ = 0;  ///< seq being timed (Karn)
    sim::Time rttSentAt_ = 0;
    bool rttTiming_ = false;
    sim::EventId rtoTimer_ = sim::kInvalidEvent;
    sim::Time rtoArmedAt_ = 0;  ///< for retransmit-stall attribution
    unsigned synRetries_ = 0;
    sim::Time synSentAt_ = 0;
    int attrLane_ = -1;         ///< attribution lane (-1 = off)

    // --- receiver ---
    std::uint64_t rcvNxt_ = 0;
    /// Out-of-order ranges (start, end), sorted by start, starts
    /// unique. Flat, so a loss burst allocates only when it sets a
    /// new high-water mark, not once per hole.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> oooSegments_;

    obs::Instrumented obs_; ///< last member: deregisters first
};

} // namespace npf::tcp

#endif // NPF_TCP_TCP_CONNECTION_HH
