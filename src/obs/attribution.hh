/**
 * @file
 * Causal latency attribution: a per-request phase breakdown that sums
 * *exactly* to the measured end-to-end latency.
 *
 * The design deliberately avoids tagging individual packets (the sim's
 * hot paths are packet-granular and a per-packet context would be both
 * invasive and slow). Instead, components that *block* a request's
 * progress — the NPF driver phase, RNR backoff, retransmit stalls, and
 * server CPU occupancy — accrue sim-time into a small set of *lanes*
 * (one per session/channel, one per server, plus a root lane for
 * host-global stalls such as an Ethernet NIC parked on a cold ring).
 * The client pool snapshots a request's lane at send time and diffs at
 * completion; whatever part of the sojourn the blocking phases do not
 * explain lands in the Queue residual, so
 *
 *     backlog + queue + server + npf + rnr + retransmit == e2e
 *
 * holds by construction, in integer nanoseconds, with no sampling and
 * no double-booking. Because shared resources (a server core, the root
 * lane) are charged once and folded into every overlapping request's
 * window, a phase can legitimately exceed the request's own service
 * demand — and Queue can go negative when overlapping lumps over-
 * explain the window. Both are documented, not bugs: the invariant the
 * tests enforce is the exact sum.
 *
 * Everything here is gated so that the disabled configuration does no
 * work beyond one predictable branch per call site and allocates
 * nothing: openLane() returns -1 while disabled and every mutator
 * early-outs on a negative lane.
 */

#ifndef NPF_OBS_ATTRIBUTION_HH
#define NPF_OBS_ATTRIBUTION_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace npf::obs {

/** Where a nanosecond of a request's sojourn went. */
enum class Phase : unsigned {
    Backlog = 0,   ///< open-loop arrival intended -> actually sent
    Queue,         ///< residual: wire, HoL wait, anything not below
    Server,        ///< server CPU occupancy (shared-resource charge)
    NpfDriver,     ///< NIC page-fault handling (send/recv/read NPF)
    RnrBackoff,    ///< receiver-not-ready pause (IB RNR NAK / read RNR)
    Retransmit,    ///< RTO-driven stalls (TCP RTO, IB retransmit rewind)
};

inline constexpr unsigned kPhaseCount = 6;

/** Per-request result: ns per phase plus the end-to-end total. */
struct PhaseBreakdown
{
    std::int64_t ns[kPhaseCount] = {};
    std::int64_t e2e = 0;

    std::int64_t sum() const
    {
        std::int64_t s = 0;
        for (unsigned i = 0; i < kPhaseCount; ++i)
            s += ns[i];
        return s;
    }
};

/**
 * The process-wide phase accountant.
 *
 * Lanes form a two-level forest rooted implicitly at lane 0 (the root
 * lane, created on enable()): a snapshot of lane L folds in L, L's
 * parent (if any), and the root, so host-global blocks are visible to
 * every request without per-component lane plumbing.
 *
 * Blocking time is recorded either as begin/end *blocks* (the blocked
 * interval accrues to the block's phase while it is the most recent
 * open block on the lane) or as retroactive *lump charges* (for stalls
 * only recognizable after the fact, e.g. an RTO that fired). blockEnd
 * closes the most recent open block of the given phase, so interleaved
 * non-LIFO blocks from two directions of one session are tolerated.
 */
class Attributor
{
  public:
    static Attributor &global();

    bool enabled() const { return enabled_; }

    /** Enable/disable. Enabling resets all lanes and creates the root. */
    void enable(bool on);

    /** Drop all lanes (except a fresh root when enabled). */
    void reset();

    /** Clock for accrual; must be set while enabled. */
    void setClock(const sim::EventQueue *eq) { eq_ = eq; }

    /** Root lane id, or -1 while disabled. */
    int rootLane() const { return enabled_ ? 0 : -1; }

    /**
     * Create a lane. @p parent is a lane id or -1 (root-parented).
     * Returns -1 while disabled; all mutators accept -1 as a no-op, so
     * callers can cache the result unconditionally.
     */
    int openLane(const char *name, int parent = -1);

    /** Open a blocking interval of phase @p p on @p lane. */
    void blockBegin(int lane, Phase p)
    {
        if (lane < 0)
            return;
        blockBeginSlow(lane, p);
    }

    /** Close the most recent open block of phase @p p on @p lane. */
    void blockEnd(int lane, Phase p)
    {
        if (lane < 0)
            return;
        blockEndSlow(lane, p);
    }

    /** Retroactive lump charge of @p dur to phase @p p on @p lane. */
    void charge(int lane, Phase p, sim::Time dur)
    {
        if (lane < 0)
            return;
        chargeSlow(lane, p, dur);
    }

    /**
     * Accumulated phase time visible from @p lane: lane + parent +
     * root, with any open blocks folded in up to now. e2e is left 0.
     */
    void snapshot(int lane, PhaseBreakdown &out) const;

    std::size_t laneCount() const { return lanes_.size(); }

    /** Open blocks a lane holds; a deeper blockBegin is dropped. */
    static constexpr unsigned kMaxDepth = 16;
    /** Blocks lane @p l dropped for want of depth. */
    std::uint64_t overflowed(int l) const { return lanes_.at(l).overflowed; }

  private:
    struct Lane
    {
        const char *name = "";
        int parent = -1;
        std::int64_t acc[kPhaseCount] = {};
        Phase stack[kMaxDepth] = {};
        unsigned depth = 0;
        sim::Time topStart = 0;
        std::uint64_t overflowed = 0;
    };

    void blockBeginSlow(int lane, Phase p);
    void blockEndSlow(int lane, Phase p);
    void chargeSlow(int lane, Phase p, sim::Time dur);
    void accrue(Lane &l);
    void fold(const Lane &l, PhaseBreakdown &out) const;

    bool enabled_ = false;
    const sim::EventQueue *eq_ = nullptr;
    std::vector<Lane> lanes_;
};

inline Attributor &
attributor()
{
    return Attributor::global();
}

} // namespace npf::obs

#endif // NPF_OBS_ATTRIBUTION_HH
