/**
 * @file
 * Workload specification grammar for the load subsystem.
 *
 * A WorkloadSpec names an arrival process, a key-popularity model
 * and a request mix, and is parsed from a compact one-line grammar
 * (documented in docs/WORKLOADS.md):
 *
 *   workload := part (';' part)*
 *   part     := 'arrival=' arrival | 'keys=' keys
 *             | 'get=' ratio | 'req=' bytes
 *   arrival  := 'fixed:rate=R' | 'poisson:rate=R'
 *             | 'onoff:rate=R,off_rate=R,on=D,off=D[,dwell=exp|fixed]'
 *             | 'closed[:think=D][,think_dist=exp|fixed]'
 *   keys     := 'uniform:n=N' | 'zipf:n=N[,theta=T]' | 'scan:n=N'
 *             | 'hotset:n=N[,hot=F][,traffic=P]
 *                       [,shift_every=D][,shift_by=K]'
 *
 * Values follow the shared syntax of sim/spec_text.hh: rates and
 * counts take k/m/g ("120k" = 120000/s), durations ns/us/ms/s
 * ("50us"), and an unknown key is an error. e.g.
 *
 *   "arrival=poisson:rate=120k;keys=zipf:n=1m,theta=0.99;get=0.95"
 */

#ifndef NPF_LOAD_SPEC_HH
#define NPF_LOAD_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>

#include "sim/time.hh"

namespace npf::load {

/** How request arrivals are paced. */
struct ArrivalSpec
{
    enum class Kind {
        Fixed,   ///< open loop: constant inter-arrival 1/rate
        Poisson, ///< open loop: exponential inter-arrivals
        OnOff,   ///< open loop: two-state modulated (MMPP/on-off)
        Closed,  ///< closed loop: issue on completion + think time
    };

    Kind kind = Kind::Closed;
    double ratePerSec = 0.0;    ///< aggregate rate (open loop; on state)
    double offRatePerSec = 0.0; ///< OnOff: rate in the off state
    sim::Time onMean = 0;       ///< OnOff: mean on-state dwell
    sim::Time offMean = 0;      ///< OnOff: mean off-state dwell
    bool expDwell = true;       ///< OnOff: exponential vs fixed dwell
    sim::Time thinkMean = 0;    ///< Closed: think time after response
    bool expThink = false;      ///< Closed: exponential vs fixed think

    /** Open-loop processes pace themselves; closed loop reacts. */
    bool open() const { return kind != Kind::Closed; }
};

/** Which keys requests touch. */
struct KeySpec
{
    enum class Kind {
        Uniform, ///< uniform over [0, keys)
        Zipf,    ///< Zipf(theta) popularity, rank 0 hottest
        HotSet,  ///< hot fraction takes most traffic; can rotate
        Scan,    ///< sequential wrap-around sweep
    };

    Kind kind = Kind::Uniform;
    std::uint64_t keys = 1000;  ///< keyspace size
    double theta = 0.99;        ///< Zipf: skew (0 = uniform-ish)
    double hotFraction = 0.1;   ///< HotSet: fraction of keyspace hot
    double hotTraffic = 0.9;    ///< HotSet: traffic hitting the hot set
    sim::Time shiftEvery = 0;   ///< HotSet: rotation period (0 = static)
    std::uint64_t shiftBy = 0;  ///< HotSet: rotation step (0 = hot size)
};

/** A complete workload description. */
struct WorkloadSpec
{
    ArrivalSpec arrival;
    KeySpec keys;
    double getRatio = 0.9;          ///< GET fraction (rest are SETs)
    std::size_t requestBytes = 64;  ///< request wire size

    /**
     * Parse @p text (grammar above). Omitted parts keep their
     * defaults. Returns nullopt on a malformed spec and, when
     * @p error is non-null, stores a diagnostic.
     */
    static std::optional<WorkloadSpec>
    parse(const std::string &text, std::string *error = nullptr);

    std::string spec; ///< original text, for echoing in bench output
};

} // namespace npf::load

#endif // NPF_LOAD_SPEC_HH
