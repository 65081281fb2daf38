/**
 * @file
 * Fabric topology description: hosts and switches joined by
 * bidirectional edges, built programmatically (star, leaf-spine with
 * configurable oversubscription) or parsed from a one-line spec in
 * the WorkloadSpec idiom (docs/NETWORK.md):
 *
 *   topo  := kind [':' key '=' value (',' key '=' value)*]
 *   kind  := 'star' | 'leafspine' | 'edges'
 *
 *   star      hosts=N
 *   leafspine hosts=N,leaves=L,spines=S[,ovs=F]
 *   edges     links=h0-s0+h1-s0+s0-s1+...   (hN = host, sN = switch)
 *
 *   common keys: bw=40g prop=500ns overhead=38 fwd=200ns
 *                queue=512k ecn=64k xoff=128k xon=64k
 *
 * Values follow sim/spec_text.hh: bandwidths are rates (k/m/g,
 * decimal bits/sec), byte sizes take k/m (binary), times take
 * ns/us/ms/s, and a key the kind does not read is an error. ecn=0
 * disables marking; xoff=0 disables PFC. leaf-spine ovs=F divides the
 * leaf-to-spine uplink bandwidth so the fabric is F:1 oversubscribed
 * (F=1, the default, is non-blocking).
 *
 * Vertex ids: hosts are [0, hosts), switches [hosts, hosts+switches).
 * Every host must attach to exactly one switch (its NIC port).
 */

#ifndef NPF_NET_TOPOLOGY_HH
#define NPF_NET_TOPOLOGY_HH

#include <optional>
#include <string>
#include <vector>

#include "net/link.hh"
#include "net/pfc.hh"

namespace npf::net {

/** A parsed, validated fabric topology. */
struct Topology
{
    /** One bidirectional cable between vertices @p a and @p b. */
    struct Edge
    {
        unsigned a = 0;
        unsigned b = 0;
        LinkConfig link;
    };

    unsigned hosts = 0;
    unsigned switches = 0;
    std::vector<Edge> edges;
    SwitchConfig switchCfg;  ///< uniform across switches
    LinkConfig defaultLink;  ///< used where an edge has no override
    std::string spec;        ///< original text, for echoing

    unsigned vertices() const { return hosts + switches; }
    bool isHost(unsigned v) const { return v < hosts; }

    /** N hosts star-wired through one switch. */
    static Topology star(unsigned hosts, LinkConfig link = {},
                         SwitchConfig sw = {});

    /**
     * Two-level folded Clos: hosts spread in contiguous blocks over
     * @p leaves leaf switches, every leaf wired to every spine.
     * @p oversubscription divides the uplink bandwidth (1.0 =
     * non-blocking).
     */
    static Topology leafSpine(unsigned hosts, unsigned leaves,
                              unsigned spines,
                              double oversubscription = 1.0,
                              LinkConfig link = {}, SwitchConfig sw = {});

    /**
     * Parse @p text (grammar above). Returns nullopt on a malformed
     * spec and, when @p error is non-null, stores a diagnostic.
     */
    static std::optional<Topology> parse(const std::string &text,
                                         std::string *error = nullptr);

    /**
     * Structural checks: host degree exactly 1, edges in range, the
     * graph connected, XON below XOFF. parse() and the builders
     * always return validated topologies; hand-rolled ones should
     * call this before handing the topology to a Fabric.
     */
    bool validate(std::string *error = nullptr) const;

    /**
     * Shortest-path next hops: result[v][d] lists the neighbors of
     * vertex @p v that lie on a shortest path toward destination
     * host @p d, in ascending vertex order (so ECMP choice is
     * deterministic). Host vertices list their one attachment.
     */
    std::vector<std::vector<std::vector<unsigned>>> routes() const;
};

} // namespace npf::net

#endif // NPF_NET_TOPOLOGY_HH
