#include "net/topology.hh"

#include <algorithm>
#include <queue>

#include "sim/spec_text.hh"

namespace npf::net {

namespace {

/** The most hosts and switches a spec may ask for: enough for any
 *  fabric the simulator runs, few enough that parsing a spec never
 *  builds a graph that does not fit in memory. */
constexpr unsigned kMaxHosts = 1u << 16;
constexpr unsigned kMaxSwitches = 1u << 10;
constexpr double kMaxBandwidth = 1e15; ///< bits/sec

/** A byte threshold whose 0 disables its mechanism. */
spec::Setter
threshold(std::size_t *bytes, bool *enabled)
{
    return [bytes, enabled](const std::string &v) {
        std::string err = spec::size(bytes)(v);
        if (err.empty())
            *enabled = *bytes > 0;
        return err;
    };
}

/** "h3" / "s1" vertex names of the edges grammar. */
bool
parseVertex(std::string_view v, bool &isHost, unsigned &idx)
{
    if (v.size() < 2 || (v[0] != 'h' && v[0] != 's'))
        return false;
    isHost = v[0] == 'h';
    unsigned limit = isHost ? kMaxHosts : kMaxSwitches;
    return spec::number(&idx, 0u, limit - 1)(std::string(v.substr(1)))
        .empty();
}

/** The graph of an edges spec's links=h0-s0+h1-s0+... value. */
std::string
buildEdges(std::string_view links, const LinkConfig &link,
           const SwitchConfig &sw, Topology *t)
{
    unsigned max_host = 0, max_switch = 0;
    struct RawEdge { bool ah, bh; unsigned a, b; };
    std::vector<RawEdge> raw;
    for (std::string_view e : spec::split(links, '+')) {
        auto [a_text, b_text] = spec::cut(e, '-');
        bool ah = false, bh = false;
        unsigned a = 0, b = 0;
        if (!parseVertex(a_text, ah, a) || !parseVertex(b_text, bh, b))
            return "edge '" + std::string(e) + "': want hN-sM or sN-sM";
        raw.push_back({ah, bh, a, b});
        if (ah)
            max_host = std::max(max_host, a + 1);
        else
            max_switch = std::max(max_switch, a + 1);
        if (bh)
            max_host = std::max(max_host, b + 1);
        else
            max_switch = std::max(max_switch, b + 1);
    }
    t->hosts = max_host;
    t->switches = max_switch;
    t->defaultLink = link;
    t->switchCfg = sw;
    for (const RawEdge &e : raw)
        t->edges.push_back({e.ah ? e.a : t->hosts + e.a,
                            e.bh ? e.b : t->hosts + e.b, link});
    return {};
}

/** Returns "" or what is wrong with spec @p text; fills @p t. */
std::string
build(std::string_view text, Topology *t)
{
    auto [kind, params] = spec::cut(text, ':');
    unsigned hosts = 0, leaves = 2, spines = 2;
    double ovs = 1.0;
    LinkConfig link;
    SwitchConfig sw;
    std::string links;
    std::vector<spec::Key> keys{
        {"bw", spec::rate(&link.bandwidthBitsPerSec, 1, kMaxBandwidth)},
        {"prop", spec::duration(&link.propagation)},
        {"overhead", spec::size(&link.perPacketOverheadBytes)},
        {"fwd", spec::duration(&sw.forwardLatency)},
        {"queue", spec::size(&sw.queueCapBytes)},
        {"ecn", threshold(&sw.ecn.markBytes, &sw.ecn.enabled)},
        {"xoff", threshold(&sw.pfc.xoffBytes, &sw.pfc.enabled)},
        {"xon", spec::size(&sw.pfc.xonBytes)},
    };
    if (kind == "star" || kind == "leafspine")
        keys.push_back({"hosts", spec::number(&hosts, 1u, kMaxHosts)});
    if (kind == "leafspine") {
        keys.push_back({"leaves", spec::number(&leaves, 1u, kMaxSwitches)});
        keys.push_back({"spines", spec::number(&spines, 1u, kMaxSwitches)});
        keys.push_back({"ovs", spec::number(&ovs, 1.0, 1e3)});
    }
    if (kind == "edges")
        keys.push_back({"links", [&links](const std::string &v) {
                            links = v;
                            return std::string();
                        }});
    if (kind != "star" && kind != "leafspine" && kind != "edges")
        return "unknown kind '" + std::string(kind) + "'";
    if (std::string err = spec::applyKeys(params, keys); !err.empty())
        return err;
    if (sw.pfc.enabled && sw.pfc.xonBytes >= sw.pfc.xoffBytes)
        sw.pfc.xonBytes = sw.pfc.xoffBytes / 2;

    if (kind == "star") {
        if (hosts == 0)
            return "star needs hosts=N";
        *t = Topology::star(hosts, link, sw);
    } else if (kind == "leafspine") {
        if (hosts == 0)
            return "leafspine needs hosts=, leaves=, spines=";
        *t = Topology::leafSpine(hosts, leaves, spines, ovs, link, sw);
    } else {
        if (links.empty())
            return "edges needs links=a-b+c-d+...";
        if (std::string err = buildEdges(links, link, sw, t); !err.empty())
            return err;
    }
    t->spec = std::string(spec::trim(text));
    return {};
}

/** Returns "" or the first structural fault of @p t (see validate). */
std::string
graphError(const Topology &t)
{
    if (t.hosts == 0 || t.switches == 0)
        return "need at least one host and one switch";
    std::vector<unsigned> host_degree(t.hosts, 0);
    std::vector<std::vector<unsigned>> adj(t.vertices());
    for (const Topology::Edge &e : t.edges) {
        if (e.a >= t.vertices() || e.b >= t.vertices() || e.a == e.b)
            return "edge endpoint out of range";
        if (t.isHost(e.a) && t.isHost(e.b))
            return "host-to-host edge (no switch between)";
        if (t.isHost(e.a))
            ++host_degree[e.a];
        if (t.isHost(e.b))
            ++host_degree[e.b];
        adj[e.a].push_back(e.b);
        adj[e.b].push_back(e.a);
    }
    for (unsigned h = 0; h < t.hosts; ++h)
        if (host_degree[h] != 1)
            return "host h" + std::to_string(h) +
                   " needs exactly one attachment, has " +
                   std::to_string(host_degree[h]);
    std::vector<bool> seen(t.vertices(), false);
    std::queue<unsigned> bfs;
    bfs.push(0);
    seen[0] = true;
    unsigned reached = 1;
    while (!bfs.empty()) {
        unsigned v = bfs.front();
        bfs.pop();
        for (unsigned n : adj[v])
            if (!seen[n]) {
                seen[n] = true;
                ++reached;
                bfs.push(n);
            }
    }
    if (reached != t.vertices())
        return "graph is not connected";
    if (t.switchCfg.pfc.enabled &&
        t.switchCfg.pfc.xonBytes >= t.switchCfg.pfc.xoffBytes)
        return "PFC xon must be below xoff";
    return {};
}

} // namespace

Topology
Topology::star(unsigned hosts, LinkConfig link, SwitchConfig sw)
{
    Topology t;
    t.hosts = hosts;
    t.switches = 1;
    t.defaultLink = link;
    t.switchCfg = sw;
    for (unsigned h = 0; h < hosts; ++h)
        t.edges.push_back({h, hosts, link});
    return t;
}

Topology
Topology::leafSpine(unsigned hosts, unsigned leaves, unsigned spines,
                    double oversubscription, LinkConfig link,
                    SwitchConfig sw)
{
    Topology t;
    t.hosts = hosts;
    t.switches = leaves + spines;
    t.defaultLink = link;
    t.switchCfg = sw;
    // Hosts in contiguous blocks per leaf; stragglers on the last.
    unsigned per_leaf = (hosts + leaves - 1) / leaves;
    for (unsigned h = 0; h < hosts; ++h) {
        unsigned leaf = std::min(h / per_leaf, leaves - 1);
        t.edges.push_back({h, hosts + leaf, link});
    }
    LinkConfig up = link;
    up.bandwidthBitsPerSec =
        link.bandwidthBitsPerSec *
        (double(per_leaf) / double(spines)) / oversubscription;
    for (unsigned l = 0; l < leaves; ++l)
        for (unsigned s = 0; s < spines; ++s)
            t.edges.push_back({hosts + l, hosts + leaves + s, up});
    return t;
}

std::optional<Topology>
Topology::parse(const std::string &text, std::string *error)
{
    Topology t;
    std::string err = build(text, &t);
    if (err.empty())
        err = graphError(t);
    if (!err.empty()) {
        spec::fail(error, "topology: " + err);
        return std::nullopt;
    }
    return t;
}

bool
Topology::validate(std::string *error) const
{
    std::string err = graphError(*this);
    return err.empty() || spec::fail(error, "topology: " + err);
}

std::vector<std::vector<std::vector<unsigned>>>
Topology::routes() const
{
    unsigned n = vertices();
    std::vector<std::vector<unsigned>> adj(n);
    for (const Edge &e : edges) {
        adj[e.a].push_back(e.b);
        adj[e.b].push_back(e.a);
    }
    // Ascending neighbor order keeps ECMP candidate lists (and with
    // them flow hashing) deterministic across runs.
    for (auto &a : adj)
        std::sort(a.begin(), a.end());

    constexpr unsigned kInf = 0xffffffffu;
    std::vector<std::vector<std::vector<unsigned>>> routes(
        n, std::vector<std::vector<unsigned>>(hosts));
    for (unsigned d = 0; d < hosts; ++d) {
        std::vector<unsigned> dist(n, kInf);
        std::queue<unsigned> bfs;
        dist[d] = 0;
        bfs.push(d);
        while (!bfs.empty()) {
            unsigned v = bfs.front();
            bfs.pop();
            for (unsigned nb : adj[v])
                if (dist[nb] == kInf) {
                    dist[nb] = dist[v] + 1;
                    bfs.push(nb);
                }
        }
        for (unsigned v = 0; v < n; ++v) {
            if (v == d || dist[v] == kInf)
                continue;
            for (unsigned nb : adj[v])
                if (dist[nb] + 1 == dist[v])
                    routes[v][d].push_back(nb);
        }
    }
    return routes;
}

} // namespace npf::net
