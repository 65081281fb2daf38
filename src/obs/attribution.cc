#include "obs/attribution.hh"

namespace npf::obs {

Attributor &
Attributor::global()
{
    static thread_local Attributor a;
    return a;
}

void
Attributor::enable(bool on)
{
    enabled_ = on;
    reset();
}

void
Attributor::reset()
{
    lanes_.clear();
    if (enabled_)
        lanes_.push_back(Lane{"root", -1, {}, {}, 0, 0, 0});
}

int
Attributor::openLane(const char *name, int parent)
{
    if (!enabled_)
        return -1;
    Lane l;
    l.name = name;
    // Lanes parented at the root stay root-parented (-1): the root is
    // folded into every snapshot anyway, so recording it as an explicit
    // parent would double-count it.
    l.parent = parent > 0 ? parent : -1;
    lanes_.push_back(l);
    return static_cast<int>(lanes_.size()) - 1;
}

void
Attributor::accrue(Lane &l)
{
    sim::Time now = eq_ ? eq_->now() : 0;
    if (l.depth > 0 && l.depth <= kMaxDepth)
        l.acc[static_cast<unsigned>(l.stack[l.depth - 1])] +=
            static_cast<std::int64_t>(now - l.topStart);
    l.topStart = now;
}

void
Attributor::blockBeginSlow(int lane, Phase p)
{
    if (static_cast<std::size_t>(lane) >= lanes_.size())
        return;
    Lane &l = lanes_[static_cast<std::size_t>(lane)];
    accrue(l);
    if (l.depth >= kMaxDepth) {
        ++l.overflowed;
        return;
    }
    l.stack[l.depth++] = p;
}

void
Attributor::blockEndSlow(int lane, Phase p)
{
    if (static_cast<std::size_t>(lane) >= lanes_.size())
        return;
    Lane &l = lanes_[static_cast<std::size_t>(lane)];
    accrue(l);
    // Close the most recent open block of this phase; a miss (overflow
    // dropped the begin, or a double end) is a tolerated no-op.
    for (unsigned i = l.depth; i-- > 0;) {
        if (l.stack[i] == p) {
            for (unsigned j = i + 1; j < l.depth; ++j)
                l.stack[j - 1] = l.stack[j];
            --l.depth;
            return;
        }
    }
}

void
Attributor::chargeSlow(int lane, Phase p, sim::Time dur)
{
    if (static_cast<std::size_t>(lane) >= lanes_.size())
        return;
    lanes_[static_cast<std::size_t>(lane)]
        .acc[static_cast<unsigned>(p)] += static_cast<std::int64_t>(dur);
}

void
Attributor::fold(const Lane &l, PhaseBreakdown &out) const
{
    for (unsigned i = 0; i < kPhaseCount; ++i)
        out.ns[i] += l.acc[i];
    if (l.depth > 0) {
        sim::Time now = eq_ ? eq_->now() : 0;
        out.ns[static_cast<unsigned>(l.stack[l.depth - 1])] +=
            static_cast<std::int64_t>(now - l.topStart);
    }
}

void
Attributor::snapshot(int lane, PhaseBreakdown &out) const
{
    out = PhaseBreakdown{};
    if (!enabled_ || lane < 0 ||
        static_cast<std::size_t>(lane) >= lanes_.size())
        return;
    const Lane &l = lanes_[static_cast<std::size_t>(lane)];
    fold(l, out);
    if (l.parent > 0 &&
        static_cast<std::size_t>(l.parent) < lanes_.size())
        fold(lanes_[static_cast<std::size_t>(l.parent)], out);
    if (lane != 0)
        fold(lanes_[0], out);
}

} // namespace npf::obs
