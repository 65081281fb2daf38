#include "load/recorder.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/flight.hh"
#include "obs/flow_tracer.hh"

namespace npf::load {

Recorder::Recorder(RecorderConfig cfg) : cfg_(cfg)
{
    obs_.init("load.rec");
}

Recorder::ClassId
Recorder::addClass(const std::string &name)
{
    perClass_.emplace_back();
    PerClass &pc = perClass_.back();
    pc.name = name;
    // The slow-sample heap never exceeds slowK entries; size it now
    // so recordBreakdown() stays allocation-free in steady state.
    pc.slow.reserve(cfg_.slowK);
    obs_.counter(name + ".completions", &pc.completions);
    obs_.counter(name + ".timeouts", &pc.timeouts);
    obs_.counter(name + ".retries", &pc.retries);
    ClassId id = ClassId(perClass_.size() - 1);
    obs_.distribution(name + ".response_us", [this, id] {
        const Histogram &h = perClass_[id].response;
        return obs::DistSnapshot{h.count(),  h.mean(),
                                 h.percentile(50), h.percentile(90),
                                 h.percentile(99), h.percentile(99.9),
                                 h.min(),    h.max()};
    });
    return id;
}

void
Recorder::recordLatency(ClassId c, sim::Time intended, sim::Time sent,
                        sim::Time completed)
{
    PerClass &pc = perClass_[c];
    double responseUs = sim::toMicroseconds(completed - intended);
    pc.window.record(responseUs);
    if (!measuring(completed))
        return;
    ++pc.completions;
    pc.response.record(responseUs);
    pc.service.record(sim::toMicroseconds(completed - sent));
}

void
Recorder::recordTimeout(ClassId c, sim::Time intended, sim::Time now)
{
    PerClass &pc = perClass_[c];
    double waitedUs = sim::toMicroseconds(now - intended);
    pc.window.record(waitedUs);
    if (!measuring(now))
        return;
    ++pc.timeouts;
    // Floor the tail honestly: the request took *at least* this long.
    pc.response.record(waitedUs);
}

void
Recorder::recordRetry(ClassId c, sim::Time now)
{
    if (measuring(now))
        ++perClass_[c].retries;
}

void
Recorder::recordBreakdown(ClassId c, const obs::PhaseBreakdown &bd,
                          sim::Time completed)
{
    if (cfg_.slowK == 0 || !measuring(completed))
        return;
    PerClass &pc = perClass_[c];
    auto slower = [](const obs::PhaseBreakdown &a,
                     const obs::PhaseBreakdown &b) {
        return a.e2e > b.e2e;
    };
    if (pc.slow.size() < cfg_.slowK) {
        pc.slow.push_back(bd);
        std::push_heap(pc.slow.begin(), pc.slow.end(), slower);
        return;
    }
    if (bd.e2e <= pc.slow.front().e2e)
        return;
    std::pop_heap(pc.slow.begin(), pc.slow.end(), slower);
    pc.slow.back() = bd;
    std::push_heap(pc.slow.begin(), pc.slow.end(), slower);
}

void
Recorder::writeReport(std::ostream &os, sim::Time now) const
{
    sim::Time end = cfg_.warmup + cfg_.duration;
    if (cfg_.duration == 0 || end > now)
        end = now;
    double secs = end > cfg_.warmup ? sim::toSeconds(end - cfg_.warmup)
                                    : 0.0;

    char line[256];
    std::snprintf(line, sizeof(line),
                  "-- SLO report [measure %.3fs..%.3fs] --",
                  sim::toSeconds(cfg_.warmup), sim::toSeconds(end));
    os << line << '\n';
    std::snprintf(line, sizeof(line),
                  "%-8s %10s %10s %8s %8s %9s %9s %9s %9s %9s %9s",
                  "class", "count", "tput/s", "timeout", "retry",
                  "mean", "p50", "p90", "p99", "p99.9", "max");
    os << line << "  [us]\n";
    for (const PerClass &pc : perClass_) {
        const Histogram &h = pc.response;
        std::snprintf(
            line, sizeof(line),
            "%-8s %10llu %10.0f %8llu %8llu %9.1f %9.1f %9.1f %9.1f "
            "%9.1f %9.1f",
            pc.name.c_str(),
            static_cast<unsigned long long>(pc.completions),
            secs > 0 ? double(pc.completions) / secs : 0.0,
            static_cast<unsigned long long>(pc.timeouts),
            static_cast<unsigned long long>(pc.retries), h.mean(),
            h.percentile(50), h.percentile(90), h.percentile(99),
            h.percentile(99.9), h.max());
        os << line << '\n';
    }

    bool anySamples = false;
    for (const PerClass &pc : perClass_)
        anySamples = anySamples || !pc.slow.empty();
    if (!anySamples)
        return;

    // Phase attribution: for each class, the retained slow sample
    // nearest the histogram's p99 and p99.9, plus the worst. Phase
    // columns sum to e2e exactly in ns (rounding here is display
    // only); a negative queue means overlapping lump charges (shared
    // server core) over-explain the window — see docs/OBSERVABILITY.md.
    os << "-- phase attribution (slowest " << cfg_.slowK
       << " per class) --\n";
    std::snprintf(line, sizeof(line),
                  "%-8s %-6s %10s %9s %9s %9s %9s %9s %9s", "class",
                  "which", "e2e", "backlog", "queue", "server", "npf",
                  "rnr", "retrans");
    os << line << "  [us]\n";
    for (const PerClass &pc : perClass_) {
        if (pc.slow.empty())
            continue;
        std::vector<obs::PhaseBreakdown> sorted = pc.slow;
        std::sort(sorted.begin(), sorted.end(),
                  [](const obs::PhaseBreakdown &a,
                     const obs::PhaseBreakdown &b) {
                      return a.e2e < b.e2e;
                  });
        auto nearest = [&sorted](double targetUs) {
            std::int64_t target =
                std::int64_t(targetUs * double(sim::kMicrosecond));
            const obs::PhaseBreakdown *best = &sorted.front();
            for (const obs::PhaseBreakdown &bd : sorted) {
                if (std::llabs(bd.e2e - target) <
                    std::llabs(best->e2e - target))
                    best = &bd;
            }
            return best;
        };
        const Histogram &h = pc.response;
        struct Row
        {
            const char *which;
            const obs::PhaseBreakdown *bd;
        } rows[] = {
            {"p99", nearest(h.percentile(99))},
            {"p99.9", nearest(h.percentile(99.9))},
            {"max", &sorted.back()},
        };
        for (const Row &r : rows) {
            const obs::PhaseBreakdown &bd = *r.bd;
            auto us = [](std::int64_t ns) { return double(ns) / 1e3; };
            std::snprintf(
                line, sizeof(line),
                "%-8s %-6s %10.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f",
                pc.name.c_str(), r.which, us(bd.e2e),
                us(bd.ns[unsigned(obs::Phase::Backlog)]),
                us(bd.ns[unsigned(obs::Phase::Queue)]),
                us(bd.ns[unsigned(obs::Phase::Server)]),
                us(bd.ns[unsigned(obs::Phase::NpfDriver)]),
                us(bd.ns[unsigned(obs::Phase::RnrBackoff)]),
                us(bd.ns[unsigned(obs::Phase::Retransmit)]));
            os << line << '\n';
        }
    }
}

// --- SloMonitor -------------------------------------------------------

SloMonitor::SloMonitor(sim::EventQueue &eq, Recorder &rec, SloConfig cfg)
    : eq_(eq), rec_(rec), cfg_(cfg)
{
    obs_.init("load.slo");
    obs_.counter("checks", &checks_);
    obs_.counter("violations", &violations_);
    timer_ = eq_.scheduleAfter(cfg_.window, [this] { tick(); },
                               "load.slo.tick");
}

SloMonitor::~SloMonitor()
{
    eq_.cancel(timer_);
}

void
SloMonitor::tick()
{
    ++checks_;
    Histogram &win = rec_.window(cfg_.cls);
    if (!win.empty()) {
        auto pUs = win.percentile(cfg_.percentile);
        auto p = static_cast<sim::Time>(pUs * double(sim::kMicrosecond));
        if (p > worst_)
            worst_ = p;
        if (cfg_.target != 0 && p > cfg_.target) {
            ++violations_;
            obs::FlowTracer::global().instant(
                obs::Track::App, "load", "slo_violation");
            obs::FlightRecorder::global().onSloViolation();
        }
        win.clear();
    }
    timer_ = eq_.scheduleAfter(cfg_.window, [this] { tick(); },
                               "load.slo.tick");
}

} // namespace npf::load
