#include "mem/memory_manager.hh"

#include <cassert>

#include "obs/flow_tracer.hh"

namespace npf::mem {

namespace {

/** Default cgroup name for spaces created without one. */
const std::string kRootCgroup = "root";

} // namespace

MemoryManager::MemoryManager(std::size_t total_bytes, MemCostConfig cost,
                             BackingStoreConfig swap)
    : phys_(total_bytes), swap_(swap), cost_(cost)
{
    obs_.init("mem.mm");
    obs_.counter("minor_faults", &stats_.minorFaults);
    obs_.counter("major_faults", &stats_.majorFaults);
    obs_.counter("evictions", &stats_.evictions);
    obs_.counter("swap_outs", &stats_.swapOuts);
    obs_.counter("swap_ins", &stats_.swapIns);
    obs_.counter("oom_failures", &stats_.oomFailures);
    obs_.gauge("free_frames", [this] { return double(phys_.freeFrames()); });
    obs_.gauge("used_frames", [this] { return double(phys_.usedFrames()); });
    obs_.gauge("pinned_pages", [this] { return double(pinnedPages_); });

    cgroups_[kRootCgroup] =
        std::make_unique<Cgroup>(Cgroup{kRootCgroup, 0, 0});
    // Keep a small low-watermark free so the reclaim path itself
    // never deadlocks (mirrors min_free_kbytes).
    reserveFrames_ = phys_.totalFrames() / 256;
}

MemoryManager::~MemoryManager() = default;

Cgroup &
MemoryManager::createCgroup(const std::string &name, std::size_t limit_bytes)
{
    // Address spaces hold a pointer to their cgroup: replacing a live
    // one would leave them charging a freed object.
    auto [it, inserted] = cgroups_.try_emplace(name);
    if (!inserted)
        fatal("mem::MemoryManager: cgroup '%s' already exists",
              name.c_str());
    it->second = std::make_unique<Cgroup>(
        Cgroup{name, limit_bytes / kPageSize, 0});
    return *it->second;
}

AddressSpace &
MemoryManager::createAddressSpace(const std::string &name,
                                  const std::string &cgroup)
{
    const std::string &cg = cgroup.empty() ? kRootCgroup : cgroup;
    auto it = cgroups_.find(cg);
    if (it == cgroups_.end())
        fatal("mem::MemoryManager: address space '%s' in unknown cgroup "
              "'%s'",
              name.c_str(), cg.c_str());
    spaces_.push_back(std::make_unique<AddressSpace>(
        *this, std::uint32_t(spaces_.size()), name, it->second.get()));
    return *spaces_.back();
}

FaultResult
MemoryManager::faultIn(AddressSpace &as, Vpn vpn, bool write)
{
    FaultResult res;
    Pte &pte = as.pte(vpn);
    if (pte.present) {
        pte.referenced = true;
        pte.dirty |= write;
        return res;
    }

    Cgroup *cg = as.cgroup();

    // Cgroup pressure: stay within the per-tenant budget.
    while (cg->limitPages != 0 && cg->usedPages >= cg->limitPages) {
        auto evicted = evictOne(cg);
        if (!evicted) {
            ++stats_.oomFailures;
            res.ok = false;
            return res;
        }
        res.cost += *evicted;
    }

    // Global pressure: keep the low watermark free.
    while (phys_.freeFrames() <= reserveFrames_) {
        auto evicted = evictOne(nullptr);
        if (!evicted) {
            ++stats_.oomFailures;
            res.ok = false;
            return res;
        }
        res.cost += *evicted;
    }

    auto pfn = phys_.allocate(as.id(), vpn);
    if (!pfn) {
        ++stats_.oomFailures;
        res.ok = false;
        return res;
    }

    res.cost += kMemCosts.minorFaultCpu;
    if (pte.inSwap) {
        res.cost += swap_.readLatency(1);
        pte.inSwap = false;
        res.major = true;
        ++stats_.majorFaults;
        ++stats_.swapIns;
        obs::tracer().instant(obs::Track::Mem, "mem", "swap_in");
    } else {
        ++stats_.minorFaults;
    }

    pte.pfn = *pfn;
    pte.present = true;
    pte.referenced = true;
    pte.dirty = write;
    ++as.residentPages_;
    ++cg->usedPages;
    clock_.push_back(*pfn);
    return res;
}

sim::Time
MemoryManager::reclaimPages(std::size_t pages)
{
    sim::Time cost = 0;
    for (std::size_t i = 0; i < pages; ++i) {
        auto evicted = evictOne(nullptr);
        if (!evicted)
            break;
        cost += *evicted;
    }
    return cost;
}

bool
MemoryManager::chargePin(std::size_t pages)
{
    if (cost_.maxPinnableBytes != 0) {
        std::size_t limit = cost_.maxPinnableBytes / kPageSize;
        if (pinnedPages_ + pages > limit)
            return false;
    }
    pinnedPages_ += pages;
    return true;
}

void
MemoryManager::unchargePin(std::size_t pages)
{
    assert(pinnedPages_ >= pages);
    pinnedPages_ -= pages;
}

void
MemoryManager::dropPage(AddressSpace &as, Vpn vpn, Pte &pte)
{
    assert(pte.present);
    as.notifyInvalidate(vpn);
    phys_.release(pte.pfn);
    pte.pfn = kNoFrame;
    pte.present = false;
    assert(as.residentPages_ > 0);
    --as.residentPages_;
    assert(as.cgroup()->usedPages > 0);
    --as.cgroup()->usedPages;
}

std::optional<sim::Time>
MemoryManager::evictOne(Cgroup *target)
{
    // Clock with second chance: scan at most two full revolutions
    // (the first clears referenced bits, the second must find a
    // victim unless everything is pinned or foreign).
    std::size_t budget = clock_.size() * 2 + 1;
    while (budget-- > 0 && !clock_.empty()) {
        Pfn pfn = clock_.front();
        clock_.pop_front();

        const Frame &frame = phys_.frame(pfn);
        if (frame.owner == Frame::kFree)
            continue; // stale entry: frame freed by other paths

        AddressSpace &as = *spaces_[frame.owner];
        Pte *pte = as.findPte(frame.vpn);
        if (pte == nullptr || !pte->present || pte->pfn != pfn)
            continue; // stale entry

        if (target != nullptr && as.cgroup() != target) {
            clock_.push_back(pfn); // foreign cgroup: skip
            continue;
        }
        if (pte->pinCount > 0) {
            clock_.push_back(pfn); // pinned: never reclaimed
            continue;
        }
        if (pte->referenced) {
            pte->referenced = false; // second chance
            clock_.push_back(pfn);
            continue;
        }

        // Victim found: invalidate device mappings, write back, free.
        obs::tracer().instant(obs::Track::Mem, "mem", "evict");
        sim::Time cost = kMemCosts.evictCpu;
        cost += as.notifyInvalidate(frame.vpn);
        if (pte->dirty && !pte->fileBacked) {
            cost += swap_.writeLatency(1);
            swap_.storePage();
            pte->inSwap = true;
            ++stats_.swapOuts;
            obs::tracer().instant(obs::Track::Mem, "mem", "swap_out");
        }
        pte->dirty = false;
        phys_.release(pfn);
        pte->pfn = kNoFrame;
        pte->present = false;
        assert(as.residentPages_ > 0);
        --as.residentPages_;
        assert(as.cgroup()->usedPages > 0);
        --as.cgroup()->usedPages;
        ++stats_.evictions;
        return cost;
    }
    return std::nullopt;
}

} // namespace npf::mem
