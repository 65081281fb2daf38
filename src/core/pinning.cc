#include "core/pinning.hh"

#include <cassert>

namespace npf::core {

namespace {

sim::Time
pinCost(const PinCosts &c, std::size_t pages)
{
    return c.pinBase + pages * (c.pinPerPage + c.iommuMapPerPage);
}

sim::Time
unpinCost(const PinCosts &c, std::size_t pages)
{
    return c.unpinBase + pages * c.unpinPerPage;
}

} // namespace

// --- StaticPinning ---------------------------------------------------

StaticPinning::StaticPinning(NpfController &npfc, ChannelId ch,
                             PinCosts costs)
    : npfc_(npfc), ch_(ch), costs_(costs)
{
}

sim::Time
StaticPinning::setup(mem::VirtAddr base, std::size_t len)
{
    mem::AddressSpace &as = npfc_.space(ch_);
    mem::AccessResult res = as.pinRange(base, len);
    if (!res.ok) {
        ok_ = false;
        return res.cost;
    }
    std::size_t pages = mem::pagesCovering(base, len);
    pinnedBytes_ += pages * mem::kPageSize;
    // Map everything in the IOMMU once; DMAs never fault again.
    mem::AccessResult pf = npfc_.prefault(ch_, base, len, /*write=*/true);
    return res.cost + pf.cost + pinCost(costs_, pages);
}

// --- FineGrainedPinning ------------------------------------------------

FineGrainedPinning::FineGrainedPinning(NpfController &npfc, ChannelId ch,
                                       PinCosts costs)
    : npfc_(npfc), ch_(ch), costs_(costs)
{
}

sim::Time
FineGrainedPinning::beforeDma(mem::VirtAddr addr, std::size_t len)
{
    mem::AddressSpace &as = npfc_.space(ch_);
    mem::AccessResult res = as.pinRange(addr, len);
    if (!res.ok) {
        ok_ = false;
        return res.cost;
    }
    std::size_t pages = mem::pagesCovering(addr, len);
    pinnedBytes_ += pages * mem::kPageSize;
    mem::AccessResult pf = npfc_.prefault(ch_, addr, len, /*write=*/true);
    return res.cost + pf.cost + pinCost(costs_, pages);
}

sim::Time
FineGrainedPinning::afterDma(mem::VirtAddr addr, std::size_t len)
{
    mem::AddressSpace &as = npfc_.space(ch_);
    as.unpinRange(addr, len);
    std::size_t pages = mem::pagesCovering(addr, len);
    assert(pinnedBytes_ >= pages * mem::kPageSize);
    pinnedBytes_ -= pages * mem::kPageSize;
    InvalidationBreakdown inv = npfc_.invalidateRange(ch_, addr, len);
    return unpinCost(costs_, pages) + inv.total();
}

// --- PinDownCache ------------------------------------------------------

PinDownCache::PinDownCache(NpfController &npfc, ChannelId ch,
                           std::size_t capacity_bytes, PinCosts costs)
    : npfc_(npfc), ch_(ch), capacity_(capacity_bytes), costs_(costs)
{
}

sim::Time
PinDownCache::beforeDma(mem::VirtAddr addr, std::size_t len)
{
    // Hit if one cached region covers the whole extent.
    auto it = regions_.upper_bound(addr);
    if (it != regions_.begin()) {
        --it;
        const Region &r = it->second;
        if (addr >= r.base && addr + len <= r.base + r.len) {
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            return costs_.cacheLookup;
        }
    }

    ++misses_;
    sim::Time cost = 0;

    // Re-registering the same base with a different length: retire
    // the old region first so its LRU entry cannot dangle. This is a
    // replacement, not a capacity eviction — count it separately so
    // eviction stats keep meaning "the budget pushed something out".
    auto same = regions_.find(addr);
    if (same != regions_.end()) {
        ++reregistrations_;
        cost += evictRegion(same);
    }

    // Bytes this extent would newly pin. Pages shared with cached
    // siblings are refcounted, not double-counted, so only pages not
    // yet tracked consume budget.
    auto new_bytes = [this, addr, len] {
        mem::Vpn first = mem::pageOf(addr);
        mem::Vpn last = mem::pageOf(addr + len - 1);
        std::size_t fresh = 0;
        for (mem::Vpn v = first; v <= last; ++v) {
            if (pageRefs_.find(v) == pageRefs_.end())
                ++fresh;
        }
        return fresh * mem::kPageSize;
    };

    // Recompute per eviction: evicting a sibling that shares pages
    // with this extent grows what the extent newly pins.
    while (capacity_ != 0 && pinnedBytes_ + new_bytes() > capacity_ &&
           !regions_.empty()) {
        cost += evictOne();
    }

    mem::AddressSpace &as = npfc_.space(ch_);
    mem::AccessResult res = as.pinRange(addr, len);
    if (!res.ok) {
        // Under memory pressure keep evicting; if nothing is left to
        // evict, report failure. Each failed attempt still burned CPU
        // faulting pages in before it hit the wall — charge it.
        while (!res.ok && !regions_.empty()) {
            cost += res.cost;
            cost += evictOne();
            res = as.pinRange(addr, len);
        }
        if (!res.ok) {
            ok_ = false;
            return cost + res.cost;
        }
    }
    cost += res.cost;
    std::size_t pages = mem::pagesCovering(addr, len);
    mem::AccessResult pf = npfc_.prefault(ch_, addr, len, /*write=*/true);
    cost += pf.cost + pinCost(costs_, pages) + costs_.regMrBase;

    mem::Vpn first = mem::pageOf(addr);
    mem::Vpn last = mem::pageOf(addr + len - 1);
    for (mem::Vpn v = first; v <= last; ++v) {
        if (++pageRefs_[v] == 1)
            pinnedBytes_ += mem::kPageSize;
    }
    lru_.push_front(addr);
    regions_[addr] = Region{addr, len, lru_.begin()};
    return cost;
}

sim::Time
PinDownCache::evictOne()
{
    assert(!regions_.empty());
    mem::VirtAddr victim = lru_.back();
    auto it = regions_.find(victim);
    assert(it != regions_.end());
    ++evictions_;
    return evictRegion(it);
}

sim::Time
PinDownCache::evictRegion(std::map<mem::VirtAddr, Region>::iterator it)
{
    Region r = it->second;
    lru_.erase(r.lruIt);
    regions_.erase(it);

    // The address space pins are per-region (pinRange refcounts at
    // the PTE), so the symmetric unpin is always safe.
    mem::AddressSpace &as = npfc_.space(ch_);
    as.unpinRange(r.base, r.len);

    std::size_t pages = mem::pagesCovering(r.base, r.len);
    sim::Time cost = unpinCost(costs_, pages);

    // Drop page refcounts; invalidate only runs no sibling region
    // still covers. A still-covered page must keep its device mapping
    // — the cache promised that sibling's DMAs hit without faulting.
    mem::Vpn run_start = 0;
    std::size_t run_pages = 0;
    auto flush_run = [&] {
        if (run_pages == 0)
            return;
        InvalidationBreakdown inv = npfc_.invalidateRange(
            ch_, mem::addrOf(run_start), run_pages * mem::kPageSize);
        cost += inv.total();
        run_pages = 0;
    };
    mem::Vpn first = mem::pageOf(r.base);
    mem::Vpn last = mem::pageOf(r.base + r.len - 1);
    for (mem::Vpn v = first; v <= last; ++v) {
        auto pr = pageRefs_.find(v);
        assert(pr != pageRefs_.end() && pr->second > 0);
        if (--pr->second == 0) {
            pageRefs_.erase(pr);
            assert(pinnedBytes_ >= mem::kPageSize);
            pinnedBytes_ -= mem::kPageSize;
            if (run_pages == 0)
                run_start = v;
            ++run_pages;
        } else {
            flush_run();
        }
    }
    flush_run();
    return cost;
}

// --- NpRdmaMapping ----------------------------------------------------

NpRdmaMapping::NpRdmaMapping(NpfController &npfc, ChannelId ch,
                             std::size_t table_entries, MapCosts costs)
    : npfc_(npfc), ch_(ch), costs_(costs),
      table_(table_entries == 0 ? 1 : table_entries)
{
    table_.reserve(table_.capacity());

    obs_.init("core.nprdma");
    obs_.counter("maps", &stats_.maps);
    obs_.counter("unmaps", &stats_.unmaps);
    obs_.counter("reuses", &stats_.reuses);
    obs_.counter("overflows", &stats_.overflows);
    obs_.counter("pages_mapped", &stats_.pagesMapped);
    obs_.counter("pages_unmapped", &stats_.pagesUnmapped);
}

bool
NpRdmaMapping::coveredElsewhere(mem::Vpn vpn) const
{
    // Live extents only (the LRU chain IS the live set); the table is
    // bounded, so this scan is allocation-free and short.
    for (std::uint32_t s = table_.mru(); s != Table::kNil;
         s = table_.next(s)) {
        mem::VirtAddr base = table_.key(s);
        std::size_t len = table_.value(s).len;
        if (len != 0 && vpn >= mem::pageOf(base) &&
            vpn <= mem::pageOf(base + len - 1))
            return true;
    }
    return false;
}

void
NpRdmaMapping::warmTlb(mem::VirtAddr addr, std::size_t len)
{
    // The map doorbell carries the new translations, so the device
    // cache is pre-loaded (no cold miss on first DMA). Pages an
    // in-flight sibling already cached take the insert() refresh
    // path — the re-map traffic IoTlb::Stats::refreshes counts.
    iommu::IoMmu &mmu = npfc_.iommu(ch_);
    mem::Vpn first = mem::pageOf(addr);
    mem::Vpn last = mem::pageOf(addr + len - 1);
    for (mem::Vpn v = first; v <= last; ++v) {
        if (auto pfn = mmu.pageTable().lookup(v))
            mmu.tlb().insert(v, *pfn);
    }
}

sim::Time
NpRdmaMapping::beforeDma(mem::VirtAddr addr, std::size_t len)
{
    sim::Time cost = costs_.tableLookup;
    if (len == 0)
        return cost;

    std::uint32_t s = table_.find(addr);
    if (s != Table::kNil) {
        Extent &e = table_.value(s);
        if (len <= e.len) {
            // In-flight reuse: the extent is already mapped; just
            // take a reference on the table entry.
            ++e.refs;
            ++stats_.reuses;
            table_.touch(s);
            return cost;
        }
        // Same base, longer extent: map the missing tail and grow
        // the entry so the widest in-flight IO stays covered.
        mem::VirtAddr tail = addr + e.len;
        std::size_t tail_len = len - e.len;
        mem::AccessResult pf = npfc_.prefault(ch_, tail, tail_len, true);
        if (!pf.ok) {
            ok_ = false;
            return cost + pf.cost;
        }
        std::size_t pages = mem::pagesCovering(tail, tail_len);
        warmTlb(tail, tail_len);
        e.len = len;
        ++e.refs;
        ++stats_.maps;
        stats_.pagesMapped += pages;
        table_.touch(s);
        return cost + pf.cost + costs_.mapBase +
               pages * costs_.mapPerPage;
    }

    // Fresh mapping. The table bounds how many in-flight extents the
    // driver tracks; past the bound the IO still maps, but untracked
    // (afterDma unmaps it by address).
    bool tracked = !table_.full();
    if (!tracked)
        ++stats_.overflows;

    // No pinning: fault the pages in CPU-side and install the IOMMU
    // PTEs. The memory stays reclaimable the whole time.
    mem::AccessResult pf = npfc_.prefault(ch_, addr, len, /*write=*/true);
    if (!pf.ok) {
        ok_ = false;
        return cost + pf.cost;
    }
    std::size_t pages = mem::pagesCovering(addr, len);
    warmTlb(addr, len);
    ++stats_.maps;
    stats_.pagesMapped += pages;
    cost += pf.cost + costs_.mapBase + pages * costs_.mapPerPage;

    if (tracked)
        table_.insert(addr, Extent{len, 1});
    return cost;
}

sim::Time
NpRdmaMapping::afterDma(mem::VirtAddr addr, std::size_t len)
{
    sim::Time cost = costs_.tableLookup;
    if (len == 0)
        return cost;

    std::uint32_t s = table_.find(addr);
    if (s != Table::kNil) {
        Extent &e = table_.value(s);
        assert(e.refs > 0);
        if (--e.refs > 0)
            return cost; // siblings still share the mapping
        std::size_t elen = e.len;
        table_.erase(s);
        return cost + unmapExtent(addr, elen);
    }
    // Untracked IO (table overflowed at map time).
    return cost + unmapExtent(addr, len);
}

sim::Time
NpRdmaMapping::unmapExtent(mem::VirtAddr base, std::size_t len)
{
    std::size_t pages = mem::pagesCovering(base, len);
    sim::Time cost = costs_.unmapBase + pages * costs_.unmapPerPage;
    ++stats_.unmaps;

    // Per-IO unmap with per-page IOTLB invalidation — the price of
    // not pinning on a commodity NIC. Pages another in-flight extent
    // still covers keep their mapping (its DMA must not fault).
    mem::Vpn run_start = 0;
    std::size_t run_pages = 0;
    auto flush_run = [&] {
        if (run_pages == 0)
            return;
        InvalidationBreakdown inv = npfc_.invalidateRange(
            ch_, mem::addrOf(run_start), run_pages * mem::kPageSize);
        cost += inv.total();
        stats_.pagesUnmapped += run_pages;
        run_pages = 0;
    };
    mem::Vpn first = mem::pageOf(base);
    mem::Vpn last = mem::pageOf(base + len - 1);
    for (mem::Vpn v = first; v <= last; ++v) {
        if (!coveredElsewhere(v)) {
            if (run_pages == 0)
                run_start = v;
            ++run_pages;
        } else {
            flush_run();
        }
    }
    flush_run();
    return cost;
}

} // namespace npf::core
