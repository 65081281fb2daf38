#include "mem/address_space.hh"

#include <cassert>

#include "mem/memory_manager.hh"

namespace npf::mem {

AddressSpace::AddressSpace(MemoryManager &mm, std::uint32_t id,
                           std::string name, Cgroup *cgroup)
    : mm_(mm), id_(id), name_(std::move(name)), cgroup_(cgroup)
{
}

AddressSpace::~AddressSpace() = default;

VirtAddr
AddressSpace::allocRegion(std::size_t bytes, std::string label,
                          bool file_backed)
{
    std::size_t pages = pagesFor(bytes);
    VirtAddr base = nextRegionBase_;
    // Frame's reverse map keeps a 32-bit vpn.
    if (pageOf(base) + pages > Frame::kMaxVpn + 1)
        fatal("mem::AddressSpace %s: region of %zu pages at 0x%llx "
              "reaches past vpn %llu, the largest a frame records",
              name_.c_str(), pages, static_cast<unsigned long long>(base),
              static_cast<unsigned long long>(Frame::kMaxVpn));
    // Leave a guard page between regions to catch overruns in tests.
    nextRegionBase_ += addrOf(pages + 1);
    regions_.push_back(Region{base, pages, std::move(label), file_backed});
    return base;
}

void
AddressSpace::freeRegion(VirtAddr base)
{
    for (auto it = regions_.begin(); it != regions_.end(); ++it) {
        if (it->base != base)
            continue;
        Vpn first = pageOf(it->base);
        for (Vpn vpn = first; vpn < first + it->pages; ++vpn) {
            Pte *p = pageTable_.find(vpn);
            if (p == nullptr)
                continue;
            if (p->present)
                mm_.dropPage(*this, vpn, *p);
            pageTable_.erase(vpn);
        }
        regions_.erase(it);
        return;
    }
    fatal("mem::AddressSpace %s: freeRegion of 0x%llx, which is not the "
          "base of a region",
          name_.c_str(), static_cast<unsigned long long>(base));
}

AccessResult
AddressSpace::touch(VirtAddr addr, std::size_t len, bool write)
{
    AccessResult res;
    if (len == 0)
        return res;
    Vpn first = pageOf(addr);
    Vpn last = pageOf(addr + len - 1);
    for (Vpn vpn = first; vpn <= last && res.ok; ++vpn) {
        AccessResult one = touchPage(vpn, write);
        res.cost += one.cost;
        res.minorFaults += one.minorFaults;
        res.majorFaults += one.majorFaults;
        res.ok = one.ok;
    }
    return res;
}

AccessResult
AddressSpace::touchPage(Vpn vpn, bool write)
{
    AccessResult res;
    Pte &entry = pte(vpn);
    if (entry.present) {
        entry.referenced = true;
        entry.dirty |= write;
        return res;
    }
    FaultResult fr = mm_.faultIn(*this, vpn, write);
    res.cost = fr.cost;
    res.ok = fr.ok;
    if (fr.ok) {
        if (fr.major)
            res.majorFaults = 1;
        else
            res.minorFaults = 1;
    }
    return res;
}

AccessResult
AddressSpace::pinRange(VirtAddr addr, std::size_t len)
{
    AccessResult res;
    if (len == 0)
        return res;
    std::size_t pages = pagesCovering(addr, len);
    if (!mm_.chargePin(pages)) {
        res.ok = false;
        return res;
    }
    Vpn first = pageOf(addr);
    for (Vpn vpn = first; vpn < first + pages; ++vpn) {
        AccessResult one = touchPage(vpn, /*write=*/false);
        res.cost += one.cost;
        res.minorFaults += one.minorFaults;
        res.majorFaults += one.majorFaults;
        if (!one.ok) {
            // Roll back pins taken so far.
            for (Vpn v = first; v < vpn; ++v) {
                Pte &p = pte(v);
                assert(p.pinCount > 0);
                if (--p.pinCount == 0)
                    --pinnedPages_;
            }
            mm_.unchargePin(pages);
            res.ok = false;
            return res;
        }
        Pte &p = pte(vpn);
        if (p.pinCount == Pte::kMaxPins)
            fatal("mem::AddressSpace %s: pin of vpn %llu past %u pins",
                  name_.c_str(), static_cast<unsigned long long>(vpn),
                  Pte::kMaxPins);
        if (p.pinCount++ == 0)
            ++pinnedPages_;
    }
    return res;
}

void
AddressSpace::unpinRange(VirtAddr addr, std::size_t len)
{
    if (len == 0)
        return;
    std::size_t pages = pagesCovering(addr, len);
    Vpn first = pageOf(addr);
    for (Vpn vpn = first; vpn < first + pages; ++vpn) {
        Pte &p = pte(vpn);
        if (p.pinCount == 0)
            fatal("mem::AddressSpace %s: unpin of vpn %llu, which is not "
                  "pinned",
                  name_.c_str(), static_cast<unsigned long long>(vpn));
        if (--p.pinCount == 0)
            --pinnedPages_;
    }
    mm_.unchargePin(pages);
}

bool
AddressSpace::isPresent(Vpn vpn) const
{
    const Pte *p = findPte(vpn);
    return p != nullptr && p->present;
}

const Pte *
AddressSpace::findPte(Vpn vpn) const
{
    return pageTable_.find(vpn);
}

Pte *
AddressSpace::findPte(Vpn vpn)
{
    return pageTable_.find(vpn);
}

Pte &
AddressSpace::pte(Vpn vpn)
{
    auto [entry, inserted] = pageTable_.insert(vpn);
    if (inserted) {
        // Inherit file-backed-ness from the containing region.
        for (const Region &r : regions_) {
            Vpn first = pageOf(r.base);
            if (vpn >= first && vpn < first + r.pages) {
                entry.fileBacked = r.fileBacked;
                break;
            }
        }
    }
    return entry;
}

void
AddressSpace::registerInvalidateNotifier(InvalidateNotifier fn)
{
    notifiers_.push_back(std::move(fn));
}

sim::Time
AddressSpace::notifyInvalidate(Vpn vpn)
{
    sim::Time cost = 0;
    for (auto &fn : notifiers_)
        cost += fn(vpn);
    return cost;
}

} // namespace npf::mem
