/**
 * @file
 * Flat radix map from virtual page number to a per-page entry, shared
 * by the CPU page table (mem::AddressSpace) and the device-side I/O
 * page table (iommu::IoPageTable).
 *
 * Shaped like an x86 last-level page table: a leaf covers 512
 * consecutive pages (2 MiB of VA) and carries an in-use bitmap next
 * to its entries. Leaves are allocated on the first insert into their
 * span and never freed or moved until the map dies, so a reference
 * returned by find() or insert() stays valid across any later insert
 * or erase of *other* pages. A lookup is a shift, one directory load,
 * and a bit test: no hashing and no per-page heap node, which is why
 * the DMA path (one find per page of every DMA) can afford it.
 *
 * The directory is dense for leaves below kDenseLeaves (vpn < 2^29,
 * i.e. 2 TiB of VA, where every address space in the tree lives) and
 * grows to the highest leaf touched. Higher leaves, so any 64-bit vpn,
 * go through an open-addressing side table keyed by leaf number.
 */

#ifndef NPF_MEM_PAGE_MAP_HH
#define NPF_MEM_PAGE_MAP_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mem/types.hh"

namespace npf::mem {

template <typename T>
class PageMap
{
  public:
    static constexpr unsigned kLeafBits = 9;
    static constexpr std::size_t kLeafPages = std::size_t(1) << kLeafBits;
    /** Leaf numbers below this are indexed directly. */
    static constexpr std::uint64_t kDenseLeaves = std::uint64_t(1) << 20;

    /** Entry for @p vpn; nullptr when it was never inserted (or was
     *  erased since). */
    const T *
    find(Vpn vpn) const
    {
        const Leaf *leaf = leafOf(vpn >> kLeafBits);
        unsigned i = unsigned(vpn & (kLeafPages - 1));
        return leaf != nullptr && leaf->used(i) ? &leaf->slots[i] : nullptr;
    }

    T *
    find(Vpn vpn)
    {
        return const_cast<T *>(std::as_const(*this).find(vpn));
    }

    /**
     * Entry for @p vpn, value-initialised and marked in use when it
     * was absent. @return the entry and whether it was just created.
     */
    std::pair<T &, bool>
    insert(Vpn vpn)
    {
        Leaf &leaf = leafFor(vpn >> kLeafBits);
        unsigned i = unsigned(vpn & (kLeafPages - 1));
        if (leaf.used(i))
            return {leaf.slots[i], false};
        leaf.bits[i >> 6] |= std::uint64_t(1) << (i & 63);
        return {leaf.slots[i], true};
    }

    /** Drop @p vpn's entry. @return false when it was absent. */
    bool
    erase(Vpn vpn)
    {
        Leaf *leaf = leafOf(vpn >> kLeafBits);
        unsigned i = unsigned(vpn & (kLeafPages - 1));
        if (leaf == nullptr || !leaf->used(i))
            return false;
        leaf->bits[i >> 6] &= ~(std::uint64_t(1) << (i & 63));
        leaf->slots[i] = T{}; // the next insert hands out a fresh entry
        return true;
    }

  private:
    struct Leaf
    {
        std::array<std::uint64_t, kLeafPages / 64> bits{};
        std::array<T, kLeafPages> slots{};

        bool
        used(unsigned i) const
        {
            return (bits[i >> 6] >> (i & 63)) & 1;
        }
    };

    /** Side-table slot for a leaf at or above kDenseLeaves. */
    struct Far
    {
        std::uint64_t leafNo = kNoLeaf;
        std::unique_ptr<Leaf> leaf;
    };

    /** vpn >> kLeafBits never reaches this, so it marks empty slots. */
    static constexpr std::uint64_t kNoLeaf = ~std::uint64_t(0);

    Leaf *
    leafOf(std::uint64_t leafNo) const
    {
        if (leafNo < dense_.size())
            return dense_[leafNo].get();
        if (leafNo < kDenseLeaves || far_.empty())
            return nullptr;
        return far_[farSlot(leafNo)].leaf.get();
    }

    Leaf &
    leafFor(std::uint64_t leafNo)
    {
        if (leafNo < kDenseLeaves) {
            if (leafNo >= dense_.size())
                dense_.resize(leafNo + 1);
            std::unique_ptr<Leaf> &leaf = dense_[leafNo];
            if (leaf == nullptr)
                leaf = std::make_unique<Leaf>();
            return *leaf;
        }
        if ((farCount_ + 1) * 2 > far_.size())
            growFar();
        Far &f = far_[farSlot(leafNo)];
        if (f.leaf == nullptr) {
            f.leafNo = leafNo;
            f.leaf = std::make_unique<Leaf>();
            ++farCount_;
        }
        return *f.leaf;
    }

    /** Side-table slot holding @p leafNo, or the empty slot ending its
     *  probe chain. far_ is a power of two at most half full. */
    std::size_t
    farSlot(std::uint64_t leafNo) const
    {
        std::size_t mask = far_.size() - 1;
        std::size_t s =
            std::size_t((leafNo * 0x9e3779b97f4a7c15ull) >> 32) & mask;
        while (far_[s].leafNo != leafNo && far_[s].leafNo != kNoLeaf)
            s = (s + 1) & mask;
        return s;
    }

    void
    growFar()
    {
        std::vector<Far> old(far_.empty() ? 8 : far_.size() * 2);
        old.swap(far_);
        for (Far &f : old)
            if (f.leaf != nullptr)
                far_[farSlot(f.leafNo)] = std::move(f);
    }

    std::vector<std::unique_ptr<Leaf>> dense_; ///< by leaf number
    std::vector<Far> far_;                     ///< leaves >= kDenseLeaves
    std::size_t farCount_ = 0;
};

} // namespace npf::mem

#endif // NPF_MEM_PAGE_MAP_HH
