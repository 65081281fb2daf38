/**
 * @file
 * A standard allocator that takes every block straight from the
 * kernel: private anonymous mmap, released with munmap. See
 * docs/MEMORY.md "Capacity is reserved, not touched".
 *
 * For multi-MiB arrays reserved to a bound and filled as the run
 * goes (mem::PhysicalMemory's frame table and recycle stack). Fresh
 * mappings read as zero and cost address space until touched, in the
 * first world a process builds and in every later one. A block from
 * the malloc heap may instead be a chunk an earlier world freed, whose
 * pages are already resident. munmap also hands the touched pages back
 * when the owner dies, so they do not stay behind as heap holes.
 *
 * Every allocate() is a system call: use it only for a few large
 * blocks per world, never on a hot path.
 */

#ifndef NPF_SIM_PAGE_ALLOCATOR_HH
#define NPF_SIM_PAGE_ALLOCATOR_HH

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>

namespace npf::sim {

template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    /** @throws std::bad_alloc when the kernel refuses the mapping. */
    T *
    allocate(std::size_t n)
    {
        if (n == 0)
            return nullptr;
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_alloc();
        void *p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        if (p)
            ::munmap(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }
};

} // namespace npf::sim

#endif // NPF_SIM_PAGE_ALLOCATOR_HH
