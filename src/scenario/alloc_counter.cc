#include "scenario/alloc_counter.hh"

#include <execinfo.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

std::uint64_t g_allocs = 0;
bool g_trace = false;
bool g_inHook = false;

struct AllocSite
{
    void *frames[12];
    int n = 0;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

AllocSite g_sites[256];
int g_nsites = 0;

void
recordAllocSite(std::size_t sz)
{
    void *frames[12];
    int n = backtrace(frames, 12);
    for (int i = 0; i < g_nsites; ++i) {
        AllocSite &s = g_sites[i];
        if (s.n == n && std::memcmp(s.frames, frames,
                                    std::size_t(n) * sizeof(void *)) == 0) {
            ++s.count;
            s.bytes += sz;
            return;
        }
    }
    if (g_nsites < 256) {
        AllocSite &s = g_sites[g_nsites++];
        std::memcpy(s.frames, frames, std::size_t(n) * sizeof(void *));
        s.n = n;
        s.count = 1;
        s.bytes = sz;
    }
}

} // namespace

namespace npf::scenario {

std::uint64_t
allocCount()
{
    return g_allocs;
}

void
traceAllocSites(bool on)
{
    static bool warmed = false;
    if (on && !warmed) {
        void *w[4];
        backtrace(w, 4);
        warmed = true;
    }
    g_trace = on;
}

void
dumpAllocSites()
{
    for (int i = 0; i < g_nsites; ++i) {
        std::fprintf(stderr, "--- alloc site %d: count=%llu bytes=%llu\n",
                     i, static_cast<unsigned long long>(g_sites[i].count),
                     static_cast<unsigned long long>(g_sites[i].bytes));
        backtrace_symbols_fd(g_sites[i].frames, g_sites[i].n, 2);
    }
}

} // namespace npf::scenario

void *
operator new(std::size_t sz)
{
    ++g_allocs;
    if (g_trace && !g_inHook) {
        g_inHook = true;
        recordAllocSite(sz);
        g_inHook = false;
    }
    if (void *p = std::malloc(sz != 0 ? sz : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t sz)
{
    return ::operator new(sz);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
