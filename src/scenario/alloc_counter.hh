/**
 * @file
 * The allocation gate's counter. alloc_counter.cc replaces the global
 * operator new/delete with a pair that counts every new (scalar and
 * array; delete stays count-free, only allocation matters) over
 * malloc/free. Link the npf_alloc_counter object library into a
 * single-threaded bench to use it: the count is a plain integer.
 */

#ifndef NPF_SCENARIO_ALLOC_COUNTER_HH
#define NPF_SCENARIO_ALLOC_COUNTER_HH

#include <cstdint>

namespace npf::scenario {

/** Global operator new calls so far in this process. */
std::uint64_t allocCount();

/**
 * While @p on, also bucket each allocation by call stack (up to 256
 * distinct stacks). The first call warms libgcc's unwinder so its own
 * allocations land before the caller's window opens.
 */
void traceAllocSites(bool on);

/** Print every bucketed stack to stderr (symbolize with addr2line). */
void dumpAllocSites();

} // namespace npf::scenario

#endif // NPF_SCENARIO_ALLOC_COUNTER_HH
