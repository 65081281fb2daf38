/**
 * @file
 * Per-thread singletons that a worker thread frees when it exits.
 *
 * Slabs and registries that event closures point into (the TCP
 * segment pool, the fabric's parking pools, the metrics registry,
 * the flow tracer) are thread_local pointers to
 * heap objects that are never destroyed implicitly: closures holding
 * refs into them live in event queues and worlds whose teardown order
 * against static or thread-exit destruction is unknowable. On the
 * main thread they live until the process ends. A ShardedEngine
 * worker, however, is joined long before that, after its worlds and
 * its queue died on it; one leaked set per worker per engine adds up.
 *
 * newThreadOwned() allocates such an object and threads it onto the
 * calling thread's release list; releaseThreadOwned() destroys the
 * list, newest first (the reverse of creation, as for statics). Only
 * a thread with nothing left that points into them calls it: a shard
 * worker on its way out. The accessor pattern stays one TLS load:
 *
 *   static thread_local auto *pool = sim::newThreadOwned<Pool<X>>("x");
 *   return *pool;
 */

#ifndef NPF_SIM_THREAD_OWNED_HH
#define NPF_SIM_THREAD_OWNED_HH

#include <utility>

namespace npf::sim {

namespace detail {

struct ThreadOwnedNode
{
    virtual ~ThreadOwnedNode() = default;
    ThreadOwnedNode *next = nullptr;
};

template <typename T>
struct ThreadOwned final : ThreadOwnedNode
{
    template <typename... A>
    explicit ThreadOwned(A &&...args) : value(std::forward<A>(args)...)
    {
    }
    T value;
};

/// Newest first. A plain pointer, so it has no thread-exit destructor
/// of its own and stays usable however late a singleton is created.
constinit inline thread_local ThreadOwnedNode *threadOwnedHead = nullptr;

} // namespace detail

/** Heap-allocate a T for the calling thread; it lives until this
 *  thread calls releaseThreadOwned(), or forever if it never does. */
template <typename T, typename... A>
T *
newThreadOwned(A &&...args)
{
    auto *node = new detail::ThreadOwned<T>(std::forward<A>(args)...);
    node->next = detail::threadOwnedHead;
    detail::threadOwnedHead = node;
    return &node->value;
}

/** Destroy every object the calling thread made with newThreadOwned,
 *  newest first. Their accessors dangle afterwards: call it only as
 *  the thread's last act. */
inline void
releaseThreadOwned()
{
    while (detail::ThreadOwnedNode *node = detail::threadOwnedHead) {
        detail::threadOwnedHead = node->next;
        delete node;
    }
}

} // namespace npf::sim

#endif // NPF_SIM_THREAD_OWNED_HH
