/**
 * @file
 * Slab object pool with generation-stamped handles — the event
 * queue's slot-recycling recipe (event_queue.hh) generalized for any
 * hot-path object: frames, segment metadata, NPF breakdowns.
 *
 * Design points, shared with the ladder queue's slab:
 *
 *  - storage is chunked, so object addresses are stable across
 *    grow() (no reallocation of live objects, raw pointers may be
 *    cached alongside the handle);
 *  - every slot carries a generation counter bumped on release; a
 *    handle embeds the generation it was created under, so a stale
 *    or double release is detected exactly instead of silently
 *    corrupting the free list (the failure mode shared_ptr refcounts
 *    used to paper over);
 *  - acquire/release in steady state touch only the free list: zero
 *    heap allocation once the pool has grown to its high-water mark.
 *    Exhaustion grows gracefully by appending a chunk.
 *
 * Ownership across layers travels as a PoolRef: a type-erased RAII
 * reference that releases exactly once, moves by stealing, and
 * *clones on copy* (a copy is a new pooled object, never a second
 * owner of the same slot). Cloning keeps payload-carrying closures
 * compatible with sim::Delegate, whose copy path must compile even
 * for closures that are only ever moved (net::Link's duplicate fault
 * action does copy a delivery closure — each duplicate then owns its
 * own payload slot, and both releases are correct by construction).
 */

#ifndef NPF_SIM_POOL_HH
#define NPF_SIM_POOL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#ifndef NDEBUG
#include <thread>
#endif

namespace npf::sim {

/**
 * Reference to a pooled object: slab index + the generation the slot
 * had when acquired. Trivially copyable; copying the handle does NOT
 * copy ownership — exactly one release() per acquire() is the
 * contract, everything else is a checked error.
 */
struct PoolHandle
{
    static constexpr std::uint32_t kNullIdx = 0xffffffffu;

    std::uint32_t idx = kNullIdx;
    std::uint32_t gen = 0;

    explicit operator bool() const { return idx != kNullIdx; }
    bool operator==(const PoolHandle &o) const
    {
        return idx == o.idx && gen == o.gen;
    }
    bool operator!=(const PoolHandle &o) const { return !(*this == o); }
};

/**
 * Type-erased pool interface, so a PoolRef can travel through layers
 * that are opaque to the payload type (an eth::Frame does not know it
 * carries a tcp::Segment, just as the hardware sees only bytes).
 */
class PoolBase
{
  public:
    virtual ~PoolBase() = default;

    /** Release the slot behind @p h; aborts on stale/double release. */
    virtual void releaseOpaque(PoolHandle h) = 0;

    /**
     * Copy-construct a fresh pooled object from @p obj (which must be
     * an object of this pool's element type). @return the new slot's
     * address, with @p out set to its handle.
     */
    virtual void *cloneOpaque(const void *obj, PoolHandle &out) = 0;

    /** True when @p h refers to a live slot of the right generation. */
    virtual bool validHandle(PoolHandle h) const = 0;
};

/**
 * Owning, type-erased reference to one pooled object. Exactly-once
 * release via RAII; move steals, copy clones (see file comment).
 */
class PoolRef
{
  public:
    PoolRef() = default;
    PoolRef(PoolBase &pool, void *obj, PoolHandle h)
        : pool_(&pool), obj_(obj), h_(h)
    {
    }

    PoolRef(PoolRef &&o) noexcept
        : pool_(o.pool_), obj_(o.obj_), h_(o.h_)
    {
        o.pool_ = nullptr;
        o.obj_ = nullptr;
        o.h_ = PoolHandle{};
    }

    PoolRef &
    operator=(PoolRef &&o) noexcept
    {
        if (this != &o) {
            reset();
            pool_ = o.pool_;
            obj_ = o.obj_;
            h_ = o.h_;
            o.pool_ = nullptr;
            o.obj_ = nullptr;
            o.h_ = PoolHandle{};
        }
        return *this;
    }

    /** Copy = clone: the copy owns a brand-new slot. */
    PoolRef(const PoolRef &o)
    {
        if (o.obj_ != nullptr) {
            pool_ = o.pool_;
            obj_ = pool_->cloneOpaque(o.obj_, h_);
        }
    }

    PoolRef &
    operator=(const PoolRef &o)
    {
        if (this != &o) {
            reset();
            if (o.obj_ != nullptr) {
                pool_ = o.pool_;
                obj_ = pool_->cloneOpaque(o.obj_, h_);
            }
        }
        return *this;
    }

    ~PoolRef() { reset(); }

    /** Release now (idempotent on an empty ref). */
    void
    reset()
    {
        if (obj_ != nullptr) {
            pool_->releaseOpaque(h_);
            pool_ = nullptr;
            obj_ = nullptr;
            h_ = PoolHandle{};
        }
    }

    explicit operator bool() const { return obj_ != nullptr; }
    void *get() const { return obj_; }

    /** Downcast, mirroring the old static_pointer_cast use sites. */
    template <typename T>
    T *
    as() const
    {
        return static_cast<T *>(obj_);
    }

    PoolBase *pool() const { return pool_; }

  private:
    PoolBase *pool_ = nullptr;
    void *obj_ = nullptr;
    PoolHandle h_;
};

/**
 * The slab pool. @p T must be movable (for the callers') and
 * copy-constructible (for PoolRef's clone-on-copy).
 */
template <typename T>
class Pool final : public PoolBase
{
  public:
    /** @param name printed in the abort diagnostics.
     *  @param chunk_objs slots added per growth step. */
    explicit Pool(const char *name = "sim::Pool",
                  std::size_t chunk_objs = 256)
        : name_(name), chunkObjs_(chunk_objs)
    {
#ifndef NDEBUG
        owner_ = std::this_thread::get_id();
#endif
    }

    /**
     * Debug builds pin every pool to the thread that constructed it;
     * touching it from any other thread aborts (a pooled object that
     * crossed a shard boundary — the bug class sharding must never
     * paper over). Worlds are built on their shard's worker thread,
     * so the default owner is almost always right; rebindOwner() is
     * the explicit escape hatch for deliberate handoff.
     */
    void
    rebindOwner()
    {
#ifndef NDEBUG
        owner_ = std::this_thread::get_id();
#endif
    }

    ~Pool() override
    {
        // Destroy stragglers (objects still live at teardown, e.g.
        // frames parked in rings when a bench ends mid-flight).
        for (std::size_t c = 0; c < chunks_.size(); ++c)
            for (std::size_t i = 0; i < chunkObjs_; ++i) {
                Slot &s = chunks_[c][i];
                if (s.live)
                    ptr(s)->~T();
            }
    }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** Construct an object in a fresh slot. */
    template <typename... Args>
    PoolHandle
    create(Args &&...args)
    {
        checkOwner("create");
        std::uint32_t idx = allocSlot();
        Slot &s = slot(idx);
        new (s.storage) T(std::forward<Args>(args)...);
        s.live = true;
        ++liveCount_;
        return PoolHandle{idx, s.gen};
    }

    /** create() + wrap the result in an owning PoolRef. */
    template <typename... Args>
    PoolRef
    acquire(Args &&...args)
    {
        PoolHandle h = create(std::forward<Args>(args)...);
        return PoolRef(*this, ptr(slot(h.idx)), h);
    }

    /**
     * Checked dereference: aborts when @p h is stale (the slot was
     * released, possibly re-acquired under a new generation). This is
     * the fire-time revalidation deferred work uses before touching a
     * pooled object it does not own.
     */
    T *
    get(PoolHandle h)
    {
        checkOwner("get");
        check(h, "get");
        return ptr(slot(h.idx));
    }

    /** Non-aborting variant of get(): nullptr when stale. */
    T *
    tryGet(PoolHandle h)
    {
        checkOwner("tryGet");
        return validHandle(h) ? ptr(slot(h.idx)) : nullptr;
    }

    /** Destroy the object and recycle its slot. Aborts on a stale or
     *  repeated release — the bug class this pool exists to expose. */
    void
    release(PoolHandle h)
    {
        checkOwner("release");
        check(h, "release");
        Slot &s = slot(h.idx);
        ptr(s)->~T();
        s.live = false;
        ++s.gen; // invalidate every outstanding handle to this slot
        s.nextFree = freeHead_;
        freeHead_ = h.idx;
        --liveCount_;
    }

    // --- PoolBase ----------------------------------------------------

    void releaseOpaque(PoolHandle h) override { release(h); }

    void *
    cloneOpaque(const void *obj, PoolHandle &out) override
    {
        out = create(*static_cast<const T *>(obj));
        return ptr(slot(out.idx));
    }

    bool
    validHandle(PoolHandle h) const override
    {
        if (h.idx >= capacity())
            return false;
        const Slot &s =
            chunks_[h.idx / chunkObjs_][h.idx % chunkObjs_];
        return s.live && s.gen == h.gen;
    }

    // --- stats (leak assertions key off live()) ----------------------

    std::size_t live() const { return liveCount_; }
    std::size_t capacity() const { return chunks_.size() * chunkObjs_; }

  private:
    struct Slot
    {
        alignas(T) unsigned char storage[sizeof(T)];
        std::uint32_t gen = 1; ///< 0 never valid: default PoolHandle
        std::uint32_t nextFree = PoolHandle::kNullIdx;
        bool live = false;
    };

    Slot &
    slot(std::uint32_t idx)
    {
        return chunks_[idx / chunkObjs_][idx % chunkObjs_];
    }

    static T *ptr(Slot &s) { return std::launder(reinterpret_cast<T *>(s.storage)); }

    std::uint32_t
    allocSlot()
    {
        if (freeHead_ == PoolHandle::kNullIdx)
            grow();
        std::uint32_t idx = freeHead_;
        freeHead_ = slot(idx).nextFree;
        return idx;
    }

    /** Exhaustion: append one chunk (the only allocation the pool
     *  ever performs after reaching its high-water mark). */
    void
    grow()
    {
        std::size_t base = capacity();
        chunks_.push_back(std::make_unique<Slot[]>(chunkObjs_));
        // Thread the new slots onto the free list, low index first.
        for (std::size_t i = chunkObjs_; i-- > 0;) {
            Slot &s = chunks_.back()[i];
            s.nextFree = freeHead_;
            freeHead_ = static_cast<std::uint32_t>(base + i);
        }
    }

    void
    checkOwner(const char *op) const
    {
#ifndef NDEBUG
        if (std::this_thread::get_id() == owner_)
            return;
        std::fprintf(stderr,
                     "%s: %s from non-owner thread (pooled object "
                     "crossed a shard boundary)\n",
                     name_, op);
        std::abort();
#else
        (void)op;
#endif
    }

    void
    check(PoolHandle h, const char *op) const
    {
        if (validHandle(h))
            return;
        // A generation mismatch is a use-after-release (or release-
        // twice): deterministic abort instead of silent corruption.
        std::fprintf(stderr,
                     "%s: %s of stale handle idx=%u gen=%u "
                     "(use-after-release or double release)\n",
                     name_, op, h.idx, h.gen);
        std::abort();
    }

    const char *name_;
    std::size_t chunkObjs_;
#ifndef NDEBUG
    std::thread::id owner_;
#endif
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t freeHead_ = PoolHandle::kNullIdx;
    std::size_t liveCount_ = 0;
};

} // namespace npf::sim

#endif // NPF_SIM_POOL_HH
