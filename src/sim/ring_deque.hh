/**
 * @file
 * Grow-only circular buffer with deque semantics (push_back /
 * pop_front / iteration), for bounded FIFO state on simulation hot
 * paths: TX queues, in-flight windows, software backup queues.
 *
 * std::deque allocates and frees fixed-size blocks as elements cycle
 * through it, so a steady-state producer/consumer pair churns the
 * heap forever. RingDeque keeps one power-of-two buffer that only
 * ever grows: once a queue has seen its high-water mark, pushing and
 * popping never allocate again. pop_front() resets the vacated slot
 * to a default-constructed T, so element-owned resources (pooled
 * payload refs, closures) are dropped promptly, not when the slot is
 * next overwritten.
 *
 * The buffer is default-initialised, not value-initialised, so
 * reserve() on a trivial T costs address space only: a ring reserved
 * to a large bound that it rarely reaches touches just the slots it
 * uses. Only slots in [front, back] are ever read.
 */

#ifndef NPF_SIM_RING_DEQUE_HH
#define NPF_SIM_RING_DEQUE_HH

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace npf::sim {

template <typename T>
class RingDeque
{
  public:
    RingDeque() = default;

    /** Pre-size to at least @p n slots (rounded up to a power of 2). */
    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            regrow(n);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return buf_[wrap(head_ + size_ - 1)]; }
    const T &back() const { return buf_[wrap(head_ + size_ - 1)]; }

    /** Logical indexing: [0] is the front. */
    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    void
    push_back(T v)
    {
        if (size_ == cap_)
            regrow(size_ + 1);
        buf_[wrap(head_ + size_)] = std::move(v);
        ++size_;
    }

    void
    pop_front()
    {
        assert(size_ > 0);
        buf_[head_] = T(); // drop owned resources now
        head_ = wrap(head_ + 1);
        --size_;
    }

    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

    // --- iteration (forward, front to back) ---------------------------

    template <typename Ring, typename Value>
    class Iter
    {
      public:
        Iter(Ring *r, std::size_t pos) : r_(r), pos_(pos) {}
        Value &operator*() const { return (*r_)[pos_]; }
        Value *operator->() const { return &(*r_)[pos_]; }
        Iter &operator++()
        {
            ++pos_;
            return *this;
        }
        bool operator==(const Iter &o) const { return pos_ == o.pos_; }
        bool operator!=(const Iter &o) const { return pos_ != o.pos_; }

      private:
        Ring *r_;
        std::size_t pos_;
    };

    using iterator = Iter<RingDeque, T>;
    using const_iterator = Iter<const RingDeque, const T>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, size_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

  private:
    std::size_t wrap(std::size_t i) const { return i & (cap_ - 1); }

    /** Grow to a power of two >= @p need, unwrapping into the new
     *  buffer so head_ restarts at 0. */
    void
    regrow(std::size_t need)
    {
        std::size_t cap = cap_ == 0 ? 8 : cap_;
        while (cap < need)
            cap *= 2;
        auto nb = std::make_unique_for_overwrite<T[]>(cap);
        for (std::size_t i = 0; i < size_; ++i)
            nb[i] = std::move((*this)[i]);
        buf_ = std::move(nb);
        cap_ = cap;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace npf::sim

#endif // NPF_SIM_RING_DEQUE_HH
