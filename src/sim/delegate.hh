/**
 * @file
 * Small-buffer-optimized callable for the event-engine hot path.
 *
 * sim::Delegate is a drop-in replacement for std::function<void()> on
 * the per-packet scheduling paths: callables whose captures fit in the
 * inline buffer are stored in place (no heap allocation, no virtual
 * dispatch — one indirect call through a free-function stub). Larger
 * or throwing-move callables fall back to one heap allocation.
 *
 * Construction costs exactly one move (of an rvalue) or one copy (of
 * an lvalue): the constructor and assign() forward their argument
 * straight into the storage. sim::EventQueue relies on that to build
 * each event's callable once, in its slab entry, and run it there.
 *
 * The inline capacity is sized for the fattest per-packet closure in
 * the tree (an ib::QueuePair::Packet plus a peer pointer); use
 * Delegate::fitsInline<F> in a static_assert to pin a call site to the
 * no-allocation path.
 */

#ifndef NPF_SIM_DELEGATE_HH
#define NPF_SIM_DELEGATE_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace npf::sim {

class Delegate
{
  public:
    /** Inline storage, sized so sizeof(Delegate) is two cache lines. */
    static constexpr std::size_t kInlineCapacity = 112;
    static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

    /** True when F is stored in place (no heap allocation). */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= kInlineCapacity && alignof(F) <= kInlineAlign &&
        std::is_nothrow_move_constructible_v<F>;

    Delegate() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, Delegate> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F> &>>>
    Delegate(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    Delegate(Delegate &&other) noexcept { moveFrom(other); }

    Delegate(const Delegate &other)
    {
        if (other.invoke_) {
            other.manage_(Op::CopyTo, &st_, &other.st_);
            invoke_ = other.invoke_;
            manage_ = other.manage_;
        }
    }

    Delegate &
    operator=(Delegate &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    Delegate &
    operator=(const Delegate &other)
    {
        if (this != &other) {
            Delegate tmp(other);
            reset();
            moveFrom(tmp);
        }
        return *this;
    }

    ~Delegate() { reset(); }

    /**
     * Replace the held callable with @p f. A callable is built in
     * place from the argument (one move or one copy); a Delegate is
     * moved or copied in.
     */
    template <typename F>
    void
    assign(F &&f)
    {
        if constexpr (std::is_same_v<std::remove_cvref_t<F>, Delegate>) {
            *this = std::forward<F>(f);
        } else {
            static_assert(
                std::is_invocable_r_v<void, std::remove_cvref_t<F> &>,
                "a Delegate holds a void() callable");
            reset();
            emplace(std::forward<F>(f));
        }
    }

    /** Destroy the held callable, leaving the delegate empty. */
    void
    reset()
    {
        if (invoke_) {
            // Clear before destroying: the captured state's destructor
            // may re-enter the owner (e.g. cancel further events).
            Manage m = manage_;
            invoke_ = nullptr;
            manage_ = nullptr;
            m(Op::Destroy, &st_, nullptr);
        }
    }

    void operator()() { invoke_(&st_); }

    explicit operator bool() const { return invoke_ != nullptr; }

  private:
    union Storage
    {
        alignas(kInlineAlign) unsigned char buf[kInlineCapacity];
        void *ptr;
    };

    enum class Op { MoveTo, CopyTo, Destroy };
    using Invoke = void (*)(Storage *);
    using Manage = void (*)(Op, Storage *, const Storage *);

    /** Build the callable from @p f in storage; the delegate is empty. */
    template <typename Arg>
    void
    emplace(Arg &&f)
    {
        using F = std::remove_cvref_t<Arg>;
        if constexpr (fitsInline<F>) {
            ::new (static_cast<void *>(st_.buf)) F(std::forward<Arg>(f));
            invoke_ = [](Storage *s) {
                (*std::launder(reinterpret_cast<F *>(s->buf)))();
            };
            manage_ = [](Op op, Storage *dst, const Storage *src) {
                switch (op) {
                  case Op::MoveTo:
                    // Full relocation: move-construct, destroy source.
                    ::new (static_cast<void *>(dst->buf)) F(std::move(
                        *std::launder(reinterpret_cast<F *>(
                            const_cast<unsigned char *>(src->buf)))));
                    std::launder(reinterpret_cast<F *>(
                                     const_cast<unsigned char *>(src->buf)))
                        ->~F();
                    break;
                  case Op::CopyTo:
                    ::new (static_cast<void *>(dst->buf)) F(
                        *std::launder(reinterpret_cast<const F *>(src->buf)));
                    break;
                  case Op::Destroy:
                    std::launder(reinterpret_cast<F *>(dst->buf))->~F();
                    break;
                }
            };
        } else {
            st_.ptr = new F(std::forward<Arg>(f));
            invoke_ = [](Storage *s) { (*static_cast<F *>(s->ptr))(); };
            manage_ = [](Op op, Storage *dst, const Storage *src) {
                switch (op) {
                  case Op::MoveTo:
                    dst->ptr = src->ptr; // pointer steal
                    break;
                  case Op::CopyTo:
                    dst->ptr = new F(*static_cast<const F *>(src->ptr));
                    break;
                  case Op::Destroy:
                    delete static_cast<F *>(dst->ptr);
                    break;
                }
            };
        }
    }

    void
    moveFrom(Delegate &other) noexcept
    {
        if (other.invoke_) {
            other.manage_(Op::MoveTo, &st_, &other.st_);
            invoke_ = other.invoke_;
            manage_ = other.manage_;
            other.invoke_ = nullptr;
            other.manage_ = nullptr;
        }
    }

    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
    Storage st_;
};

} // namespace npf::sim

#endif // NPF_SIM_DELEGATE_HH
