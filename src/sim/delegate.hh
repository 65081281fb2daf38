/**
 * @file
 * Inline callable for the event-engine hot path.
 *
 * sim::Delegate is the void() callable of sim::EventQueue,
 * net::Link, net::Fabric and core::NpfController. It stores its
 * callable in place, in a 112-byte buffer: no heap allocation, no
 * virtual dispatch, one indirect call through a free-function stub.
 * There is no heap fallback. A callable over 112 bytes, aligned
 * beyond alignof(std::max_align_t) or with a move constructor that
 * may throw does not compile, and the error names the limit; so every
 * scheduled callable is allocation-free by its type.
 *
 * Construction costs exactly one move (of an rvalue) or one copy (of
 * an lvalue): the constructor and assign() forward their argument
 * straight into the storage. sim::EventQueue relies on that to build
 * each event's callable once, in its slab entry, and run it there.
 *
 * The capacity is sized for the fattest per-packet closure in the
 * tree: net::Fabric's hop closure around an ib::QueuePair packet's
 * delivery (a Packet plus a peer pointer). A Delegate is itself 128
 * bytes, so a closure that captures one never fits: capture the inner
 * callable by its own type, or park it in a sim::Pool and capture the
 * PoolRef.
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
            other.manage_(Op::CopyTo, buf_, other.buf_);
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
            m(Op::Destroy, buf_, nullptr);
        }
    }

    void operator()() { invoke_(buf_); }

    explicit operator bool() const { return invoke_ != nullptr; }

  private:
    enum class Op { MoveTo, CopyTo, Destroy };
    using Invoke = void (*)(void *);
    using Manage = void (*)(Op, void *, const void *);

    /** The T that lives in the storage at @p p. */
    template <typename T>
    static T *
    held(const void *p)
    {
        return std::launder(static_cast<T *>(const_cast<void *>(p)));
    }

    /** Build the callable from @p f in storage; the delegate is empty. */
    template <typename Arg>
    void
    emplace(Arg &&f)
    {
        using F = std::remove_cvref_t<Arg>;
        static_assert(sizeof(F) <= kInlineCapacity,
                      "sim::Delegate: the callable exceeds the 112-byte "
                      "inline buffer (kInlineCapacity); a Delegate never "
                      "allocates, so capture less or park the state in a "
                      "sim::Pool and capture the PoolRef");
        static_assert(alignof(F) <= kInlineAlign,
                      "sim::Delegate: the callable is over-aligned; the "
                      "inline buffer is aligned to alignof(max_align_t)");
        static_assert(std::is_nothrow_move_constructible_v<F>,
                      "sim::Delegate: the callable's move constructor "
                      "may throw; a Delegate relocates its callable with "
                      "a noexcept move");
        ::new (static_cast<void *>(buf_)) F(std::forward<Arg>(f));
        invoke_ = [](void *s) { (*held<F>(s))(); };
        manage_ = [](Op op, void *dst, const void *src) {
            switch (op) {
              case Op::MoveTo:
                // Full relocation: move-construct, destroy source.
                ::new (dst) F(std::move(*held<F>(src)));
                held<F>(src)->~F();
                break;
              case Op::CopyTo:
                ::new (dst) F(*held<const F>(src));
                break;
              case Op::Destroy:
                held<F>(dst)->~F();
                break;
            }
        };
    }

    void
    moveFrom(Delegate &other) noexcept
    {
        if (other.invoke_) {
            other.manage_(Op::MoveTo, buf_, other.buf_);
            invoke_ = other.invoke_;
            manage_ = other.manage_;
            other.invoke_ = nullptr;
            other.manage_ = nullptr;
        }
    }

    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
    alignas(kInlineAlign) unsigned char buf_[kInlineCapacity];
};

} // namespace npf::sim

#endif // NPF_SIM_DELEGATE_HH
