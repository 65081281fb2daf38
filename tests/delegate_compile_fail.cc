/**
 * @file
 * A translation unit that must not compile. Each case hands
 * EventQueue::schedule a callable that a sim::Delegate cannot hold in
 * its inline buffer. tests/CMakeLists.txt compiles it once per case
 * (-DNPF_CASE_<name>), and the test passes only if the compiler
 * rejects it with the Delegate's own static_assert message.
 */

#include "sim/event_queue.hh"

int
main()
{
    npf::sim::EventQueue eq;
#if defined(NPF_CASE_delegate_oversize)
    struct Big
    {
        char blob[256];
    } big{};
    eq.schedule(1, [big] { (void)big; });
#elif defined(NPF_CASE_delegate_nested)
    // A Delegate is 128 bytes: capturing one never fits.
    npf::sim::Delegate inner([] {});
    eq.schedule(1, [inner]() mutable { inner(); });
#elif defined(NPF_CASE_delegate_overaligned)
    struct alignas(64) Wide
    {
        char bytes[64];
    } wide{};
    eq.schedule(1, [wide] { (void)wide; });
#elif defined(NPF_CASE_delegate_throwing_move)
    struct Throwing
    {
        Throwing() = default;
        Throwing(const Throwing &) = default;
        Throwing(Throwing &&) noexcept(false) {}
    };
    eq.schedule(1, [t = Throwing{}] { (void)t; });
#else
#error "define one NPF_CASE_<name>"
#endif
    eq.run();
}
