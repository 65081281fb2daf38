/**
 * @file
 * A translation unit that must not compile. Each delegate_ case hands
 * EventQueue::schedule a callable that a sim::Delegate cannot hold in
 * its inline buffer; the fabric_ case hands net::Fabric::send a
 * delivery callable that the Delegate would hold but the fabric's hop
 * closure, which captures it, would not. tests/CMakeLists.txt
 * compiles it once per case (-DNPF_CASE_<name>), and the test passes
 * only if the compiler rejects it with the message of the limit the
 * case breaks.
 */

#include "net/fabric.hh"
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
#elif defined(NPF_CASE_fabric_oversize_deliver)
    // 104 bytes: within the Delegate's 112, past the fabric's 96.
    struct Packet
    {
        char blob[104];
    } pkt{};
    npf::net::Fabric fabric(eq, 2);
    fabric.send(0, 1, 64, [pkt] { (void)pkt; });
#else
#error "define one NPF_CASE_<name>"
#endif
    eq.run();
}
