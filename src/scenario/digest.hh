/**
 * @file
 * The replay digest: byte-wise FNV-1a over 64-bit words, low byte
 * first. A run folds its end state into one Digest, and every replay
 * of the same seed must reproduce it bit for bit.
 */

#ifndef NPF_SCENARIO_DIGEST_HH
#define NPF_SCENARIO_DIGEST_HH

#include <cstdint>

namespace npf::scenario {

struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

} // namespace npf::scenario

#endif // NPF_SCENARIO_DIGEST_HH
