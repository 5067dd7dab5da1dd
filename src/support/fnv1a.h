/**
 * @file
 * 64-bit FNV-1a, the one content hash of the codebase: the workload
 * half of the edge-cache key (SimContext::contentKey) and the edge
 * cache's own artifact keys (cache/edge_cache.h) both fold their
 * fields through it. Integers are folded least-significant byte
 * first, so a key is the same on every host.
 */

#ifndef NSE_SUPPORT_FNV1A_H
#define NSE_SUPPORT_FNV1A_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace nse
{

struct Fnv1a
{
    uint64_t h = 1469598103934665603ull;

    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

} // namespace nse

#endif // NSE_SUPPORT_FNV1A_H
