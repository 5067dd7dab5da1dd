/**
 * @file
 * Seeded deterministic client arrival plans for the server
 * simulation: when each of N clients shows up and starts drawing on
 * the shared uplink. Everything is a pure function of (plan, N) —
 * same plan, same arrival cycles, whatever thread count or host runs
 * the simulation (support/rng.h discipline).
 */

#ifndef NSE_SERVER_ARRIVALS_H
#define NSE_SERVER_ARRIVALS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nse
{

/** How client arrival cycles are drawn. */
enum class ArrivalKind : uint8_t
{
    Simultaneous, ///< everyone at cycle 0 (worst-case contention)
    Staggered,    ///< fixed spacing: client i at i * meanGapCycles
    Uniform,      ///< seeded uniform draws over [0, windowCycles)
};

/** A deterministic arrival process for N clients. */
struct ArrivalPlan
{
    ArrivalKind kind = ArrivalKind::Simultaneous;
    uint64_t seed = 0;
    /** Uniform: arrivals are drawn in [0, windowCycles). */
    uint64_t windowCycles = 0;
    /** Staggered: spacing between consecutive arrivals. */
    uint64_t meanGapCycles = 0;

    /**
     * Arrival cycle per client, sorted ascending (client order in the
     * server is by spec index; the sort only canonicalizes the random
     * draws). Depends only on this plan and `n`.
     */
    std::vector<uint64_t> cycles(size_t n) const;
};

} // namespace nse

#endif // NSE_SERVER_ARRIVALS_H
