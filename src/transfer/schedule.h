/**
 * @file
 * Greedy transfer scheduling for parallel file transfer (paper §5.1).
 *
 * The schedule decides when each class file begins transferring so
 * that every class's *needed prefix* (global data plus the methods up
 * to its first-used one) arrives before the predicted cycle of its
 * first use — the paper's Figure 4, where class B starts before class
 * A so that Bar_B has fully arrived when main calls it.
 *
 * The greedy algorithm processes classes in the order their first
 * method is predicted to run. Each class is assigned the *latest*
 * start cycle that still delivers its needed prefix by its deadline,
 * verified against the shared-bandwidth link model (equal split,
 * concurrency limit) including every already-scheduled class; when no
 * start can meet the deadline the class starts at cycle 0. Predicted
 * first-use instants come from a profile run (train or test), or — for
 * the static estimator — from the cumulative static cycle cost of all
 * code placed earlier in the first-use order.
 *
 * Mispredicted classes are demand-fetched at run time (TransferEngine).
 */

#ifndef NSE_TRANSFER_SCHEDULE_H
#define NSE_TRANSFER_SCHEDULE_H

#include <cstdint>
#include <vector>

#include "analysis/first_use.h"
#include "restructure/layout.h"
#include "transfer/link.h"

namespace nse
{

/** Planned start cycle per layout stream. */
struct TransferSchedule
{
    std::vector<uint64_t> startCycle;
};

/** Per-stream scheduling inputs derived from a first-use ordering. */
struct StreamDemand
{
    /** Streams in order of their first method's predicted first use. */
    std::vector<int> streamOrder;
    /** Needed-prefix bytes per stream (through its first-used method). */
    std::vector<uint64_t> prefixBytes;
    /** Predicted first-use cycle per stream (UINT64_MAX = never). */
    std::vector<uint64_t> deadline;
    /**
     * First-use dependencies (paper §5.1): deps[s] holds, for every
     * class first-used before s, the bytes of that class needed before
     * s's first method runs (its byte high-water at that point).
     */
    std::vector<std::vector<std::pair<int, uint64_t>>> deps;
};

/**
 * Derive per-stream prefixes and deadlines from the global first-use
 * order and per-method predicted first-use cycles (parallel to
 * order.order; UINT64_MAX for appended never-used methods).
 */
StreamDemand deriveStreamDemand(const Program &prog,
                                const FirstUseOrder &order,
                                const TransferLayout &layout,
                                const std::vector<uint64_t> &method_cycles);

/**
 * Predicted first-use cycles for an ordering with no profile: the
 * cumulative static cycle cost (per-opcode interpreter costs) of all
 * code placed earlier. Parallel to order.order.
 */
std::vector<uint64_t> staticFirstUseCycles(const Program &prog,
                                           const FirstUseOrder &order);

/**
 * Build the greedy latest-feasible-start schedule. Planning is always
 * done against the nominal link — the server cannot foresee bandwidth
 * dips or connection drops — so a run evaluated under a fault plan
 * keeps this schedule and its demand fetches absorb the slack.
 */
TransferSchedule buildGreedySchedule(const TransferLayout &layout,
                                     const StreamDemand &demand,
                                     const LinkModel &link, int limit);

} // namespace nse

#endif // NSE_TRANSFER_SCHEDULE_H
