/**
 * @file
 * Link behavior layer: variable bandwidth and transfer faults.
 *
 * The paper's evaluation assumes a perfectly constant link (one
 * cycles/byte figure per LinkModel). Real mobile links vary and drop:
 * this layer models both, deterministically, so every schedule built
 * against the *nominal* link can be *evaluated* under degraded
 * conditions — mispredictions and demand fetches absorb the slack,
 * exactly the paper's recovery path.
 *
 * Two orthogonal mechanisms:
 *
 *  - a BandwidthTrace scales the link's nominal bandwidth by a
 *    piecewise-constant multiplier over cycle windows (step profiles,
 *    or seeded burst profiles alternating nominal and degraded
 *    windows);
 *
 *  - per-stream interruption (drop) events: when a stream's byte
 *    cursor crosses a drop offset the connection is lost, the client
 *    retries after a timeout with exponential backoff, and the
 *    transfer resumes *from the drop offset* (HTTP range request —
 *    already-arrived bytes are never re-sent).
 *
 * Everything is seeded (support/rng.h), so faulted runs are as
 * reproducible byte-for-byte as the nominal ones.
 */

#ifndef NSE_TRANSFER_FAULTS_H
#define NSE_TRANSFER_FAULTS_H

#include <cstdint>
#include <vector>

namespace nse
{

/** One window of a bandwidth trace: from startCycle onward the link
 *  runs at multiplier x nominal bandwidth (until the next segment). */
struct RateSegment
{
    uint64_t startCycle = 0;
    double multiplier = 1.0;
};

/**
 * A piecewise-constant bandwidth multiplier over simulation cycles.
 * An empty trace is the nominal link (multiplier 1.0 forever).
 * A multiplier of 0 is a full outage window: no bytes move until the
 * next segment (the engine steps straight to the trace's next change
 * point). A trace whose *final* segment is 0 is a permanent outage —
 * waiting on an active stream then reports the fatal
 * "will never transfer" instead of looping.
 */
class BandwidthTrace
{
  public:
    BandwidthTrace() = default;

    /** Segments must be sorted by startCycle, first at cycle 0,
     *  multipliers finite and >= 0 (0 = full outage). */
    explicit BandwidthTrace(std::vector<RateSegment> segments);

    bool nominal() const { return segments_.empty(); }
    const std::vector<RateSegment> &segments() const { return segments_; }

    /** A single step: nominal until `at`, then `after` forever. */
    static BandwidthTrace step(uint64_t at, double after);

    /**
     * Seeded burst profile: alternating nominal and degraded windows
     * with jittered lengths averaging `meanWindowCycles`, repeating up
     * to `horizonCycles` (nominal afterwards). Deterministic in
     * `seed`.
     */
    static BandwidthTrace bursts(uint64_t seed, uint64_t meanWindowCycles,
                                 double degradedMultiplier,
                                 uint64_t horizonCycles);

  private:
    std::vector<RateSegment> segments_; ///< sorted by startCycle
};

/** One interruption of one stream: the connection drops when the
 *  stream's cursor reaches offsetBytes and needs `attempts` retries
 *  (each backed off exponentially) before transfer resumes. */
struct DropEvent
{
    uint64_t offsetBytes = 0;
    int attempts = 1;
};

/**
 * The full fault model for one simulated run: a bandwidth trace plus
 * a seeded per-stream drop process with retry/backoff parameters.
 * A default-constructed plan is all-nominal and must reproduce the
 * constant-rate engine byte-for-byte.
 */
struct FaultPlan
{
    BandwidthTrace trace;

    /** First-retry delay after a drop, in cycles. */
    uint64_t retryTimeoutCycles = 250'000;
    /** Each further failed attempt multiplies the delay by this. */
    double backoffFactor = 2.0;

    /** Seed for the per-stream drop process (mixed with stream idx). */
    uint64_t dropSeed = 0;
    /** Expected drops per 2^20 transferred bytes; 0 = no drops. */
    double dropsPerMByte = 0.0;
    /** Retries a drop may need before succeeding, in [1, maxAttempts]. */
    int maxAttempts = 1;

    /**
     * Explicit drop events per stream id, overriding the seeded
     * process for streams it covers (offsets strictly increasing,
     * interior to the stream). Lets tests pin exact fault timings and
     * lets recorded link traces be replayed.
     */
    std::vector<std::vector<DropEvent>> forcedDrops;

    /** True when the plan cannot perturb any transfer. */
    bool nominal() const;

    /** Raise FatalError unless backoffFactor and dropsPerMByte are
     *  finite and >= 0. */
    void validate() const;

    /** Total suspension cycles for a drop needing `attempts` retries:
     *  timeout * (1 + b + b^2 + ...), b = backoffFactor, saturated to
     *  UINT64_MAX ("never resumes") where it overflows. */
    uint64_t retryDelay(int attempts) const;

    /**
     * Deterministic drop events for one stream, sorted by offset,
     * strictly inside (0, totalBytes). Depends only on (dropSeed,
     * streamIdx, totalBytes), never on scheduling, so the same plan
     * yields the same faults whatever order streams transfer in.
     */
    std::vector<DropEvent> dropsFor(int streamIdx,
                                    uint64_t totalBytes) const;
};

} // namespace nse

#endif // NSE_TRANSFER_FAULTS_H
