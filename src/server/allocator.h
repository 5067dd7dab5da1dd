/**
 * @file
 * Pluggable cross-client bandwidth allocation for the shared-uplink
 * server simulation (server/server_sim.h).
 *
 * The paper's insight is that *ordering by first use* decides who
 * stalls: within one program, bytes that execute first should arrive
 * first. A server pushing many programs down one uplink faces the
 * same question one level up — which *client's* bytes should move
 * first — so the allocator interface exposes exactly the signal the
 * per-file scheduler uses: each client's next first-use deadline.
 *
 * An allocator is called at every allocation instant (any cycle the
 * demand set or its deadlines change) with the global cycle and a
 * snapshot of per-client demand, and distributes the uplink capacity
 * as per-client byte rates. The contract:
 *
 *  - rates[i] <= demands[i].nominalRate — a client can never receive
 *    more than its own downlink sustains;
 *  - sum(rates) <= capacity (checked by tests via the server's
 *    allocation probe);
 *  - non-demanding clients receive exactly 0;
 *  - the result is a pure, deterministic function of the arguments
 *    (the server's run-to-run determinism depends on it);
 *  - a single demanding client whose nominal rate fits the capacity
 *    receives exactly its nominal rate, so a one-client server run
 *    reproduces the solo engine bit-for-bit.
 *
 * Incremental re-allocation (the server's priority-queue event loop
 * skips allocator calls whose output provably cannot change) rests on
 * two further declarations each policy makes:
 *
 *  - usesDeadlines(): whether the output depends on the demands'
 *    nextFirstUse fields (or on `now`) at all. Water-filling policies
 *    return false, so the server re-allocates only when some client's
 *    demanding bit changes — not on every deadline movement.
 *  - nextRefresh(now, demands): the next global cycle at which the
 *    policy's output could change *with the demands held fixed*
 *    (e.g. an aging boost crossing its next quantum). UINT64_MAX =
 *    never; the server treats the returned cycle as an event.
 *
 * Known gap: PropFairAllocator::nextRefresh declares no edge for a
 * demanding client whose nextFirstUse is still ahead. That is exact
 * for an executing client, whose first use is its own event, but not
 * for a mispredict-opened block, which ranks on its next recorded
 * first use: its boost starts at nextFirstUse + quantum with no event
 * there, and lands at the next allocation. The linear-scan reference
 * allocates at every event, so under propfair the two loops can part
 * (tests/server_test.cc records it). Declaring the edge changes
 * propfair's outputs, so it waits for a change that re-pins them.
 */

#ifndef NSE_SERVER_ALLOCATOR_H
#define NSE_SERVER_ALLOCATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nse
{

/** One client's demand snapshot at an allocation instant. */
struct ClientDemand
{
    int client = -1;
    /** Bytes/cycle the client's own link sustains (1/cyclesPerByte). */
    double nominalRate = 0.0;
    /** Relative share weight (WeightedShareAllocator). */
    double weight = 1.0;
    /**
     * Global cycle of the client's next (or current) first-use wait:
     * for a client blocked on the static plan's own slack, the cycle
     * it blocked — already in the past, maximally urgent; for a
     * client blocked by a *misprediction*, the corrected horizon (its
     * next recorded first use) — the plan said nothing about this
     * fetch, so a stale past deadline must not hold it at the head of
     * the deadline order for the whole demand fetch; for an executing
     * client, the known next first-use instant of its recorded trace
     * (kept live by runahead when enabled). UINT64_MAX = unknown.
     */
    uint64_t nextFirstUse = UINT64_MAX;
    /** True when the client's engine is actively moving bytes. */
    bool demanding = false;
};

/** Distributes the uplink capacity across demanding clients. */
class BandwidthAllocator
{
  public:
    virtual ~BandwidthAllocator() = default;

    virtual const char *name() const = 0;

    /**
     * Fill rates[i] (bytes/cycle) for demands[i] under the contract
     * documented at the top of this file. `now` is the global cycle
     * of the allocation instant (deadline-aware policies compare it
     * against nextFirstUse). `rates` arrives sized to `demands` and
     * zeroed.
     */
    virtual void allocate(double capacity, uint64_t now,
                          const std::vector<ClientDemand> &demands,
                          std::vector<double> &rates) const = 0;

    /** Whether the output depends on nextFirstUse or `now`. The
     *  server re-allocates on deadline movement only when true. */
    virtual bool usesDeadlines() const { return false; }

    /**
     * Earliest global cycle > now at which this policy's output could
     * change with demands held fixed (aging boosts, decay schedules);
     * UINT64_MAX = only a demand change can move the output.
     */
    virtual uint64_t
    nextRefresh(uint64_t now,
                const std::vector<ClientDemand> &demands) const
    {
        (void)now;
        (void)demands;
        return UINT64_MAX;
    }
};

/**
 * Equal fair share with water-filling: capacity splits evenly across
 * demanding clients; a client whose nominal rate is below its share
 * is capped there and the surplus re-splits among the rest.
 */
class EqualShareAllocator : public BandwidthAllocator
{
  public:
    const char *name() const override { return "equal"; }
    void allocate(double capacity, uint64_t now,
                  const std::vector<ClientDemand> &demands,
                  std::vector<double> &rates) const override;
};

/** Weighted fair share: as above, but shares are proportional to
 *  each demanding client's weight (weights must be > 0). */
class WeightedShareAllocator : public BandwidthAllocator
{
  public:
    const char *name() const override { return "weighted"; }
    void allocate(double capacity, uint64_t now,
                  const std::vector<ClientDemand> &demands,
                  std::vector<double> &rates) const override;
};

/**
 * Deadline-aware "earliest first-use wait wins": demanding clients
 * are served in ascending nextFirstUse order (ties by client index),
 * each up to its nominal rate, until the capacity is exhausted — the
 * cross-client form of first-use ordering. A blocked client (whose
 * deadline is already in the past) therefore preempts prefetching
 * ones; late-deadline clients may be starved for a while, which is
 * safe *only because* every allocation instant re-ranks on fresh
 * deadlines — the server refreshes a blocked client's deadline on
 * misprediction (ClientDemand::nextFirstUse above), since a stale
 * past deadline would pin the mispredicting client first in rank for
 * its entire demand fetch and starve punctual clients outright.
 */
class DeadlineAllocator : public BandwidthAllocator
{
  public:
    const char *name() const override { return "deadline"; }
    bool usesDeadlines() const override { return true; }
    void allocate(double capacity, uint64_t now,
                  const std::vector<ClientDemand> &demands,
                  std::vector<double> &rates) const override;
};

/**
 * Proportional-fair share with aging: water-filling over effective
 * weights weight_i * (1 + agedQuanta_i), where agedQuanta counts
 * whole agingQuantumCycles a demanding client has been waiting past
 * its first-use deadline (capped at maxQuanta). Freshly-served
 * clients compete at their configured weight; a client starved past
 * its deadline escalates one weight step per quantum, so under
 * overload nobody is starved indefinitely (the deadline policy's
 * failure mode) yet short-term shares stay proportional (which
 * strict deadline ordering destroys). The boost is a step function
 * of (now - nextFirstUse), so the output is piecewise constant in
 * `now` and nextRefresh() reports the next step edge exactly. Every
 * edge is a fleet-wide re-allocation, so the default quantum is
 * deliberately coarse (10M cycles — roughly one percent of a
 * contended transfer at the paper's T1 scale); finer quanta buy
 * faster escalation at a linear cost in allocator runs.
 */
class PropFairAllocator : public BandwidthAllocator
{
  public:
    explicit PropFairAllocator(uint64_t aging_quantum_cycles = 10'000'000,
                               uint64_t max_quanta = 16);
    const char *name() const override { return "propfair"; }
    bool usesDeadlines() const override { return true; }
    void allocate(double capacity, uint64_t now,
                  const std::vector<ClientDemand> &demands,
                  std::vector<double> &rates) const override;
    uint64_t
    nextRefresh(uint64_t now,
                const std::vector<ClientDemand> &demands) const override;

  private:
    uint64_t agedQuanta(uint64_t now, const ClientDemand &d) const;

    uint64_t quantum_;
    uint64_t maxQuanta_;
};

/** Allocator by name ("equal", "weighted", "deadline", "propfair");
 *  fatal()s on unknown names. */
std::unique_ptr<BandwidthAllocator>
makeAllocator(const std::string &name);

} // namespace nse

#endif // NSE_SERVER_ALLOCATOR_H
