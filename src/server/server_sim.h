/**
 * @file
 * Multi-client shared-uplink server simulation.
 *
 * The paper evaluates one client pulling one program over one link;
 * this module models the server side of that deployment: N clients,
 * each replaying an existing (SimContext, SimConfig) pair against its
 * own TransferEngine, compete for one uplink whose capacity a
 * pluggable BandwidthAllocator (server/allocator.h) divides among
 * them. The server exists to study non-strict delivery at fleet
 * scale, so it serves only overlapped (Parallel or Interleaved)
 * clients and rejects a Strict one with FatalError; the strict
 * baseline every table divides by is a solo runReplay. Arrivals come
 * from a seeded deterministic ArrivalPlan (server/arrivals.h);
 * per-client FaultPlans ride along unchanged in each client's
 * SimConfig. An optional admission limit holds arrivals at the door
 * until a slot frees, trading queueing delay at the edge for
 * fair-share starvation inside.
 *
 * The core is a batched event-driven loop over piecewise-constant
 * per-client rates — the N-client generalization of the engine's own
 * nextEventTime machinery. Between any two global events every
 * client's rate is exactly constant, so each client's engine
 * integrates its own streams exactly as a solo run would. Events
 * (client arrivals, first-use waits, unblocks, engines' internal
 * stream events, allocator refresh edges) are drawn from a min-heap
 * priority queue keyed by next-event global cycle with
 * lazy-invalidation entries: each client carries a version counter,
 * candidate recomputation pushes a fresh (cycle, client, version)
 * entry, and stale entries are discarded at pop. Per-event work
 * therefore touches only the clients that actually act, not the
 * whole fleet.
 *
 * Demand tracking is incremental to match: the loop keeps one
 * persistent ClientDemand per client and re-snapshots only clients
 * whose engines or replay state were touched since the last
 * allocation. The allocator is re-invoked only when a touched
 * client's demanding bit changed — or, for deadline-aware policies
 * (BandwidthAllocator::usesDeadlines), when a nextFirstUse moved, or
 * when the policy's own nextRefresh edge (aging) is reached. Because
 * every allocator is a pure function of (capacity, now, demands),
 * skipped invocations provably could not have changed the rates, so
 * the incremental loop is cycle- and event-identical to the
 * exhaustive one; ServerOptions::loop selects the retained O(n)
 * linear-scan reference loop, and tests/server_test.cc pins the two
 * loops' equality event count for event count on a 512-client fleet.
 *
 * Rate changes are applied under a relative-epsilon test consistent
 * with the water-filling cap tolerance (1e-12): re-split residue an
 * ulp away from the applied rate is the applied rate, so FP jitter
 * can neither inflate allocationIntervals nor trigger spurious
 * whole-fleet engine retimes. Every client takes its first uses
 * through its own OverlappedRun (sim/replay.h), the step solo runs
 * take too; the loop adds only the waiting. Blocked clients are
 * stepped with the engine's own nextStepToward bound — the bound
 * waitFor itself loops on — so every client of a one-client server
 * run reproduces the solo runReplay SimResult cycle-for-cycle
 * (tests/server_test.cc pins this), and a fleet whose uplink never
 * saturates reproduces every client's solo result simultaneously.
 *
 * Scaling: per-event engine advancement and candidate recomputation
 * touch only per-client state, so they shard across an
 * ExperimentRunner pool; allocation itself is a serial fold in client
 * index order. Results are bit-identical for any thread count.
 *
 * Observability: each client can be given its own EventSink; it sees
 * the same event stream a solo runReplay would emit (engine lifecycle
 * edges, MethodWait/Mispredict/RunEnd), timestamped in *client-local*
 * cycles (cycle 0 = the client's admission), so buildStallReport and
 * the Chrome trace exporter work unchanged per client.
 */

#ifndef NSE_SERVER_SERVER_SIM_H
#define NSE_SERVER_SERVER_SIM_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/edge_cache.h"
#include "server/allocator.h"
#include "server/arrivals.h"
#include "sim/replay.h"
#include "sim/runner.h"

namespace nse
{

/** One simulated client: a workload context plus the configuration
 *  its transfers and replay run under. The mode must be Parallel or
 *  Interleaved; runServer rejects a Strict client. */
struct ClientSpec
{
    const SimContext *ctx = nullptr;
    SimConfig config;
    /** Relative uplink share (WeightedShareAllocator). */
    double weight = 1.0;
    /** Label used in results; "" = "client-<index>". */
    std::string name;
};

/** Event-loop strategy (see the file comment). */
enum class ServerLoop : uint8_t
{
    /** Min-heap keyed by next-event cycle, incremental demand. */
    PriorityQueue,
    /** O(n)-per-event linear scans and full demand re-snapshot: the
     *  reference implementation the heap loop is tested against. */
    LinearScan,
};

/** Server-side simulation parameters. */
struct ServerOptions
{
    /** Uplink capacity, bytes per cycle; must be finite and > 0
     *  (FatalError otherwise). A convenient
     *  scale: linkRate(kT1Link) is one T1 client's nominal demand. */
    double uplinkBytesPerCycle = 0.0;
    /** Cross-client allocation policy; must be non-null. */
    const BandwidthAllocator *allocator = nullptr;
    ArrivalPlan arrivals;
    /** Event-loop implementation; results are identical either way. */
    ServerLoop loop = ServerLoop::PriorityQueue;
    /**
     * Admission control: at most this many clients admitted (set up,
     * demanding bandwidth) at once; later arrivals queue at the door
     * in arrival order and are admitted as finishers free slots.
     * 0 = unlimited. A queued client's replay clock starts at its
     * admission, so its SimResult stays solo-comparable; the
     * admission wait is `admitted - arrival` in the result.
     */
    size_t admissionLimit = 0;
    /**
     * Edge-cache tier between origin and the fleet (cache/edge_cache.h);
     * null = cacheless — every artifact is assumed already at the
     * edge, which reproduces the cache-free server bit-for-bit. When
     * set, each admission requests the client's restructured artifact
     * from the cache: a hit (or a prewarmed entry) is free; a miss
     * holds the client in FetchWait — occupying its admission slot —
     * until the shared origin uplink delivers the artifact, and only
     * then does the client's replay epoch begin. The client-local
     * SimResult therefore stays field-for-field solo-comparable; the
     * delay is visible as ServerClientResult::cacheWait (and inside
     * finished - arrival). The cache is mutated only from the event
     * loop's serial transition section, so one cache may serve many
     * sequential runServer calls but never concurrent ones.
     */
    EdgeCache *edgeCache = nullptr;
    /** Optional pool for sharding per-client work; null = serial. */
    const ExperimentRunner *pool = nullptr;
    /** Minimum client count before the pool engages (per-event
     *  sharding has fixed overhead; small fleets run serial). */
    size_t parallelThreshold = 128;
    /**
     * Per-client observer factory (obs/event.h); null = unobserved.
     * Called once per client at its admission, from the event loop
     * thread; each returned sink observes exactly that client (in
     * client-local cycles) and must not be shared across clients.
     */
    std::function<EventSink *(size_t client)> sinkFor;
    /**
     * Test/diagnostic hook: called at every allocation instant at
     * which the rate vector changed, with the global cycle and the
     * per-client byte rates just assigned. Tests assert
     * sum(rates) <= uplink here.
     */
    std::function<void(uint64_t cycle,
                       const std::vector<double> &rates)>
        allocationProbe;
};

/** One client's outcome. `sim` is measured in client-local cycles
 *  (cycle 0 = the client's admission), field-for-field comparable
 *  with a solo runReplay of the same (ctx, config). */
struct ServerClientResult
{
    std::string name;
    uint64_t arrival = 0;  ///< global arrival cycle
    /** Global cycle the client's replay epoch began: its arrival,
     *  plus any admission-door wait, plus any edge-cache fetch wait —
     *  admitted - arrival == door wait + cacheWait. */
    uint64_t admitted = 0;
    uint64_t finished = 0; ///< global cycle the replay completed
    /** Global cycles spent waiting on the edge cache's origin fetch
     *  (0 on a cache hit, and always 0 without a cache). */
    uint64_t cacheWait = 0;
    /** The edge cache served this client's artifact from residency
     *  (meaningful only when the run had a cache). */
    bool cacheHit = false;
    SimResult sim;
};

/** The whole fleet's outcome. */
struct ServerResult
{
    std::vector<ServerClientResult> clients;
    /** Global cycle the last client finished. */
    uint64_t makespan = 0;
    /** Allocation instants at which the rate vector changed (beyond
     *  the water-filling 1e-12 relative tolerance). */
    uint64_t allocationIntervals = 0;
    /** Global events the loop processed (identical across loop
     *  strategies and thread counts). */
    uint64_t events = 0;
    /** Allocator invocations. The priority-queue loop skips calls
     *  whose output provably cannot change, so this is its measure
     *  of incrementality (LinearScan: == events). */
    uint64_t allocatorRuns = 0;
};

/** Run the fleet to completion. Raises FatalError for invalid
 *  options, a Strict client, or a link SimConfig::validate rejects. */
ServerResult runServer(const std::vector<ClientSpec> &clients,
                       const ServerOptions &opts);

/** Nominal byte rate of a link (bytes/cycle) — uplink sizing helper. */
inline double
linkRate(const LinkModel &link)
{
    return 1.0 / link.cyclesPerByte;
}

/**
 * Jain's fairness index of xs: (sum x)^2 / (n * sum x^2), in (0, 1];
 * 1.0 = perfectly even. Empty input => 1.0 (nothing is unfair).
 * All-zero input => 0.0: the index is undefined there, and a fleet
 * whose every sample is zero is degenerate, not perfectly fair —
 * returning 1.0 would mask it (tests/server_test.cc pins this).
 */
double jainFairness(const std::vector<double> &xs);

/** The p-th percentile (0..100, nearest-rank) of xs; 0 when empty. */
uint64_t percentile(std::vector<uint64_t> xs, double p);

} // namespace nse

#endif // NSE_SERVER_SERVER_SIM_H
