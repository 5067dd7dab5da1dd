/**
 * @file
 * Simulated edge-cache tier between the origin server and a client
 * fleet (server/server_sim.h).
 *
 * The paper restructures a program once, at the server, and every
 * client then pulls the restructured artifact. A deployment puts that
 * artifact behind an edge node: the first client whose (workload,
 * restructuring configuration) pair is absent at the edge pays a
 * modeled origin-uplink fetch; every later client with the same pair
 * is served from edge residency for free. This module models exactly
 * that tier, content-addressed so two clients share an artifact iff
 * the bytes they would receive are identical.
 *
 * The key (EdgeKey) is the workload's content hash
 * (SimContext::contentKey — classes + entry + both inputs) plus every
 * restructuring knob that changes the served bytes or their planned
 * order: mode, the memoized LayoutKey (ordering / partition /
 * class-strict), and for Parallel mode the schedule identity (nominal
 * cycles-per-byte and concurrency limit). Knobs that only change how
 * a client *evaluates* the artifact (fault plans, runahead depth) are
 * deliberately absent: they select no different bytes, so clients
 * differing only there share one entry.
 * Per-client-class ordering personalization therefore falls out for
 * free — a Train-ordered class and an Rta-ordered class of the same
 * workload are two distinct artifacts with two distinct keys. Only
 * overlapped (Parallel or Interleaved) configurations have an
 * artifact: the server serves no Strict clients, and edgeKeyOf
 * rejects a Strict configuration.
 *
 * The origin uplink is a real TransferEngine running in *global*
 * cycles at kOriginCyclesPerByte with no concurrency limit:
 * concurrent cold misses share its bandwidth exactly the way fleet
 * clients share the serving uplink, and an in-flight fetch is joined
 * (never duplicated) by later requesters of the same key. Completed
 * fetches settle into residency at their arrival cycle; capacity
 * pressure then evicts by LRU or LFU, deterministically. An artifact
 * larger than the whole capacity is served but never retained
 * (counted `uncacheable`), so eviction always terminates.
 *
 * Accounting identities, pinned by tests/cache_tier_test.cc:
 *   hits + misses == requests          (every request is exactly one)
 *   fetches + joins == misses          (a join rides an open fetch)
 *   insertions == evictions + residentEntries
 *   insertedBytes - evictedBytes == residentBytes
 *   bytesServed == bytesFromOrigin + hit/join-served bytes
 *
 * Thread safety: none. One cache serves one runServer call at a
 * time, on that call's thread.
 */

#ifndef NSE_CACHE_EDGE_CACHE_H
#define NSE_CACHE_EDGE_CACHE_H

#include <cstdint>
#include <map>
#include <tuple>

#include "obs/event.h"
#include "sim/replay.h"
#include "transfer/engine.h"
#include "transfer/link.h"

namespace nse
{

/** Origin-uplink cost (cycles/byte): edges sit on fat pipes, so the
 *  origin runs at 64x a T1 client link. */
inline constexpr double kOriginCyclesPerByte = kT1Link.cyclesPerByte / 64.0;

/** Content address of one restructured artifact at the edge. */
struct EdgeKey
{
    /** Workload identity (SimContext::contentKey). */
    uint64_t contentKey = 0;
    SimConfig::Mode mode = SimConfig::Mode::Parallel;
    LayoutKey layout;
    /** Schedule identity; zeroed for Interleaved, which starts its
     *  one file at cycle 0. */
    double cyclesPerByte = 0.0;
    int parallelLimit = 0;

    bool
    operator<(const EdgeKey &o) const
    {
        return std::tie(contentKey, mode, layout, cyclesPerByte,
                        parallelLimit) <
               std::tie(o.contentKey, o.mode, o.layout, o.cyclesPerByte,
                        o.parallelLimit);
    }

    bool operator==(const EdgeKey &o) const
    {
        return !(*this < o) && !(o < *this);
    }

    /** FNV-1a digest of the key fields — the `b` payload of every
     *  CacheHit/CacheMiss/CacheEvict observation. */
    uint64_t hash() const;
};

/** The edge key an overlapped client configuration addresses;
 *  raises FatalError for a Strict one. */
EdgeKey edgeKeyOf(const SimContext &ctx, const SimConfig &cfg);

/**
 * Bytes of the artifact the edge serves for this configuration: the
 * layout's wire bytes. (Partitioned layouts carry the same payload
 * bytes in a different order, so this equals SimContext::totalBytes
 * today; the layout is consulted anyway so per-layout framing
 * overhead, if ever modeled, is charged automatically.)
 */
uint64_t artifactBytes(const SimContext &ctx, const SimConfig &cfg);

/** Which resident artifact capacity pressure removes first. */
enum class EvictionPolicy : uint8_t
{
    LRU, ///< least recently requested (unique use-sequence numbers)
    LFU, ///< fewest requests; least-recent breaks ties
};

/** Edge-node parameters. */
struct EdgeCacheOptions
{
    /** Resident-artifact byte budget; 0 = unlimited. */
    uint64_t capacityBytes = 0;
    EvictionPolicy policy = EvictionPolicy::LRU;
    /** Observer for CacheHit/CacheMiss/CacheEvict (global cycles);
     *  null = unobserved. */
    EventSink *sink = nullptr;
};

/** Flat counters; see the file comment for the pinned identities. */
struct EdgeCacheStats
{
    uint64_t requests = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    /** Distinct origin fetches started (first miss per absent key). */
    uint64_t fetches = 0;
    /** Misses that joined an already in-flight fetch. */
    uint64_t joins = 0;
    /** Settled artifacts entered into residency (incl. prewarms). */
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /** Fetched artifacts larger than the whole capacity: served to
     *  their waiters but never retained. */
    uint64_t uncacheable = 0;
    uint64_t residentEntries = 0;
    uint64_t residentBytes = 0;
    uint64_t insertedBytes = 0;
    uint64_t evictedBytes = 0;
    /** Artifact bytes delivered to clients (every request counts). */
    uint64_t bytesServed = 0;
    /** Artifact bytes pulled over the origin uplink (fetches only). */
    uint64_t bytesFromOrigin = 0;

    /** Origin traffic the tier avoided. */
    uint64_t
    bytesSaved() const
    {
        return bytesServed - bytesFromOrigin;
    }

    double
    hitRate() const
    {
        return requests == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(requests);
    }
};

/** The edge node. All `now` parameters are global fleet cycles and
 *  must be monotone across the mutating calls. */
class EdgeCache
{
  public:
    explicit EdgeCache(EdgeCacheOptions opts);

    /** Outcome of one client request. */
    struct Request
    {
        bool hit = false;
        /** Origin-fetch handle to wait on when !hit; -1 on a hit. */
        int fetch = -1;
    };

    /**
     * A client asks for its artifact at global cycle `now`. A hit is
     * instantaneous; a miss returns the fetch handle (fresh, or an
     * in-flight fetch of the same key being joined) whose completion
     * the caller awaits via fetchReady/nextFetchStep.
     */
    Request request(const SimContext &ctx, const SimConfig &cfg,
                    uint64_t now);

    /**
     * Warm-up: make the artifact resident immediately, paying no
     * modeled uplink time (counts an insertion, may evict). A
     * prewarmed fleet run is byte- and cycle-identical to a cacheless
     * one (tests/cache_tier_test.cc pins this).
     */
    void prewarm(const SimContext &ctx, const SimConfig &cfg);

    /**
     * Advance the origin uplink to global cycle `now` and settle every
     * fetch that completed at or before it into residency (in arrival
     * order; ties by fetch start order), running eviction after each.
     * request() advances implicitly; the server loop also calls this
     * before polling fetchReady.
     */
    void advanceTo(uint64_t now);

    /** Has the fetch's artifact fully arrived at the edge (at the
     *  uplink's current time)? Pure query. */
    bool fetchReady(int fetch) const;

    /**
     * The next global cycle at which the fetch could complete or the
     * uplink's rates change — TransferEngine::nextStepToward on the
     * origin uplink. Bounded by every concurrent fetch's events, so an
     * event loop waking at this cycle can never miss the arrival;
     * extra fetches starting meanwhile only slow rates, making early
     * (safe, re-polled) wakes the only error direction.
     */
    uint64_t nextFetchStep(int fetch) const;

    /** Is the configuration's artifact resident right now? */
    bool resident(const SimContext &ctx, const SimConfig &cfg) const;

    uint64_t time() const { return uplink_.time(); }
    const EdgeCacheStats &stats() const { return stats_; }
    const EdgeCacheOptions &options() const { return opts_; }

  private:
    struct Entry
    {
        uint64_t bytes = 0;
        uint64_t keyHash = 0;
        bool residentNow = false;
        /** Origin-uplink stream while in flight; -1 once settled. */
        int fetch = -1;
        /** Use-sequence of the last request (unique; LRU order). */
        uint64_t lastUse = 0;
        /** Requests that touched the entry (LFU order). */
        uint64_t uses = 0;
    };

    void touch(Entry &e);
    void settle(uint64_t upTo);
    void insertResident(const EdgeKey &key, Entry &e, uint64_t cycle);
    void evictUntilFits(uint64_t cycle);
    void emit(ObsKind kind, uint64_t cycle, uint64_t bytes,
              uint64_t keyHash, int stream = -1) const;

    EdgeCacheOptions opts_;
    TransferEngine uplink_{kOriginCyclesPerByte, 0};
    std::map<EdgeKey, Entry> entries_;
    /** In-flight fetches in start order: (stream, key). */
    std::vector<std::pair<int, EdgeKey>> inFlight_;
    uint64_t useSeq_ = 0;
    EdgeCacheStats stats_;
};

} // namespace nse

#endif // NSE_CACHE_EDGE_CACHE_H
