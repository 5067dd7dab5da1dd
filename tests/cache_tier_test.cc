/**
 * @file
 * Acceptance gate of the edge-cache tier (src/cache/) and its server
 * integration:
 *
 *  - the cacheless server path is untouched (ServerOptions::edgeCache
 *    == nullptr runs the PR-8 loop bit-for-bit), and a one-client cold
 *    cache shifts the client's epoch without perturbing its
 *    solo-comparable SimResult;
 *  - a prewarmed (warm, infinite-capacity) cache is cycle-identical
 *    to the cacheless fleet — residency makes the tier free;
 *  - keys share exactly when the served bytes share (evaluation-only
 *    knobs never split an artifact; restructuring knobs always do);
 *  - in-flight fetches are joined, never duplicated;
 *  - eviction accounting balances exactly (the identities in
 *    cache/edge_cache.h) under both LRU and LFU, and an artifact
 *    larger than the whole capacity is served but never retained;
 *  - results are bit-identical for any thread count.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/edge_cache.h"
#include "obs/trace.h"
#include "server/server_sim.h"
#include "support/error.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

SimConfig
baseConfig(SimConfig::Mode mode, LinkModel link)
{
    SimConfig cfg;
    cfg.mode = mode;
    cfg.ordering = OrderingSource::Train;
    cfg.link = link;
    cfg.parallelLimit = 2;
    return cfg;
}

/** Shared test workload contexts (expensive: built once). */
const SimContext &
zipperCtx()
{
    static Workload wl = makeZipper();
    static SimContext ctx(wl.program, wl.natives, wl.trainInput,
                          wl.testInput);
    return ctx;
}

const SimContext &
hanoiCtx()
{
    static Workload wl = makeHanoi();
    static SimContext ctx(wl.program, wl.natives, wl.trainInput,
                          wl.testInput);
    return ctx;
}

void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.invocationLatency, b.invocationLatency) << what;
    EXPECT_EQ(a.totalCycles, b.totalCycles) << what;
    EXPECT_EQ(a.execCycles, b.execCycles) << what;
    EXPECT_EQ(a.transferCycles, b.transferCycles) << what;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << what;
    EXPECT_EQ(a.mispredictions, b.mispredictions) << what;
    EXPECT_EQ(a.bytecodes, b.bytecodes) << what;
    EXPECT_EQ(a.cpi, b.cpi) << what;
    EXPECT_EQ(a.retryCount, b.retryCount) << what;
    EXPECT_EQ(a.degradedCycles, b.degradedCycles) << what;
}

/** The accounting identities every EdgeCacheStats must satisfy. */
void
expectBalanced(const EdgeCacheStats &s)
{
    EXPECT_EQ(s.hits + s.misses, s.requests);
    EXPECT_EQ(s.fetches + s.joins, s.misses);
    EXPECT_EQ(s.insertions, s.evictions + s.residentEntries);
    EXPECT_EQ(s.insertedBytes - s.evictedBytes, s.residentBytes);
    EXPECT_GE(s.bytesServed, s.bytesFromOrigin);
    EXPECT_EQ(s.bytesSaved(), s.bytesServed - s.bytesFromOrigin);
}

/** A small mixed fleet over both workloads and two orderings. */
std::vector<ClientSpec>
mixedFleet(size_t n)
{
    std::vector<ClientSpec> fleet;
    for (size_t i = 0; i < n; ++i) {
        ClientSpec spec;
        spec.ctx = i % 2 ? &hanoiCtx() : &zipperCtx();
        spec.config = baseConfig(SimConfig::Mode::Parallel, kT1Link);
        if (i % 4 >= 2)
            spec.config.ordering = OrderingSource::RtaStatic;
        spec.name = cat("client-", i);
        fleet.push_back(std::move(spec));
    }
    return fleet;
}

/** Prewarm every (ctx, config) pair the fleet will request. */
void
prewarmFleet(EdgeCache &cache, const std::vector<ClientSpec> &fleet)
{
    for (const ClientSpec &spec : fleet)
        cache.prewarm(*spec.ctx, spec.config);
}

TEST(EdgeKeyTest, EvaluationKnobsShareRestructuringKnobsSplit)
{
    const SimContext &ctx = zipperCtx();
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);

    // Knobs that change how the client *evaluates* the artifact do
    // not change the served bytes: one shared entry.
    SimConfig evalOnly = cfg;
    evalOnly.runaheadDepth = 8;
    evalOnly.faults.dropSeed = 99;
    evalOnly.faults.dropsPerMByte = 10.0;
    EXPECT_TRUE(edgeKeyOf(ctx, cfg) == edgeKeyOf(ctx, evalOnly));

    // Every restructuring knob splits the artifact.
    SimConfig other = cfg;
    other.ordering = OrderingSource::Static;
    EXPECT_FALSE(edgeKeyOf(ctx, cfg) == edgeKeyOf(ctx, other));
    other = cfg;
    other.dataPartition = true;
    EXPECT_FALSE(edgeKeyOf(ctx, cfg) == edgeKeyOf(ctx, other));
    other = cfg;
    other.mode = SimConfig::Mode::Interleaved;
    EXPECT_FALSE(edgeKeyOf(ctx, cfg) == edgeKeyOf(ctx, other));
    other = cfg;
    other.link = kModemLink; // different nominal schedule
    EXPECT_FALSE(edgeKeyOf(ctx, cfg) == edgeKeyOf(ctx, other));

    // Different workloads never collide.
    EXPECT_FALSE(edgeKeyOf(ctx, cfg) == edgeKeyOf(hanoiCtx(), cfg));

    // Interleaved mode has no schedule: its key ignores link cost.
    SimConfig il = baseConfig(SimConfig::Mode::Interleaved, kT1Link);
    SimConfig ilModem = baseConfig(SimConfig::Mode::Interleaved,
                                   kModemLink);
    EXPECT_TRUE(edgeKeyOf(ctx, il) == edgeKeyOf(ctx, ilModem));

    EXPECT_EQ(artifactBytes(ctx, cfg), ctx.totalBytes());
    // Strict clients are never served, so they address no artifact.
    SimConfig strict;
    EXPECT_THROW(edgeKeyOf(ctx, strict), FatalError);
}

TEST(EdgeKeyTest, KeysArePinned)
{
    // Both keys fold through the shared FNV-1a (support/fnv1a.h); a
    // drift here silently re-keys every edge cache, so the values of
    // two workloads are pinned exactly.
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    cfg.parallelLimit = 4;
    EXPECT_EQ(zipperCtx().contentKey(), 0x8ccf652bb9161390ull);
    EXPECT_EQ(edgeKeyOf(zipperCtx(), cfg).hash(), 0x964b8a438493303dull);
    EXPECT_EQ(hanoiCtx().contentKey(), 0xcf5fb6a49598365dull);
    EXPECT_EQ(edgeKeyOf(hanoiCtx(), cfg).hash(), 0x266959f981b8090aull);
}

TEST(EdgeCacheTest, MissFetchHitAndJoinAccounting)
{
    const SimContext &ctx = zipperCtx();
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    EdgeCacheOptions opts;
    EdgeCache cache(opts);
    uint64_t bytes = artifactBytes(ctx, cfg);

    // Cold: miss, fetch started.
    EdgeCache::Request a = cache.request(ctx, cfg, 0);
    EXPECT_FALSE(a.hit);
    ASSERT_GE(a.fetch, 0);
    EXPECT_FALSE(cache.fetchReady(a.fetch));
    EXPECT_FALSE(cache.resident(ctx, cfg));

    // Second requester of the same key while in flight: joins the
    // same fetch, no extra origin traffic.
    EdgeCache::Request b = cache.request(ctx, cfg, 10);
    EXPECT_FALSE(b.hit);
    EXPECT_EQ(b.fetch, a.fetch);
    EXPECT_EQ(cache.stats().fetches, 1u);
    EXPECT_EQ(cache.stats().joins, 1u);
    EXPECT_EQ(cache.stats().bytesFromOrigin, bytes);

    // The uncontended fetch completes exactly at the origin link's
    // nominal cost; afterwards the artifact is resident and hits.
    uint64_t cost =
        transferCost(bytes, LinkModel{"origin", kOriginCyclesPerByte});
    cache.advanceTo(cost - 1);
    EXPECT_FALSE(cache.fetchReady(a.fetch));
    cache.advanceTo(cost);
    EXPECT_TRUE(cache.fetchReady(a.fetch));
    EXPECT_TRUE(cache.resident(ctx, cfg));

    EdgeCache::Request c = cache.request(ctx, cfg, cost + 5);
    EXPECT_TRUE(c.hit);
    EXPECT_EQ(c.fetch, -1);

    const EdgeCacheStats &s = cache.stats();
    EXPECT_EQ(s.requests, 3u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.residentEntries, 1u);
    EXPECT_EQ(s.residentBytes, bytes);
    EXPECT_EQ(s.bytesServed, 3 * bytes);
    EXPECT_EQ(s.bytesSaved(), 2 * bytes);
    expectBalanced(s);
}

TEST(EdgeCacheTest, LruEvictsLeastRecentlyUsedExactly)
{
    const SimContext &zc = zipperCtx();
    const SimContext &hc = hanoiCtx();
    SimConfig par = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    SimConfig il = baseConfig(SimConfig::Mode::Interleaved, kT1Link);

    // Capacity fits any two artifacts but not all three.
    uint64_t zb = artifactBytes(zc, par);
    uint64_t hb = artifactBytes(hc, par);
    EdgeCacheOptions opts;
    opts.capacityBytes = 2 * std::max(zb, hb);
    opts.policy = EvictionPolicy::LRU;
    EventTrace trace;
    opts.sink = &trace;
    EdgeCache cache(opts);

    cache.prewarm(zc, par); // oldest
    cache.prewarm(zc, il);
    cache.prewarm(hc, par); // third artifact: over budget
    EXPECT_FALSE(cache.resident(zc, par));
    EXPECT_TRUE(cache.resident(zc, il));
    EXPECT_TRUE(cache.resident(hc, par));

    const EdgeCacheStats &s = cache.stats();
    EXPECT_EQ(s.insertions, 3u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.residentEntries, 2u);
    EXPECT_EQ(trace.count(ObsKind::CacheEvict), 1u);
    expectBalanced(s);

    // Touching the now-oldest entry flips the next victim.
    EdgeCache::Request rq = cache.request(zc, il, 100);
    EXPECT_TRUE(rq.hit);
    cache.prewarm(zc, par);
    EXPECT_FALSE(cache.resident(hc, par));
    EXPECT_TRUE(cache.resident(zc, il));
    expectBalanced(cache.stats());
}

TEST(EdgeCacheTest, LfuEvictsLeastFrequentlyUsed)
{
    const SimContext &zc = zipperCtx();
    const SimContext &hc = hanoiCtx();
    SimConfig par = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    SimConfig il = baseConfig(SimConfig::Mode::Interleaved, kT1Link);

    uint64_t zb = artifactBytes(zc, par);
    uint64_t hb = artifactBytes(hc, par);
    EdgeCacheOptions opts;
    opts.capacityBytes = 2 * std::max(zb, hb);
    opts.policy = EvictionPolicy::LFU;
    EdgeCache cache(opts);

    cache.prewarm(zc, par);
    cache.prewarm(zc, il);
    // Heavily use the *older* entry: under LRU it would survive
    // anyway, under LFU it survives because of its use count while
    // the fresher-but-colder entry goes.
    for (uint64_t t = 0; t < 5; ++t)
        EXPECT_TRUE(cache.request(zc, par, t).hit);
    cache.prewarm(hc, par);
    EXPECT_TRUE(cache.resident(zc, par));
    EXPECT_FALSE(cache.resident(zc, il));
    EXPECT_TRUE(cache.resident(hc, par));
    expectBalanced(cache.stats());
}

TEST(EdgeCacheTest, OversizedArtifactServedButNeverRetained)
{
    const SimContext &ctx = zipperCtx();
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    EdgeCacheOptions opts;
    opts.capacityBytes = artifactBytes(ctx, cfg) / 2;
    EdgeCache cache(opts);

    EdgeCache::Request rq = cache.request(ctx, cfg, 0);
    ASSERT_FALSE(rq.hit);
    cache.advanceTo(1'000'000'000'000);
    EXPECT_TRUE(cache.fetchReady(rq.fetch)); // waiters are served...
    EXPECT_FALSE(cache.resident(ctx, cfg));  // ...but nothing sticks
    const EdgeCacheStats &s = cache.stats();
    EXPECT_EQ(s.uncacheable, 1u);
    EXPECT_EQ(s.insertions, 0u);
    EXPECT_EQ(s.residentBytes, 0u);
    expectBalanced(s);

    // The next request pays origin again.
    EdgeCache::Request again =
        cache.request(ctx, cfg, cache.time() + 1);
    EXPECT_FALSE(again.hit);
    EXPECT_EQ(cache.stats().fetches, 2u);
}

TEST(CacheTier, OneClientColdCacheShiftsEpochNotResults)
{
    const SimContext &ctx = zipperCtx();
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    SimResult solo = runReplay(ctx, cfg);

    EqualShareAllocator equal;
    ServerOptions opts;
    opts.uplinkBytesPerCycle = linkRate(kT1Link);
    opts.allocator = &equal;

    std::vector<ClientSpec> fleet(1);
    fleet[0].ctx = &ctx;
    fleet[0].config = cfg;

    // Cacheless: byte-identical to the PR-8 path (and the solo run).
    ServerResult cacheless = runServer(fleet, opts);
    expectSameResult(cacheless.clients[0].sim, solo, "cacheless");
    EXPECT_EQ(cacheless.clients[0].cacheWait, 0u);
    EXPECT_FALSE(cacheless.clients[0].cacheHit);

    // Cold cache: the replay epoch starts at artifact arrival, so the
    // client-local SimResult is still the solo result; only the
    // global bookkeeping shows the fetch.
    EdgeCacheOptions copts;
    EdgeCache cache(copts);
    opts.edgeCache = &cache;
    ServerResult cold = runServer(fleet, opts);
    const ServerClientResult &c = cold.clients[0];
    expectSameResult(c.sim, solo, "cold cache");
    EXPECT_FALSE(c.cacheHit);
    uint64_t fetchCost =
        transferCost(artifactBytes(ctx, cfg),
                     LinkModel{"origin", kOriginCyclesPerByte});
    EXPECT_EQ(c.cacheWait, fetchCost);
    EXPECT_EQ(c.admitted, c.arrival + fetchCost);
    EXPECT_EQ(c.finished, c.admitted + c.sim.totalCycles);
    EXPECT_EQ(cache.stats().misses, 1u);

    // Same cache again: now resident, so the run is cacheless-shaped.
    ServerResult warm = runServer(fleet, opts);
    expectSameResult(warm.clients[0].sim, solo, "warm cache");
    EXPECT_TRUE(warm.clients[0].cacheHit);
    EXPECT_EQ(warm.clients[0].cacheWait, 0u);
    EXPECT_EQ(warm.clients[0].finished, cacheless.clients[0].finished);
}

TEST(CacheTier, PrewarmedFleetIsIdenticalToCacheless)
{
    std::vector<ClientSpec> fleet = mixedFleet(12);
    EqualShareAllocator equal;
    ServerOptions opts;
    opts.uplinkBytesPerCycle = 2.0 * linkRate(kT1Link);
    opts.allocator = &equal;
    opts.arrivals.kind = ArrivalKind::Uniform;
    opts.arrivals.seed = 42;
    opts.arrivals.windowCycles = 1'000'000;

    ServerResult cacheless = runServer(fleet, opts);

    EdgeCacheOptions copts;
    EdgeCache cache(copts);
    prewarmFleet(cache, fleet);
    opts.edgeCache = &cache;
    ServerResult warm = runServer(fleet, opts);

    ASSERT_EQ(warm.clients.size(), cacheless.clients.size());
    for (size_t i = 0; i < warm.clients.size(); ++i) {
        const ServerClientResult &w = warm.clients[i];
        const ServerClientResult &n = cacheless.clients[i];
        expectSameResult(w.sim, n.sim, cat("client ", i));
        EXPECT_EQ(w.arrival, n.arrival) << i;
        EXPECT_EQ(w.admitted, n.admitted) << i;
        EXPECT_EQ(w.finished, n.finished) << i;
        EXPECT_EQ(w.cacheWait, 0u) << i;
        EXPECT_TRUE(w.cacheHit) << i;
    }
    EXPECT_EQ(warm.makespan, cacheless.makespan);
    const EdgeCacheStats &s = cache.stats();
    EXPECT_EQ(s.requests, fleet.size());
    EXPECT_EQ(s.hits, fleet.size());
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.bytesSaved(), s.bytesServed);
    expectBalanced(s);
}

TEST(CacheTier, ColdFleetSharesFetchesAndBalances)
{
    // 12 clients, 4 distinct artifacts: the cold fleet must pull each
    // artifact from origin exactly once (joins cover racers) and
    // serve the rest from residency.
    std::vector<ClientSpec> fleet = mixedFleet(12);
    EqualShareAllocator equal;
    ServerOptions opts;
    opts.uplinkBytesPerCycle = 2.0 * linkRate(kT1Link);
    opts.allocator = &equal;
    opts.arrivals.kind = ArrivalKind::Staggered;
    opts.arrivals.meanGapCycles = 1'000'000;

    EdgeCacheOptions copts;
    EdgeCache cache(copts);
    opts.edgeCache = &cache;
    ServerResult sr = runServer(fleet, opts);

    const EdgeCacheStats &s = cache.stats();
    EXPECT_EQ(s.requests, fleet.size());
    EXPECT_EQ(s.fetches, 4u);
    EXPECT_EQ(s.residentEntries, 4u);
    EXPECT_EQ(s.evictions, 0u);
    expectBalanced(s);

    // Every client's local result is still its solo result: the tier
    // delays starts, never perturbs a replay.
    for (const ServerClientResult &c : sr.clients) {
        EXPECT_EQ(c.admitted, c.arrival + c.cacheWait);
        EXPECT_EQ(c.finished, c.admitted + c.sim.totalCycles);
        EXPECT_TRUE(c.cacheHit == (c.cacheWait == 0));
    }
}

TEST(CacheTier, ThreadCountDoesNotChangeResults)
{
    std::vector<ClientSpec> fleet = mixedFleet(96);
    EqualShareAllocator equal;
    ServerOptions base;
    base.uplinkBytesPerCycle = 2.0 * linkRate(kT1Link);
    base.allocator = &equal;
    base.arrivals.kind = ArrivalKind::Uniform;
    base.arrivals.seed = 7;
    base.arrivals.windowCycles = 2'000'000;
    base.parallelThreshold = 1;

    EdgeCacheOptions copts;
    copts.capacityBytes = 3 * zipperCtx().totalBytes();

    EdgeCache serialCache(copts);
    ServerOptions serial = base;
    serial.edgeCache = &serialCache;
    ServerResult a = runServer(fleet, serial);

    ExperimentRunner pool(4);
    EdgeCache pooledCache(copts);
    ServerOptions pooled = base;
    pooled.edgeCache = &pooledCache;
    pooled.pool = &pool;
    ServerResult b = runServer(fleet, pooled);

    ASSERT_EQ(a.clients.size(), b.clients.size());
    for (size_t i = 0; i < a.clients.size(); ++i) {
        expectSameResult(a.clients[i].sim, b.clients[i].sim,
                         cat("client ", i));
        EXPECT_EQ(a.clients[i].admitted, b.clients[i].admitted) << i;
        EXPECT_EQ(a.clients[i].finished, b.clients[i].finished) << i;
        EXPECT_EQ(a.clients[i].cacheWait, b.clients[i].cacheWait) << i;
        EXPECT_EQ(a.clients[i].cacheHit, b.clients[i].cacheHit) << i;
    }
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.events, b.events);
    const EdgeCacheStats &sa = serialCache.stats();
    const EdgeCacheStats &sb = pooledCache.stats();
    EXPECT_EQ(sa.requests, sb.requests);
    EXPECT_EQ(sa.hits, sb.hits);
    EXPECT_EQ(sa.fetches, sb.fetches);
    EXPECT_EQ(sa.joins, sb.joins);
    EXPECT_EQ(sa.evictions, sb.evictions);
    EXPECT_EQ(sa.residentBytes, sb.residentBytes);
    expectBalanced(sa);
    expectBalanced(sb);
}

} // namespace
} // namespace nse
