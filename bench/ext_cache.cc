/**
 * @file
 * Extension — edge-cache tier between origin and client fleets.
 *
 * The paper restructures at the server and ships to one client; a
 * deployment interposes an edge cache so a fleet shares each
 * restructured artifact. This bench measures that tier end to end:
 * fleets of {16, 64, 256, 1024} clients split into {1, 2, 4} client
 * classes — each class personalizing its ordering (train profile,
 * RTA-pruned static, plain SCG static, and train + data partition) so
 * classes address distinct artifacts — run cacheless and then through
 * a cold edge cache. Reported per cell: hit rate, share of origin
 * bytes saved, p95 artifact fetch wait, and the p50/p95/p99 of
 * per-client stall cycles against the cacheless fleet (the tier
 * staggers admissions, so contended stalls must not regress).
 *
 * A second table constrains capacity on the 64-client 4-class fleet
 * (unlimited, then halves of the working set, under LRU and LFU) and
 * checks the eviction accounting identities of cache/edge_cache.h
 * exactly. A third re-runs the headline fleet against a prewarmed
 * cache and counts clients whose outcome differs from cacheless in
 * any field — the warm tier must be invisible, so the count (the
 * replay_mismatches check) must be zero.
 *
 * The driver's fleet cap (NSE_SERVER_MAX_FLEET) bounds the grid for
 * CI smoke runs.
 */

#include <cstdint>
#include <map>

#include "bench/bench_env.h"
#include "cache/edge_cache.h"
#include "server/server_sim.h"

namespace nse
{
namespace
{

constexpr size_t kFleetSizes[] = {16, 64, 256, 1024};
constexpr size_t kClassCounts[] = {1, 2, 4};

/** Per-class ordering personalization: which restructured artifact a
 *  client class pulls from the edge. */
SimConfig
classConfig(size_t cls)
{
    SimConfig cfg = headlineConfig();
    switch (cls % 4) {
      case 0: cfg.ordering = OrderingSource::Train; break;
      case 1: cfg.ordering = OrderingSource::RtaStatic; break;
      case 2: cfg.ordering = OrderingSource::Static; break;
      default:
        cfg.ordering = OrderingSource::Train;
        cfg.dataPartition = true;
        break;
    }
    return cfg;
}

/** n clients cycling through workloads and `classes` client classes. */
std::vector<ClientSpec>
makeFleet(const std::vector<BenchWorkload> &entries, size_t n,
          size_t classes)
{
    std::vector<ClientSpec> fleet;
    fleet.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const BenchWorkload &e = entries[i % entries.size()];
        ClientSpec spec;
        spec.ctx = e.ctx.get();
        spec.config = classConfig(i % classes);
        spec.name = cat(e.workload.name, "-c", i % classes, "-", i);
        fleet.push_back(std::move(spec));
    }
    return fleet;
}

/**
 * Arrivals spread over 200M cycles — deliberately wider than the
 * server bench's 2M stampede window. An origin fetch at 64x T1 costs
 * ~42M cycles, so a 2M window turns every artifact reuse into an
 * in-flight join and the hit rate degenerates to zero; a window a few
 * fetch-times wide exercises the tier's actual regime, where early
 * fetches settle into residency and later arrivals hit.
 */
ArrivalPlan
benchArrivals()
{
    ArrivalPlan plan;
    plan.kind = ArrivalKind::Uniform;
    plan.seed = 1998;
    plan.windowCycles = 200'000'000;
    return plan;
}

/** Every distinct artifact the fleet addresses, in bytes. */
uint64_t
workingSetBytes(const std::vector<ClientSpec> &fleet)
{
    std::map<EdgeKey, uint64_t> seen;
    for (const ClientSpec &spec : fleet)
        seen[edgeKeyOf(*spec.ctx, spec.config)] =
            artifactBytes(*spec.ctx, spec.config);
    uint64_t total = 0;
    for (const auto &kv : seen)
        total += kv.second;
    return total;
}

struct CellOutcome
{
    ServerResult sr;
    std::vector<uint64_t> stalls;
    std::vector<uint64_t> cacheWaits;
};

CellOutcome
runCell(const std::vector<ClientSpec> &fleet, ServerOptions opts,
        EdgeCache *cache)
{
    opts.edgeCache = cache;
    CellOutcome cell;
    cell.sr = runServer(fleet, opts);
    for (const ServerClientResult &c : cell.sr.clients) {
        cell.stalls.push_back(c.sim.stallCycles);
        cell.cacheWaits.push_back(c.cacheWait);
    }
    return cell;
}

bool
statsBalanced(const EdgeCacheStats &s)
{
    return s.hits + s.misses == s.requests &&
           s.fetches + s.joins == s.misses &&
           s.insertions == s.evictions + s.residentEntries &&
           s.insertedBytes - s.evictedBytes == s.residentBytes;
}

double
pct(uint64_t part, uint64_t whole)
{
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole);
}

} // namespace

BenchJson
runExtCache(BenchEnv &env, std::ostream &os)
{
    benchHeader(
        os, "Extension — edge-cache tier (origin -> edge -> fleet)",
        "Fleets of 16..1024 clients in 1/2/4 ordering-personalized\n"
        "classes pull restructured artifacts through a cold edge cache\n"
        "(origin uplink = 64x T1); hit rate, origin bytes saved, fetch\n"
        "waits, and stall percentiles vs the cacheless fleet, then a\n"
        "capacity/eviction sweep and a warm-cache identity check");

    const std::vector<BenchWorkload> &entries = env.workloads();
    const double capacity = 2.0 * linkRate(kT1Link);
    const size_t fleetCap = env.maxFleet();

    EqualShareAllocator equal;
    auto serverOpts = [&] {
        ServerOptions opts;
        opts.uplinkBytesPerCycle = capacity;
        opts.allocator = &equal;
        opts.arrivals = benchArrivals();
        return opts;
    };

    BenchJson json("ext_cache");
    RunMetrics metrics;
    double headlineHitRate = 0.0;
    uint64_t headlineSaved = 0, headlineServed = 0;
    uint64_t headlineP99 = 0, headlineP99Cacheless = 0;

    // Main grid: cold cache vs cacheless per (class count, fleet).
    for (size_t classes : kClassCounts) {
        Table t({cat("Fleet (", classes, " class",
                     classes == 1 ? "" : "es", ")"),
                 "Hit rate %", "Origin saved %", "p95 fetch Mcyc",
                 "p50 stall Mcyc", "p95 stall Mcyc", "p99 stall Mcyc",
                 "p99 cacheless", "Makespan Mcyc"});
        for (size_t n : kFleetSizes) {
            if (n > fleetCap)
                continue;
            std::vector<ClientSpec> fleet =
                makeFleet(entries, n, classes);

            CellOutcome base = runCell(fleet, serverOpts(), nullptr);

            EventTrace obs;
            EdgeCacheOptions copts;
            copts.sink = &obs;
            EdgeCache cache(copts);
            CellOutcome cached = runCell(fleet, serverOpts(), &cache);
            const EdgeCacheStats &s = cache.stats();

            metrics.add(obs);
            for (const ServerClientResult &c : cached.sr.clients)
                metrics.add(c.sim);

            uint64_t p99 = percentile(cached.stalls, 99);
            uint64_t p99Base = percentile(base.stalls, 99);
            t.addRow({cat(n, " clients"),
                      fmtF(100.0 * s.hitRate(), 1),
                      fmtF(pct(s.bytesSaved(), s.bytesServed), 1),
                      fmtMillions(percentile(cached.cacheWaits, 95), 2),
                      fmtMillions(percentile(cached.stalls, 50), 2),
                      fmtMillions(percentile(cached.stalls, 95), 2),
                      fmtMillions(p99, 2), fmtMillions(p99Base, 2),
                      fmtMillions(cached.sr.makespan, 1)});

            // The acceptance cell: >= 64 clients in >= 2 classes.
            if (n == 64 && classes == 4) {
                headlineHitRate = s.hitRate();
                headlineSaved = s.bytesSaved();
                headlineServed = s.bytesServed;
                headlineP99 = p99;
                headlineP99Cacheless = p99Base;
            }
        }
        os << t.render() << "\n";
        json.addTable(cat(classes, " client classes"), t);
    }

    // Capacity sweep: constrain the 64-client 4-class working set and
    // check the eviction accounting identities exactly.
    bool allBalanced = true;
    uint64_t sweepEvictions = 0;
    {
        const size_t n = std::min<size_t>(64, fleetCap);
        std::vector<ClientSpec> fleet = makeFleet(entries, n, 4);
        uint64_t ws = workingSetBytes(fleet);
        struct CapCase
        {
            std::string label;
            uint64_t cap;
            EvictionPolicy policy;
        };
        const CapCase cases[] = {
            {"unlimited", 0, EvictionPolicy::LRU},
            {"1/2 working set, LRU", ws / 2, EvictionPolicy::LRU},
            {"1/2 working set, LFU", ws / 2, EvictionPolicy::LFU},
            {"1/4 working set, LRU", ws / 4, EvictionPolicy::LRU},
            {"1/4 working set, LFU", ws / 4, EvictionPolicy::LFU},
        };
        Table t({cat("Capacity (", n, " clients, 4 classes)"),
                 "Hit rate %", "Origin saved %", "Fetches", "Evictions",
                 "Resident", "Balanced"});
        for (const CapCase &cc : cases) {
            EdgeCacheOptions copts;
            copts.capacityBytes = cc.cap;
            copts.policy = cc.policy;
            EdgeCache cache(copts);
            runCell(fleet, serverOpts(), &cache);
            const EdgeCacheStats &s = cache.stats();
            bool balanced = statsBalanced(s);
            allBalanced = allBalanced && balanced;
            if (cc.cap != 0)
                sweepEvictions += s.evictions;
            t.addRow({cc.label, fmtF(100.0 * s.hitRate(), 1),
                      fmtF(pct(s.bytesSaved(), s.bytesServed), 1),
                      cat(s.fetches), cat(s.evictions),
                      cat(s.residentEntries),
                      balanced ? "yes" : "NO"});
        }
        os << t.render() << "\n";
        json.addTable("capacity sweep", t);
    }

    // Warm-cache identity: a prewarmed cache must be invisible — the
    // fleet's outcome is field-for-field the cacheless one.
    uint64_t mismatches = 0;
    {
        const size_t n = std::min<size_t>(64, fleetCap);
        std::vector<ClientSpec> fleet = makeFleet(entries, n, 4);
        CellOutcome base = runCell(fleet, serverOpts(), nullptr);
        EdgeCacheOptions copts;
        EdgeCache cache(copts);
        for (const ClientSpec &spec : fleet)
            cache.prewarm(*spec.ctx, spec.config);
        CellOutcome warm = runCell(fleet, serverOpts(), &cache);
        for (size_t i = 0; i < n; ++i) {
            const SimResult &a = base.sr.clients[i].sim;
            const SimResult &b = warm.sr.clients[i].sim;
            bool same =
                a.totalCycles == b.totalCycles &&
                a.stallCycles == b.stallCycles &&
                a.invocationLatency == b.invocationLatency &&
                a.mispredictions == b.mispredictions &&
                base.sr.clients[i].finished ==
                    warm.sr.clients[i].finished &&
                warm.sr.clients[i].cacheWait == 0;
            if (!same)
                ++mismatches;
        }
        Table t({"Warm-cache identity", "Clients", "Mismatches",
                 "Hit rate %"});
        t.addRow({"prewarmed vs cacheless", cat(n), cat(mismatches),
                  fmtF(100.0 * cache.stats().hitRate(), 1)});
        os << t.render() << "\n";
        json.addTable("warm identity", t);
    }

    setBenchMetrics(json, metrics);
    json.setMetric("uplink_bytes_per_cycle", capacity);
    json.setMetric("hit_rate", headlineHitRate);
    json.setMetric("origin_bytes_saved", headlineSaved);
    json.setMetric("origin_bytes_served", headlineServed);
    json.setMetric("p99_stall_cached", headlineP99);
    json.setMetric("p99_stall_cacheless", headlineP99Cacheless);
    json.setMetric("eviction_accounting_balanced",
                   static_cast<uint64_t>(allBalanced ? 1 : 0));
    json.setMetric("sweep_evictions", sweepEvictions);
    json.setMetric("replay_mismatches", mismatches);
    json.check("hit_rate", CheckOp::Gt, 0);
    json.check("origin_bytes_saved", CheckOp::Gt, 0);
    json.check("eviction_accounting_balanced", CheckOp::Eq, 1);
    json.check("replay_mismatches", CheckOp::Eq, 0);
    return json;
}

} // namespace nse
