/**
 * @file
 * nse_perfbench — the repository benchmark program.
 *
 * Links the simulator libraries and times calls into each layer's
 * public functions from outside, one op at a time, in a closed loop on
 * one thread (each op starts when the previous one returns; no
 * ExperimentRunner pool). Four workloads, each a fixed op list run in
 * passes until the time budget is spent:
 *
 *   paper_grid      one runReplay per op over the paper's grid
 *   fleet_equal     one runServer per op: 1024 clients, equal share,
 *                   cold LRU edge cache at half the working set
 *   fleet_propfair  one cacheless runServer per op: 80 clients,
 *                   propfair, 2M-cycle stampede
 *   audit           one workload's analysis pipeline per op
 *
 * Every op's output is digested (FNV-1a) and checked: against pinned
 * digests where the op does not depend on the seed (or on the default
 * seed), against the first pass's digest otherwise, and against the
 * accounting identities the code documents. The last stdout line is
 * the result object; see README.md for the metrics.
 *
 * Usage:
 *   nse_perfbench --workload <name> [--seed N] [--seconds S]
 *                 [--trace 0|1] [--setups N] [--digests FILE]
 *                 [--write-digests FILE] [--spans-out FILE]
 *                 [--commit SHA]
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/audit.h"
#include "analysis/callgraph.h"
#include "analysis/dataflow.h"
#include "analysis/first_use.h"
#include "analysis/stall_bounds.h"
#include "cache/edge_cache.h"
#include "obs/stall.h"
#include "obs/trace.h"
#include "restructure/data_partition.h"
#include "restructure/layout.h"
#include "server/server_sim.h"
#include "sim/context.h"
#include "sim/replay.h"
#include "support/error.h"
#include "transfer/schedule.h"
#include "workloads/workload.h"

#include "tracer.h"

using namespace nse;
using perfbench::nowNs;
using perfbench::SpanScope;
using perfbench::Tracer;

namespace
{

/** The seed the pinned digests were taken on. */
constexpr uint64_t kDefaultSeed = 1998;

/** Automatic set-up repetition, per round (one round before the timed
 *  phase, one after): cheap set-ups repeat more, so the median setup_s
 *  rests on several samples whatever the workload. */
constexpr int kMinSetups = 2;
constexpr int kMaxSetups = 12;
constexpr double kMinSetupSeconds = 3.0;

/** Workloads whose use analysis gets its own metric (the slow ones). */
const char *const kUseSpotlight[] = {"BIT", "Jess", "JavaCup"};

const OrderingSource kClassOrders[] = {OrderingSource::Train,
                                       OrderingSource::RtaStatic,
                                       OrderingSource::Static};

/** splitmix64 of (seed, salt): independent sub-seeds per plan. */
uint64_t
subSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a over the fields of an op's simulated output. */
struct Digest
{
    uint64_t h = 14695981039346656037ULL;

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }

    void
    f64(double d)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s) {
            h ^= static_cast<uint8_t>(c);
            h *= 1099511628211ULL;
        }
    }

    void
    sim(const SimResult &r)
    {
        u64(r.invocationLatency);
        u64(r.totalCycles);
        u64(r.execCycles);
        u64(r.transferCycles);
        u64(r.stallCycles);
        u64(r.mispredictions);
        u64(r.bytecodes);
        f64(r.cpi);
        u64(r.retryCount);
        u64(r.degradedCycles);
    }
};

/** A failed output check; counts the op as failed. */
struct CheckFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

template <typename... Args>
void
check(bool cond, const Args &...what)
{
    if (!cond)
        throw CheckFailure(cat(what...));
}

/** Nearest-rank percentile (p in 0..100) of a sample. */
template <typename T>
T
nearestRank(std::vector<T> xs, double p)
{
    if (xs.empty())
        return T{};
    std::sort(xs.begin(), xs.end());
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(xs.size())));
    return xs[std::clamp<size_t>(rank, 1, xs.size()) - 1];
}

/** Median (mean of the middle two for even counts). */
double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// ------------------------------------------------------------------
// Set-up shared by every workload: programs, contexts, decode cache,
// profiles and traces.

struct Common
{
    std::vector<Workload> workloads;
    std::vector<std::unique_ptr<SimContext>> ctxs;
    /** Bytecodes interpreted by the profile runs of this set-up. */
    uint64_t bytecodes = 0;
};

void
buildCommon(Common &c, Tracer &t)
{
    {
        SpanScope s(t, "workloads.build");
        c.workloads = allWorkloads();
    }
    for (size_t w = 0; w < c.workloads.size(); ++w) {
        const Workload &wl = c.workloads[w];
        // cache_dir "" keeps the on-disk profile cache out of set-up.
        c.ctxs.push_back(std::make_unique<SimContext>(
            wl.program, wl.natives, wl.trainInput, wl.testInput, ""));
        const SimContext &ctx = *c.ctxs.back();
        {
            SpanScope s(t, "vm.decode", static_cast<int>(w));
            const DecodedCache &dc = ctx.decoded();
            for (uint16_t ci = 0; ci < wl.program.classCount(); ++ci) {
                const auto &methods = wl.program.classAt(ci).methods;
                for (size_t mi = 0; mi < methods.size(); ++mi) {
                    if (methods[mi].isNative() || methods[mi].code.empty())
                        continue;
                    dc.get({ci, static_cast<uint16_t>(mi)});
                }
            }
        }
        {
            SpanScope s(t, "profile.run", static_cast<int>(w));
            c.bytecodes += ctx.trainProfile().result.bytecodes;
            c.bytecodes += ctx.testProfile().result.bytecodes;
            ctx.trace();
        }
    }
}

void
warmLayout(const SimContext &ctx, const SimConfig &cfg, Tracer &t, int w)
{
    {
        SpanScope s(t, "restructure.layout", w);
        ctx.layout(layoutKeyOf(cfg));
    }
    if (cfg.mode == SimConfig::Mode::Parallel) {
        SpanScope s(t, "transfer.schedule", w);
        ScheduleKey key;
        key.layout = layoutKeyOf(cfg);
        key.cyclesPerByte = cfg.link.cyclesPerByte;
        key.limit = cfg.parallelLimit;
        ctx.schedule(key);
    }
}

// ------------------------------------------------------------------
// Workloads.

/** Per-layer work counts, summed over the ops of the traced phase. */
struct Counters
{
    uint64_t replayEvents = 0;
    uint64_t mispredictions = 0;
    uint64_t retries = 0;
    uint64_t promotions = 0;
    uint64_t serverEvents = 0;
    uint64_t allocatorRuns = 0;
    uint64_t allocationIntervals = 0;
    uint64_t ratesChanged = 0;
    uint64_t ratesSeen = 0;
    uint64_t cacheRequests = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheJoins = 0;
    uint64_t cacheEvictions = 0;
    uint64_t useIterations = 0;
};

/** The modelled (deterministic) outputs a workload reports. */
struct Modelled
{
    std::optional<double> execPct;
    std::optional<double> stallP50Mcyc;
    std::optional<double> stallP95Mcyc;
    std::optional<double> makespanMcyc;
    std::optional<double> originSavedPct;
    std::optional<double> cacheWaitP95Mcyc;
    /** Clients behind the stall and cache-wait percentiles. */
    size_t clients = 0;
};

class Suite
{
  public:
    virtual ~Suite() = default;

    virtual size_t ops() const = 0;

    /** True when op i's output does not depend on --seed. */
    virtual bool seedFree(size_t i) const = 0;

    /**
     * Run op i and return the digest of its output. `observe` attaches
     * the obs sinks and probes of the traced run and checks the
     * identities they expose. Throws CheckFailure on a failed check.
     */
    virtual uint64_t run(size_t i, Tracer &t, bool observe) = 0;

    /** Modelled metrics from the most recent pass. */
    virtual Modelled modelled() const = 0;

    Common common;
    Counters counters;
};

// ---- paper_grid ----------------------------------------------------

class PaperGrid : public Suite
{
  public:
    PaperGrid(uint64_t seed, Tracer &t)
    {
        buildCommon(common, t);
        const LinkModel links[] = {kT1Link, kModemLink};
        const int limits[] = {1, 2, 4, 0};
        for (size_t w = 0; w < common.ctxs.size(); ++w) {
            const SimContext &ctx = *common.ctxs[w];
            for (size_t l = 0; l < 2; ++l) {
                const LinkModel &link = links[l];
                size_t strict = cells_.size();
                SimConfig base;
                base.link = link;
                cells_.push_back({w, base, "sim.replay.strict", strict});
                FaultPlan faults = faultPlan(seed, w, l, ctx, link);
                for (OrderingSource ord : kClassOrders) {
                    for (int limit : limits) {
                        for (bool part : {false, true}) {
                            SimConfig cfg = base;
                            cfg.mode = SimConfig::Mode::Parallel;
                            cfg.ordering = ord;
                            cfg.parallelLimit = limit;
                            cfg.dataPartition = part;
                            warmLayout(ctx, cfg, t, static_cast<int>(w));
                            cells_.push_back(
                                {w, cfg, "sim.replay.parallel", strict});
                            cfg.faults = faults;
                            cfg.runaheadDepth = 16;
                            cells_.push_back(
                                {w, cfg, "sim.replay.faulty", strict});
                        }
                    }
                }
                for (OrderingSource ord : kClassOrders) {
                    SimConfig cfg = base;
                    cfg.mode = SimConfig::Mode::Interleaved;
                    cfg.ordering = ord;
                    warmLayout(ctx, cfg, t, static_cast<int>(w));
                    cells_.push_back(
                        {w, cfg, "sim.replay.interleaved", strict});
                }
            }
        }
        results_.resize(cells_.size());
    }

    size_t ops() const override { return cells_.size(); }

    bool
    seedFree(size_t i) const override
    {
        return cells_[i].cfg.faults.nominal();
    }

    uint64_t
    run(size_t i, Tracer &t, bool observe) override
    {
        const Cell &c = cells_[i];
        const SimContext &ctx = *common.ctxs[c.w];
        std::optional<EventTrace> trace;
        if (observe)
            trace.emplace();
        SimResult r;
        {
            SpanScope s(t, c.kind, static_cast<int>(c.w));
            r = runReplay(ctx, c.cfg, trace ? &*trace : nullptr);
        }
        check(r.execCycles == ctx.trace().totals.execCycles,
              "replay changed the executed cycles");
        check(r.stallCycles <= r.totalCycles, "stall exceeds total");
        check(!c.cfg.faults.nominal() || r.retryCount == 0,
              "retries on a nominal link");
        if (trace) {
            check(buildStallReport(*trace, r).reconstructs(),
                  "stall attribution does not reconstruct the run");
            counters.replayEvents += trace->size();
            counters.promotions += trace->count(ObsKind::RunaheadPromote);
        }
        counters.mispredictions += r.mispredictions;
        counters.retries += r.retryCount;
        results_[i] = r;
        Digest d;
        d.sim(r);
        return d.h;
    }

    Modelled
    modelled() const override
    {
        // Geomean normalized execution time over the overlapped cells.
        double logSum = 0.0;
        size_t n = 0;
        for (size_t i = 0; i < cells_.size(); ++i) {
            if (cells_[i].strict == i)
                continue;
            logSum += std::log(
                normalizedPct(results_[i], results_[cells_[i].strict]));
            ++n;
        }
        Modelled m;
        m.execPct = std::exp(logSum / static_cast<double>(n));
        return m;
    }

  private:
    struct Cell
    {
        size_t w;
        SimConfig cfg;
        const char *kind;
        /** Op index of the cell's strict baseline. */
        size_t strict;
    };

    /** Bursty bandwidth plus seeded drops, scaled to the link. */
    static FaultPlan
    faultPlan(uint64_t seed, size_t w, size_t l, const SimContext &ctx,
              const LinkModel &link)
    {
        const double scale = link.cyclesPerByte / kT1Link.cyclesPerByte;
        const uint64_t salt = 2 * w + l;
        const auto transfer = static_cast<uint64_t>(
            static_cast<double>(ctx.totalBytes()) * link.cyclesPerByte);
        FaultPlan plan;
        plan.trace = BandwidthTrace::bursts(
            subSeed(seed, 100 + salt), static_cast<uint64_t>(400'000 * scale),
            0.7, 2 * (transfer + ctx.trace().totals.execCycles));
        plan.dropSeed = subSeed(seed, 200 + salt);
        plan.dropsPerMByte = 40.0;
        plan.maxAttempts = 2;
        plan.retryTimeoutCycles = static_cast<uint64_t>(120'000 * scale);
        return plan;
    }

    std::vector<Cell> cells_;
    std::vector<SimResult> results_;
};

// ---- fleets --------------------------------------------------------

struct FleetShape
{
    size_t clients;
    const char *allocator;
    uint64_t windowCycles;
    bool edgeCache;
};

class Fleet : public Suite
{
  public:
    Fleet(const FleetShape &shape, uint64_t seed, Tracer &t)
        : allocator_(makeAllocator(shape.allocator)), cached_(shape.edgeCache)
    {
        buildCommon(common, t);
        const size_t nw = common.ctxs.size();
        std::map<EdgeKey, uint64_t> artifacts;
        for (size_t i = 0; i < shape.clients; ++i) {
            const size_t w = i % nw;
            ClientSpec spec;
            spec.ctx = common.ctxs[w].get();
            spec.config.mode = SimConfig::Mode::Parallel;
            spec.config.ordering = kClassOrders[(i / nw) % 3];
            spec.config.link = kT1Link;
            spec.config.parallelLimit = 4;
            spec.weight = i % 2 ? 2.0 : 1.0;
            spec.name = cat(common.workloads[w].name, "-",
                            orderingName(spec.config.ordering), "-", i);
            EdgeKey key = edgeKeyOf(*spec.ctx, spec.config);
            if (!artifacts.count(key)) {
                warmLayout(*spec.ctx, spec.config, t, static_cast<int>(w));
                artifacts[key] = artifactBytes(*spec.ctx, spec.config);
            }
            bytes_.push_back(artifacts[key]);
            specs_.push_back(std::move(spec));
        }
        for (const auto &kv : artifacts)
            workingSet_ += kv.second;
        opts_.uplinkBytesPerCycle = 2.0 * linkRate(kT1Link);
        opts_.allocator = allocator_.get();
        opts_.arrivals.kind = ArrivalKind::Uniform;
        opts_.arrivals.seed = subSeed(seed, 1);
        opts_.arrivals.windowCycles = shape.windowCycles;
    }

    size_t ops() const override { return 1; }
    bool seedFree(size_t) const override { return false; }

    uint64_t
    run(size_t, Tracer &t, bool observe) override
    {
        ServerOptions opts = opts_;
        std::optional<EdgeCache> cache;
        if (cached_) {
            EdgeCacheOptions copts;
            copts.capacityBytes = workingSet_ / 2;
            copts.policy = EvictionPolicy::LRU;
            cache.emplace(copts);
            opts.edgeCache = &*cache;
        }
        std::vector<std::unique_ptr<EventTrace>> traces;
        bool overCapacity = false;
        std::vector<double> prev;
        if (observe) {
            traces.resize(specs_.size());
            opts.sinkFor = [&](size_t client) -> EventSink * {
                traces[client] = std::make_unique<EventTrace>();
                return traces[client].get();
            };
            const double cap = opts.uplinkBytesPerCycle;
            // Of the clients served at each new rate vector (rate > 0),
            // count those whose rate moved beyond the server's own 1e-12
            // relative tolerance, i.e. the engines it really retimes.
            opts.allocationProbe = [&, cap](uint64_t,
                                            const std::vector<double> &rates) {
                double sum = 0.0;
                prev.resize(rates.size(), 0.0);
                for (size_t k = 0; k < rates.size(); ++k) {
                    sum += rates[k];
                    if (rates[k] <= 0.0)
                        continue;
                    ++counters.ratesSeen;
                    counters.ratesChanged +=
                        std::abs(rates[k] - prev[k]) >
                        1e-12 * std::max(rates[k], prev[k]);
                }
                overCapacity |= sum > cap * (1.0 + 1e-9);
                prev = rates;
            };
        }

        ServerResult sr;
        {
            SpanScope s(t, "server.run");
            sr = runServer(specs_, opts);
        }

        check(!overCapacity, "allocated rates exceed the uplink");
        check(sr.clients.size() == specs_.size(), "client count");
        Digest d;
        d.u64(sr.makespan);
        std::vector<uint64_t> stalls, waits;
        for (size_t k = 0; k < sr.clients.size(); ++k) {
            const ServerClientResult &c = sr.clients[k];
            const SimContext &ctx = *specs_[k].ctx;
            check(c.arrival <= c.admitted && c.admitted <= c.finished,
                  "client ", k, " epochs out of order");
            check(c.cacheWait <= c.admitted - c.arrival, "client ", k,
                  " cache wait exceeds its admission delay");
            check(c.sim.execCycles == ctx.trace().totals.execCycles,
                  "client ", k, " changed the executed cycles");
            if (observe) {
                check(traces[k] &&
                          buildStallReport(*traces[k], c.sim).reconstructs(),
                      "client ", k, " stall attribution does not reconstruct");
                counters.promotions +=
                    traces[k]->count(ObsKind::RunaheadPromote);
            }
            counters.mispredictions += c.sim.mispredictions;
            counters.retries += c.sim.retryCount;
            stalls.push_back(c.sim.stallCycles);
            waits.push_back(c.cacheWait);
            d.str(c.name);
            d.u64(c.arrival);
            d.u64(c.admitted);
            d.u64(c.finished);
            d.u64(c.cacheWait);
            d.u64(c.cacheHit);
            d.sim(c.sim);
        }
        counters.serverEvents += sr.events;
        counters.allocatorRuns += sr.allocatorRuns;
        counters.allocationIntervals += sr.allocationIntervals;

        last_ = Modelled{};
        last_.clients = sr.clients.size();
        last_.stallP50Mcyc =
            static_cast<double>(nearestRank(stalls, 50)) / 1e6;
        last_.stallP95Mcyc =
            static_cast<double>(nearestRank(stalls, 95)) / 1e6;
        last_.makespanMcyc = static_cast<double>(sr.makespan) / 1e6;
        if (cache) {
            const EdgeCacheStats &s = cache->stats();
            check(s.hits + s.misses == s.requests, "cache: hits + misses");
            check(s.fetches + s.joins == s.misses, "cache: fetches + joins");
            check(s.insertions == s.evictions + s.residentEntries,
                  "cache: insertions");
            check(s.insertedBytes - s.evictedBytes == s.residentBytes,
                  "cache: resident bytes");
            // Every request is served its artifact; hits never touch
            // the origin.
            uint64_t requested = 0, hitBytes = 0;
            for (size_t k = 0; k < sr.clients.size(); ++k) {
                requested += bytes_[k];
                hitBytes += sr.clients[k].cacheHit ? bytes_[k] : 0;
            }
            check(s.bytesServed == requested &&
                      s.bytesFromOrigin <= s.bytesServed - hitBytes,
                  "cache: served bytes");
            for (uint64_t v :
                 {s.requests, s.hits, s.misses, s.fetches, s.joins,
                  s.insertions, s.evictions, s.uncacheable, s.residentEntries,
                  s.residentBytes, s.insertedBytes, s.evictedBytes,
                  s.bytesServed, s.bytesFromOrigin})
                d.u64(v);
            counters.cacheRequests += s.requests;
            counters.cacheHits += s.hits;
            counters.cacheMisses += s.misses;
            counters.cacheJoins += s.joins;
            counters.cacheEvictions += s.evictions;
            last_.originSavedPct =
                100.0 * ratio(static_cast<double>(s.bytesSaved()),
                              static_cast<double>(s.bytesServed));
            last_.cacheWaitP95Mcyc =
                static_cast<double>(nearestRank(waits, 95)) / 1e6;
        }
        return d.h;
    }

    Modelled modelled() const override { return last_; }

  private:
    std::unique_ptr<BandwidthAllocator> allocator_;
    bool cached_;
    std::vector<ClientSpec> specs_;
    /** Artifact bytes each client requests. */
    std::vector<uint64_t> bytes_;
    uint64_t workingSet_ = 0;
    ServerOptions opts_;
    Modelled last_;
};

// ---- audit ---------------------------------------------------------

class Audit : public Suite
{
  public:
    explicit Audit(Tracer &t) { buildCommon(common, t); }

    size_t ops() const override { return common.ctxs.size(); }
    bool seedFree(size_t) const override { return true; }

    uint64_t
    run(size_t i, Tracer &t, bool) override
    {
        const SimContext &ctx = *common.ctxs[i];
        const Program &prog = ctx.program();
        const int w = static_cast<int>(i);
        std::optional<CallGraph> cg;
        {
            SpanScope s(t, "analysis.callgraph", w);
            cg.emplace(buildCallGraph(prog));
        }
        std::optional<UseAnalysis> use;
        {
            SpanScope s(t, "analysis.use", w);
            use.emplace(analyzeUse(prog, *cg, ctx.decoded(), &ctx.natives()));
        }
        counters.useIterations += use->iterations();
        FirstUseOrder order;
        {
            SpanScope s(t, "analysis.mustuse", w);
            order = mustUseFirstUse(prog, *cg, *use);
        }
        // Scheduler deadlines as SimContext::methodCycles derives them
        // for the mustuse ordering.
        std::vector<uint64_t> cycles;
        for (size_t k = 0; k < order.order.size(); ++k)
            cycles.push_back(k < order.usedCount
                                 ? use->globalOf(order.order[k]).mayMin
                                 : UINT64_MAX);

        Digest d;
        for (const auto &[id, fact] : use->global()) {
            d.u64(id.classIdx);
            d.u64(id.methodIdx);
            d.u64(fact.mayMin);
            d.u64(fact.must);
            d.u64(fact.mustMax);
        }
        for (const MethodId &id : order.order) {
            d.u64(id.classIdx);
            d.u64(id.methodIdx);
        }
        for (bool partitioned : {false, true}) {
            std::optional<DataPartition> part;
            std::optional<TransferLayout> layout;
            {
                SpanScope s(t, "restructure.layout", w);
                if (partitioned)
                    part.emplace(partitionGlobalData(prog, order));
                layout.emplace(makeParallelLayout(
                    prog, order, part ? &*part : nullptr));
            }
            std::optional<StreamDemand> demand;
            std::optional<TransferSchedule> sched;
            {
                SpanScope s(t, "transfer.schedule", w);
                demand.emplace(
                    deriveStreamDemand(prog, order, *layout, cycles));
                sched.emplace(
                    buildGreedySchedule(*layout, *demand, kT1Link, 4));
            }
            std::optional<StallBoundReport> proof;
            {
                SpanScope s(t, "analysis.stall_bounds", w);
                proof.emplace(computeStallBounds(
                    {prog, *use, *layout, *sched, kT1Link, 4}));
            }
            std::optional<AuditReport> report;
            {
                SpanScope s(t, "analysis.audit", w);
                ScheduleAuditInput sin{*sched, *demand, kT1Link};
                report.emplace(auditNonStrictSafety(
                    prog, *cg, order, *layout, part ? &*part : nullptr,
                    &sin));
            }
            check(report->ok(), "audit found ", report->errorCount,
                  " error(s)");
            check(proof->runLowerBound <= proof->runUpperBound,
                  "stall-bound sandwich is empty");
            d.u64(proof->runLowerBound);
            d.u64(proof->runUpperBound);
            d.u64(proof->provableStalls);
            for (const MethodStallBound &m : proof->methods) {
                d.u64(m.lowerStall);
                d.u64(m.upperStall);
            }
            d.u64(report->errorCount);
            d.u64(report->warningCount);
            d.u64(report->infoCount);
        }
        return d.h;
    }

    Modelled modelled() const override { return {}; }
};

std::unique_ptr<Suite>
makeSuite(const std::string &name, uint64_t seed, Tracer &t)
{
    if (name == "paper_grid")
        return std::make_unique<PaperGrid>(seed, t);
    if (name == "fleet_equal")
        return std::make_unique<Fleet>(
            FleetShape{1024, "equal", 200'000'000, true}, seed, t);
    if (name == "fleet_propfair")
        return std::make_unique<Fleet>(
            FleetShape{80, "propfair", 2'000'000, false}, seed, t);
    if (name == "audit")
        return std::make_unique<Audit>(t);
    return nullptr;
}

// ------------------------------------------------------------------
// Driver.

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Set-up repetitions, all before the timed phase; 0 = two automatic
     *  rounds of at least kMinSetups and kMinSetupSeconds each. */
    int setups = 0;
    std::string digests;
    std::string writeDigests;
    std::string spansOut;
    std::string commit = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--setups")
            a.setups = std::max(0, std::stoi(v));
        else if (k == "--digests")
            a.digests = v;
        else if (k == "--write-digests")
            a.writeDigests = v;
        else if (k == "--spans-out")
            a.spansOut = v;
        else if (k == "--commit")
            a.commit = v;
        else
            return false;
    }
    return !a.workload.empty();
}

/** Pinned digests: "<workload> <op> <hex>" per line. */
std::map<size_t, uint64_t>
loadDigests(const std::string &path, const std::string &workload)
{
    std::map<size_t, uint64_t> out;
    std::ifstream in(path);
    std::string name, hex;
    size_t op = 0;
    while (in >> name >> op >> hex)
        if (name == workload)
            out[op] = std::stoull(hex, nullptr, 16);
    return out;
}

/** The result of one timed phase. */
struct Phase
{
    double seconds = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<double> passSeconds;
};

class Runner
{
  public:
    Runner(Suite &suite, Tracer &tracer, const Args &args)
        : suite_(suite), tracer_(tracer), args_(args),
          golden_(args.digests.empty()
                      ? std::map<size_t, uint64_t>{}
                      : loadDigests(args.digests, args.workload))
    {
    }

    /** Run whole passes until `seconds` have elapsed (at least one). */
    Phase
    timed(double seconds, bool observe)
    {
        Phase ph;
        const int64_t t0 = nowNs();
        do {
            const int64_t p0 = nowNs();
            for (size_t i = 0; i < suite_.ops(); ++i) {
                tracer_.inOp(static_cast<int64_t>(nextOp_++));
                ++ph.attempted;
                if (!runOne(i, observe))
                    ++ph.failed;
            }
            ph.passSeconds.push_back(static_cast<double>(nowNs() - p0) /
                                     1e9);
        } while (static_cast<double>(nowNs() - t0) / 1e9 < seconds);
        ph.seconds = static_cast<double>(nowNs() - t0) / 1e9;
        return ph;
    }

    const std::vector<uint64_t> &firstPass() const { return first_; }

  private:
    bool
    runOne(size_t i, bool observe)
    {
        try {
            uint64_t h;
            {
                SpanScope s(tracer_, "op");
                h = suite_.run(i, tracer_, observe);
            }
            if (first_.size() == i)
                first_.push_back(h);
            check(h == first_[i], "op ", i,
                  " output differs from the first pass");
            auto g = golden_.find(i);
            if (g != golden_.end() &&
                (suite_.seedFree(i) || args_.seed == kDefaultSeed))
                check(h == g->second, "op ", i,
                      " output differs from the pinned digest");
            return true;
        } catch (const CheckFailure &e) {
            report("check failed", e.what());
        } catch (const FatalError &e) {
            report("FatalError", e.what());
        } catch (const PanicError &e) {
            report("PanicError", e.what());
        }
        // A throwing op leaves no digest; keep indices aligned.
        if (first_.size() == i)
            first_.push_back(0);
        return false;
    }

    void
    report(const char *what, const char *detail)
    {
        if (++reported_ <= 5)
            std::cerr << "nse_perfbench: " << what << ": " << detail << "\n";
    }

    Suite &suite_;
    Tracer &tracer_;
    const Args &args_;
    std::map<size_t, uint64_t> golden_;
    std::vector<uint64_t> first_;
    size_t nextOp_ = 0;
    int reported_ = 0;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer figures derived from the spans of a traced run. */
class LayerTimes
{
  public:
    LayerTimes(const Tracer &t, size_t passes, size_t setups)
        : t_(t), self_(t.selfTimes()), passes_(passes), setups_(setups)
    {
    }

    /**
     * Milliseconds of self time a layer costs per set-up (median over
     * the set-ups) plus per timed pass (mean over the passes). `item`
     * restricts to spans about one workload.
     */
    double
    ms(const std::string &name, int item = -1) const
    {
        std::vector<double> perSetup(setups_, 0.0);
        double timed = 0.0;
        forEach(name, item, [&](const perfbench::Span &s, int64_t self) {
            if (s.setup >= 0)
                perSetup[static_cast<size_t>(s.setup)] +=
                    static_cast<double>(self);
            else
                timed += static_cast<double>(self);
        });
        return (median(perSetup) + timed / static_cast<double>(passes_)) /
               1e6;
    }

    /** Per-call self times (timed phase only), microseconds. */
    std::vector<double>
    callsUs(const std::string &name) const
    {
        std::vector<double> out;
        forEach(name, -1, [&](const perfbench::Span &s, int64_t self) {
            if (s.op >= 0)
                out.push_back(static_cast<double>(self) / 1e3);
        });
        return out;
    }

  private:
    template <typename Fn>
    void
    forEach(const std::string &name, int item, Fn &&fn) const
    {
        const auto &spans = t_.spans();
        for (size_t i = 0; i < spans.size(); ++i)
            if (name == spans[i].name && (item < 0 || spans[i].item == item))
                fn(spans[i], self_[i]);
    }

    const Tracer &t_;
    std::vector<int64_t> self_;
    size_t passes_;
    size_t setups_;
};

std::string
compilerName()
{
#if defined(__clang__)
    return cat("clang ", __clang_version__);
#elif defined(__GNUC__)
    return cat("gcc ", __VERSION__);
#else
    return "unknown";
#endif
}

void
printJson(std::ostream &os, double v)
{
    os << (std::isfinite(v) ? v : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        if (!parseArgs(argc, argv, args)) {
            std::cerr << "usage: nse_perfbench --workload <paper_grid|"
                         "fleet_equal|fleet_propfair|audit> [--seed N] "
                         "[--seconds S] [--trace 0|1] [--setups N] "
                         "[--digests FILE] [--write-digests FILE] "
                         "[--spans-out FILE] [--commit SHA]\n";
            return 2;
        }
    } catch (const std::exception &e) {
        std::cerr << "nse_perfbench: bad argument: " << e.what() << "\n";
        return 2;
    }

    if (!args.digests.empty() && !std::ifstream(args.digests)) {
        std::cerr << "nse_perfbench: cannot read " << args.digests << "\n";
        return 1;
    }

    Tracer tracer;
    tracer.on = args.trace;
    std::unique_ptr<Suite> suite;
    std::vector<double> setupSeconds;
    // Set-up runs in two rounds, before and after the timed phase, so
    // setup_s samples the host across the whole run as ops_per_s does:
    // a shared host's speed drifts over tens of seconds.
    auto setUpRound = [&](bool before) {
        double total = 0.0;
        for (int done = 0;; ++done) {
            const bool more =
                args.setups > 0
                    ? before && done < args.setups
                    : done < kMaxSetups &&
                          (done < kMinSetups || total < kMinSetupSeconds);
            if (!more)
                return true;
            suite.reset(); // tear the previous set-up down untimed
            tracer.inSetup(static_cast<int>(setupSeconds.size()));
            const int64_t t0 = nowNs();
            {
                SpanScope s(tracer, "setup");
                suite = makeSuite(args.workload, args.seed, tracer);
            }
            setupSeconds.push_back(static_cast<double>(nowNs() - t0) / 1e9);
            total += setupSeconds.back();
            if (!suite)
                return false;
        }
    };
    try {
        if (!setUpRound(true)) {
            std::cerr << "nse_perfbench: unknown workload " << args.workload
                      << "\n";
            return 2;
        }
    } catch (const std::exception &e) {
        std::cerr << "nse_perfbench: set-up failed: " << e.what() << "\n";
        return 1;
    }

    Runner runner(*suite, tracer, args);
    // The traced run first measures untraced throughput for the
    // overhead figure, then the traced phase the layers come from.
    bool saved = tracer.on;
    tracer.on = false;
    Phase plain = runner.timed(args.seconds, false);
    Phase traced;
    if (args.trace) {
        suite->counters = Counters{};
        tracer.on = saved;
        traced = runner.timed(args.seconds, true);
    }
    const uint64_t attempted = plain.attempted + traced.attempted;
    const uint64_t failed = plain.failed + traced.failed;

    if (!args.writeDigests.empty()) {
        std::ofstream out(args.writeDigests, std::ios::app);
        for (size_t i = 0; i < runner.firstPass().size(); ++i)
            out << args.workload << " " << i << " " << std::hex
                << runner.firstPass()[i] << std::dec << "\n";
    }

    // What the metrics need from the timed suite, before round two
    // replaces it.
    const Modelled mod = suite->modelled();
    const Counters c = suite->counters;
    const uint64_t bytecodes = suite->common.bytecodes;
    const size_t opsPerPass = suite->ops();
    std::vector<std::string> names;
    for (const Workload &wl : suite->common.workloads)
        names.push_back(wl.name);
    try {
        setUpRound(false);
    } catch (const std::exception &e) {
        std::cerr << "nse_perfbench: set-up failed: " << e.what() << "\n";
        return 1;
    }
    suite.reset();

    if (!args.spansOut.empty()) {
        std::ofstream out(args.spansOut);
        tracer.write(out);
    }

    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    const double opsPerS =
        static_cast<double>(plain.attempted) / plain.seconds;
    // A modelled metric the workload does not produce reads 1.0: the
    // result format needs every metric, and a median of 0 would make
    // the run-to-run spread undefined.
    std::vector<std::string> notApplicable;
    auto modelledOr = [&](const char *name, std::optional<double> v) {
        if (!v)
            notApplicable.push_back(name);
        return v.value_or(1.0);
    };

    std::vector<std::pair<std::string, size_t>> samples = {
        {"setup_s", setupSeconds.size()},
        {"pass_s_p50", plain.passSeconds.size()},
        {"traced_passes", traced.passSeconds.size()}};
    if (mod.clients)
        samples.push_back({"sim_stall_p50_mcyc", mod.clients});
    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", median(setupSeconds), "s"},
            {"ops_per_s", opsPerS, "1/s"},
            {"pass_s_p50", median(plain.passSeconds), "s"},
            {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
             "MB"},
            {"sim_exec_pct", modelledOr("sim_exec_pct", mod.execPct), "%"},
            {"sim_stall_p50_mcyc",
             modelledOr("sim_stall_p50_mcyc", mod.stallP50Mcyc), "Mcyc"},
            {"sim_stall_p95_mcyc",
             modelledOr("sim_stall_p95_mcyc", mod.stallP95Mcyc), "Mcyc"},
            {"sim_makespan_mcyc",
             modelledOr("sim_makespan_mcyc", mod.makespanMcyc), "Mcyc"},
            {"cache_origin_saved_pct",
             modelledOr("cache_origin_saved_pct", mod.originSavedPct), "%"},
        };
    } else {
        const size_t passes = traced.passSeconds.size();
        const LayerTimes lt(tracer, passes, setupSeconds.size());
        const auto per = [&](uint64_t v) {
            return static_cast<double>(v) / static_cast<double>(passes);
        };
        double profileMs = lt.ms("profile.run");
        double decodeMs = lt.ms("vm.decode");
        metrics = {
            {"workloads.build_ms", lt.ms("workloads.build"), "ms"},
            {"profile.run_ms", profileMs, "ms"},
            {"vm.decode_ms", decodeMs, "ms"},
            {"vm.bytecodes_per_s",
             ratio(static_cast<double>(bytecodes),
                   profileMs / 1e3),
             "1/s"},
            {"restructure.layout_ms", lt.ms("restructure.layout"), "ms"},
            {"transfer.schedule_ms", lt.ms("transfer.schedule"), "ms"},
        };
        double replayUs = 0.0;
        for (const char *kind : {"strict", "parallel", "interleaved",
                                 "faulty"}) {
            std::vector<double> calls =
                lt.callsUs(cat("sim.replay.", kind));
            for (double v : calls)
                replayUs += v;
            if (!calls.empty())
                samples.push_back(
                    {cat("sim.replay_us.", kind), calls.size()});
            metrics.push_back({cat("sim.replay_us.", kind, ".p50"),
                               nearestRank(calls, 50), "us"});
            metrics.push_back({cat("sim.replay_us.", kind, ".p90"),
                               nearestRank(calls, 90), "us"});
        }
        const double serverMs = lt.ms("server.run");
        metrics.insert(
            metrics.end(),
            {
                {"sim.replay_ns_per_event",
                 ratio(replayUs * 1e3, static_cast<double>(c.replayEvents)),
                 "ns"},
                {"sim.mispredictions", per(c.mispredictions), "count"},
                {"transfer.retries", per(c.retries), "count"},
                {"transfer.runahead_promotions", per(c.promotions), "count"},
                {"server.run_ms", serverMs, "ms"},
                {"server.us_per_event",
                 ratio(serverMs * 1e3, per(c.serverEvents)), "us"},
                {"server.events", per(c.serverEvents), "count"},
                {"server.allocator_runs", per(c.allocatorRuns), "count"},
                {"server.allocation_intervals", per(c.allocationIntervals),
                 "count"},
                {"server.alloc_runs_per_event",
                 ratio(static_cast<double>(c.allocatorRuns),
                       static_cast<double>(c.serverEvents)),
                 "ratio"},
                {"server.retime_useful_ratio",
                 ratio(static_cast<double>(c.ratesChanged),
                       static_cast<double>(c.ratesSeen)),
                 "ratio"},
                {"cache.hit_rate",
                 ratio(static_cast<double>(c.cacheHits),
                       static_cast<double>(c.cacheRequests)),
                 "ratio"},
                {"cache.misses", per(c.cacheMisses), "count"},
                {"cache.joins", per(c.cacheJoins), "count"},
                {"cache.evictions", per(c.cacheEvictions), "count"},
                {"cache.wait_p95_mcyc", mod.cacheWaitP95Mcyc.value_or(0.0),
                 "Mcyc"},
                {"analysis.callgraph_ms", lt.ms("analysis.callgraph"), "ms"},
                {"analysis.use_ms", lt.ms("analysis.use"), "ms"},
            });
        for (const char *name : kUseSpotlight) {
            int item = -1;
            for (size_t w = 0; w < names.size(); ++w)
                if (names[w] == name)
                    item = static_cast<int>(w);
            metrics.push_back({cat("analysis.use_ms.", name),
                               item < 0 ? 0.0 : lt.ms("analysis.use", item),
                               "ms"});
        }
        metrics.insert(
            metrics.end(),
            {
                {"analysis.use_iterations", per(c.useIterations), "count"},
                {"analysis.mustuse_ms", lt.ms("analysis.mustuse"), "ms"},
                {"analysis.stall_bounds_ms", lt.ms("analysis.stall_bounds"),
                 "ms"},
                {"analysis.audit_ms", lt.ms("analysis.audit"), "ms"},
                {"obs.trace_overhead_pct",
                 100.0 * (ratio(opsPerS, static_cast<double>(
                                             traced.attempted) /
                                             traced.seconds) -
                          1.0),
                 "%"},
            });
    }

    // Stamp: machine, build, and the sample count behind every median
    // and percentile.
    std::cout << std::setprecision(17);
    std::cout << "{\"stamp\": {\"workload\": \"" << args.workload
              << "\", \"seed\": " << args.seed
              << ", \"seconds\": " << args.seconds
              << ", \"trace\": " << (args.trace ? 1 : 0)
              << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
              << ", \"threads\": 1, \"compiler\": \"" << compilerName()
              << "\", \"build_type\": \"" << NSE_PERFBENCH_BUILD_TYPE
              << "\", \"git_commit\": \"" << args.commit
              << "\", \"ops_per_pass\": " << opsPerPass
              << ", \"samples\": {";
    for (size_t i = 0; i < samples.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << samples[i].first
                  << "\": " << samples[i].second;
    std::cout << "}, \"failed_op_ratio\": ";
    printJson(std::cout,
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)));
    std::cout << ", \"not_applicable\": [";
    for (size_t i = 0; i < notApplicable.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << notApplicable[i] << "\"";
    std::cout << "]}}\n";

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": ";
        printJson(std::cout, metrics[i].value);
        std::cout << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
