/**
 * @file
 * Extension — online runahead transfer scheduling vs static orderings.
 *
 * The paper's transfer schedules are fixed before the run (Section 4:
 * SCG, RTA-pruned, train-input first-use). Runahead
 * (transfer/runahead.h) revises them online: at every misprediction
 * stall it runs ahead in the recorded trace (bounded by the RTA call
 * graph for not-yet-seen paths) and promotes the predicted next
 * first-uses among the still-idle streams. This bench quantifies the
 * revision against every static ordering it could instead have used:
 *
 *  1. Solo, cross-input (train on A, run on B — the deployment case
 *     where static train orderings mispredict): per workload x
 *     {SCG, RTA, Train} x {nominal, faulty link}, static stall vs
 *     runahead (depth 16, k 4) stall. Correct-prediction cells must
 *     be *exactly* unchanged — runahead only acts at misprediction
 *     stalls — so the interesting rows are the mispredicting ones
 *     (Jess and JavaCup under Train).
 *  2. A depth sweep on the headline mispredicting cell.
 *  3. A depth-0 differential: runaheadDepth=0 must be bit-identical
 *     to plain static replay across the full grid; any field or
 *     event mismatch counts into the `replay_mismatches` metric, which
 *     a declared check pins to zero.
 *  4. Fleets of 64 and 256 clients (deadline and propfair
 *     allocators) with every client on the Train ordering: total and
 *     p95 stall and makespan, static vs per-client runahead feeding
 *     the allocator live deadlines.
 *
 * The headline metrics (declared checks): `static_stall_headline`
 * and `runahead_stall_headline` for the Jess/Train/faulty cell
 * (runahead must strictly win), and `replay_mismatches` == 0.
 */

#include <cstdint>
#include <map>

#include "bench/bench_env.h"
#include "server/server_sim.h"

namespace nse
{
namespace
{

constexpr uint32_t kDepth = 16; ///< headline runahead window

/** The degraded-link plan of the runahead tests: bursty bandwidth
 *  plus seeded drops with retry/backoff. */
FaultPlan
faultyPlan()
{
    FaultPlan plan;
    plan.trace = BandwidthTrace::bursts(/*seed=*/7, 400'000, 0.7,
                                        200'000'000);
    plan.dropSeed = 7;
    plan.dropsPerMByte = 40.0;
    plan.maxAttempts = 2;
    plan.retryTimeoutCycles = 120'000;
    return plan;
}

constexpr OrderingSource kOrderings[] = {OrderingSource::Static,
                                         OrderingSource::RtaStatic,
                                         OrderingSource::Train};

/** Fields-plus-events mismatch count between two observed runs; the
 *  differential table sums this and a check pins the sum to zero. */
uint64_t
countMismatches(const SimResult &a, const SimResult &b,
                const EventTrace &ta, const EventTrace &tb)
{
    uint64_t bad = 0;
    bad += a.invocationLatency != b.invocationLatency;
    bad += a.totalCycles != b.totalCycles;
    bad += a.execCycles != b.execCycles;
    bad += a.transferCycles != b.transferCycles;
    bad += a.stallCycles != b.stallCycles;
    bad += a.mispredictions != b.mispredictions;
    bad += a.bytecodes != b.bytecodes;
    bad += a.retryCount != b.retryCount;
    bad += a.degradedCycles != b.degradedCycles;
    if (ta.events().size() != tb.events().size())
        return bad + 1;
    for (size_t i = 0; i < ta.events().size(); ++i) {
        const ObsEvent &x = ta.events()[i];
        const ObsEvent &y = tb.events()[i];
        if (x.cycle != y.cycle || x.kind != y.kind ||
            x.stream != y.stream || x.cls != y.cls ||
            x.method != y.method || x.a != y.a || x.b != y.b)
            return bad + 1;
    }
    return bad;
}

/** One solo cell, static and runahead, observed. */
struct SoloCell
{
    SimResult stat;
    SimResult run;
    EventTrace runTrace;
};

SoloCell
runSolo(const SimContext &ctx, OrderingSource ord, bool faulty,
        uint32_t depth)
{
    SoloCell cell;
    SimConfig cfg = headlineConfig(ord);
    if (faulty)
        cfg.faults = faultyPlan();
    cell.stat = runReplay(ctx, cfg, nullptr);
    cfg.runaheadDepth = depth;
    cell.run = runReplay(ctx, cfg, &cell.runTrace);
    return cell;
}

/** Signed stall delta rendered as "-12.3%" ("=" for exact ties). */
std::string
fmtDelta(uint64_t stat, uint64_t run)
{
    if (stat == run)
        return "=";
    if (stat == 0)
        return "n/a";
    double pct = 100.0 * (static_cast<double>(run) -
                          static_cast<double>(stat)) /
                 static_cast<double>(stat);
    return (pct > 0 ? "+" : "") + fmtF(pct, 1) + "%";
}

/** Fleet of n Train-ordering clients cycling the bench workloads;
 *  every third client runs under the faulty plan so the fleet always
 *  contains mispredicting members. */
std::vector<ClientSpec>
makeFleet(const std::vector<BenchWorkload> &entries, size_t n,
          uint32_t depth)
{
    std::vector<ClientSpec> fleet;
    fleet.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const BenchWorkload &e = entries[i % entries.size()];
        ClientSpec spec;
        spec.ctx = e.ctx.get();
        spec.config = headlineConfig(OrderingSource::Train);
        if (i % 3 == 0)
            spec.config.faults = faultyPlan();
        spec.config.runaheadDepth = depth;
        spec.weight = 1.0;
        spec.name = cat(e.workload.name, "-", i);
        fleet.push_back(std::move(spec));
    }
    return fleet;
}

struct FleetOutcome
{
    uint64_t totalStall = 0;
    uint64_t p95Stall = 0;
    uint64_t makespan = 0;
    uint64_t mispredictions = 0;
};

FleetOutcome
runFleet(const BenchEnv &env, size_t n,
         const BandwidthAllocator &alloc, uint32_t depth)
{
    ServerOptions opts;
    // 0.75x nominal per client: contended (allocators must arbitrate
    // every cycle) but not overloaded — under the ext_server overload
    // regime (capacity for 2 of n) execution slows so much that every
    // stream start beats its retimed first use, mispredictions vanish
    // fleet-wide, and a runahead column would measure nothing.
    opts.uplinkBytesPerCycle =
        0.75 * static_cast<double>(n) * linkRate(kT1Link);
    opts.allocator = &alloc;
    opts.arrivals.kind = ArrivalKind::Uniform;
    opts.arrivals.seed = 1998;
    opts.arrivals.windowCycles = 2'000'000;
    ServerResult res =
        runServer(makeFleet(env.workloads(), n, depth), opts);
    FleetOutcome out;
    out.makespan = res.makespan;
    std::vector<uint64_t> stalls;
    stalls.reserve(res.clients.size());
    for (const ServerClientResult &c : res.clients) {
        out.totalStall += c.sim.stallCycles;
        out.mispredictions += c.sim.mispredictions;
        stalls.push_back(c.sim.stallCycles);
    }
    out.p95Stall = percentile(std::move(stalls), 95.0);
    return out;
}

} // namespace

BenchJson
runExtRunahead(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Extension 8 (runahead transfer scheduling)",
                "Online reprioritization at misprediction stalls vs "
                "the paper's static orderings, solo and at fleet "
                "scale (depth 16, k 4 unless swept).");

    const std::vector<BenchWorkload> &entries = env.workloads();
    BenchJson json("ext_runahead");
    RunMetrics metrics;

    // ---- Table 1: solo static vs runahead, cross-input ----
    struct SoloRow
    {
        const BenchWorkload *entry;
        bool faulty;
        SoloCell cells[3]; ///< per ordering
    };
    std::vector<SoloRow> rows;
    for (const BenchWorkload &e : entries)
        for (bool faulty : {false, true})
            rows.push_back({&e, faulty, {}});
    env.runner().parallelFor(rows.size() * 3, [&](size_t i) {
        SoloRow &row = rows[i / 3];
        row.cells[i % 3] = runSolo(*row.entry->ctx, kOrderings[i % 3],
                                   row.faulty, kDepth);
    });

    Table solo({"workload", "link", "ordering", "mispredict",
                "static stall (M)", "runahead stall (M)", "delta",
                "promote", "defer"});
    uint64_t wins = 0, regressions = 0, unchanged = 0;
    uint64_t headlineStatic = 0, headlineRunahead = 0;
    for (const SoloRow &row : rows) {
        for (size_t o = 0; o < 3; ++o) {
            const SoloCell &c = row.cells[o];
            RunMetrics cell;
            cell.add(c.run);
            cell.add(c.runTrace);
            metrics.add(c.run);
            metrics.add(c.runTrace);
            solo.addRow({row.entry->workload.name,
                         row.faulty ? "faulty" : "nominal",
                         orderingName(kOrderings[o]),
                         std::to_string(c.run.mispredictions),
                         fmtMillions(c.stat.stallCycles, 1),
                         fmtMillions(c.run.stallCycles, 1),
                         fmtDelta(c.stat.stallCycles, c.run.stallCycles),
                         std::to_string(cell.runaheadPromotions),
                         std::to_string(cell.runaheadDeferrals)});
            if (c.run.stallCycles < c.stat.stallCycles)
                ++wins;
            else if (c.run.stallCycles > c.stat.stallCycles)
                ++regressions;
            else
                ++unchanged;
            if (row.entry->workload.name == "Jess" && row.faulty &&
                kOrderings[o] == OrderingSource::Train) {
                headlineStatic = c.stat.stallCycles;
                headlineRunahead = c.run.stallCycles;
            }
        }
    }
    os << "-- Solo: static vs runahead (depth 16, k 4), "
       << "train-on-A / run-on-B --\n"
       << solo.render() << "\n";

    // ---- Table 2: depth sweep on the headline mispredicting cell ----
    const BenchWorkload *jess = nullptr;
    for (const BenchWorkload &e : entries)
        if (e.workload.name == "Jess")
            jess = &e;
    Table sweep({"depth", "nominal stall (M)", "nominal delta",
                 "faulty stall (M)", "faulty delta"});
    if (jess) {
        constexpr uint32_t kDepths[] = {0, 4, 8, 16, 32, 64};
        SoloCell swept[6][2];
        env.runner().parallelFor(12, [&](size_t i) {
            swept[i / 2][i % 2] =
                runSolo(*jess->ctx, OrderingSource::Train, i % 2 == 1,
                        kDepths[i / 2]);
        });
        for (size_t d = 0; d < 6; ++d) {
            const SoloCell &nom = swept[d][0];
            const SoloCell &bad = swept[d][1];
            sweep.addRow(
                {std::to_string(kDepths[d]),
                 fmtMillions(nom.run.stallCycles, 1),
                 fmtDelta(nom.stat.stallCycles, nom.run.stallCycles),
                 fmtMillions(bad.run.stallCycles, 1),
                 fmtDelta(bad.stat.stallCycles, bad.run.stallCycles)});
        }
        os << "-- Jess / Train: runahead depth sweep "
           << "(k 4) --\n"
           << sweep.render() << "\n";
    }

    // ---- Table 3: depth-0 differential (must be bit-identical) ----
    struct DiffCell
    {
        uint64_t mismatches = 0;
    };
    std::vector<DiffCell> diffs(entries.size() * 3 * 2);
    env.runner().parallelFor(diffs.size(), [&](size_t i) {
        const BenchWorkload &e = entries[i / 6];
        OrderingSource ord = kOrderings[(i / 2) % 3];
        bool faulty = i % 2 == 1;
        SimConfig cfg = headlineConfig(ord);
        if (faulty)
            cfg.faults = faultyPlan();
        EventTrace base;
        SimResult br = runReplay(*e.ctx, cfg, &base);
        cfg.runaheadDepth = 0;
        EventTrace zero;
        SimResult zr = runReplay(*e.ctx, cfg, &zero);
        diffs[i].mismatches = countMismatches(br, zr, base, zero);
    });
    uint64_t replayMismatches = 0;
    for (const DiffCell &d : diffs)
        replayMismatches += d.mismatches;
    os << "-- Depth-0 differential: " << diffs.size()
       << " cells, " << replayMismatches
       << " field/event mismatches (must be 0) --\n\n";

    // ---- Table 4: fleets, static vs runahead ----
    Table fleet({"clients", "allocator", "mispredict",
                 "static stall (M)", "runahead stall (M)", "delta",
                 "p95 static (M)", "p95 runahead (M)",
                 "makespan delta"});
    DeadlineAllocator deadline;
    PropFairAllocator propfair;
    const std::pair<const char *, const BandwidthAllocator *>
        allocs[] = {{"deadline", &deadline}, {"propfair", &propfair}};
    for (size_t n : {size_t(64), size_t(256)}) {
        if (n > env.maxFleet())
            continue;
        for (const auto &[name, alloc] : allocs) {
            FleetOutcome stat = runFleet(env, n, *alloc, 0);
            FleetOutcome run = runFleet(env, n, *alloc, kDepth);
            fleet.addRow({std::to_string(n), name,
                          std::to_string(run.mispredictions),
                          fmtMillions(stat.totalStall, 0),
                          fmtMillions(run.totalStall, 0),
                          fmtDelta(stat.totalStall, run.totalStall),
                          fmtMillions(stat.p95Stall, 1),
                          fmtMillions(run.p95Stall, 1),
                          fmtDelta(stat.makespan, run.makespan)});
            json.setMetric(cat("fleet_", n, "_", name, "_static_stall"),
                           stat.totalStall);
            json.setMetric(cat("fleet_", n, "_", name,
                               "_runahead_stall"),
                           run.totalStall);
        }
    }
    os << "-- Fleets (Train ordering, 1/3 of clients on the "
       << "faulty link, uplink = 0.75x nominal per client) --\n"
       << fleet.render() << "\n";

    json.addTable("solo_static_vs_runahead", solo);
    json.addTable("depth_sweep", sweep);
    json.addTable("fleet_static_vs_runahead", fleet);
    setBenchMetrics(json, metrics);
    json.setMetric("replay_mismatches", replayMismatches);
    json.setMetric("runahead_wins", wins);
    json.setMetric("runahead_regressions", regressions);
    json.setMetric("runahead_unchanged", unchanged);
    json.setMetric("static_stall_headline", headlineStatic);
    json.setMetric("runahead_stall_headline", headlineRunahead);
    for (const char *label : {"solo_static_vs_runahead", "depth_sweep",
                              "fleet_static_vs_runahead"})
        json.checkTable(label);
    json.check("replay_mismatches", CheckOp::Eq, 0);
    json.check("runahead_wins", CheckOp::Gt, 0);
    json.check("static_stall_headline", CheckOp::Gt, 0);
    json.check("runahead_stall_headline", CheckOp::Lt,
               json.metric("static_stall_headline"));
    json.check("runaheadPromotions", CheckOp::Gt, 0);
    return json;
}

} // namespace nse
