/**
 * @file
 * Extension — multi-client shared-uplink server, at fleet scale.
 *
 * The paper evaluates one client on one link; a deployed code server
 * multiplexes many. This bench runs fleets of N clients — each a real
 * workload replayed through the src/server/ simulation — competing
 * for one uplink with capacity for two T1 clients, and scales N
 * across four orders of magnitude: {2, 4, 8, 16, 64, 256, 1024,
 * 4096}.
 *
 * Four tables, one per BandwidthAllocator policy (equal, weighted,
 * deadline, propfair), report per fleet size: the p50/p95/p99 of
 * per-client stall cycles, fleet makespan, Jain's fairness index over
 * per-client slowdown (client total cycles / its own solo total), and
 * the event-loop cost columns. Events and allocator runs are
 * deterministic work counts of the run; wall ms and us/event time the
 * cell on the host that runs it. Nothing checks the timings, and the
 * per-event cost is not flat in N: an allocation can retime every
 * demanding client's engine, so us/event rises with the fleet (most
 * steeply under propfair, whose aging edges re-run the allocator).
 * Deadline-aware policies re-rank on every deadline movement by
 * design — their incrementality cannot skip allocator calls — so
 * their grids stop at 256 clients.
 *
 * Two further tables fold in the rest of the server backlog:
 * admission control (queue-at-the-door vs fair-share starvation on an
 * overloaded 64-client fleet: door limits trade in-system stalls for
 * admission wait) and a heterogeneous 64-client fleet mixing
 * parallel, data-partitioned, interleaved, and per-client-faulty
 * clients on one uplink (the server accepts any (SimContext,
 * SimConfig) per client; slowdown is measured against each client's
 * own solo configuration).
 *
 * The driver's fleet cap (NSE_SERVER_MAX_FLEET) bounds the grid (CI
 * smoke runs the >=256-client rows under a wall-clock budget without
 * paying for 4096).
 */

#include <chrono>
#include <cstdint>
#include <map>

#include "bench/bench_env.h"
#include "server/server_sim.h"

namespace nse
{
namespace
{

constexpr size_t kFleetSizes[] = {2, 4, 8, 16, 64, 256, 1024, 4096};
/** Deadline-aware policies re-allocate on every deadline movement
 *  (allocator.h), so their cells are intrinsically O(events * n); cap
 *  their grid where that is still cheap. */
constexpr size_t kDeadlineAwareMaxFleet = 256;

/** Fleet of n clients cycling through the bench workloads; odd
 *  clients are "heavy" (weight 2) so weighted share differentiates. */
std::vector<ClientSpec>
makeFleet(const std::vector<BenchWorkload> &entries, size_t n)
{
    std::vector<ClientSpec> fleet;
    fleet.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const BenchWorkload &e = entries[i % entries.size()];
        ClientSpec spec;
        spec.ctx = e.ctx.get();
        spec.config = headlineConfig();
        spec.weight = i % 2 ? 2.0 : 1.0;
        spec.name = cat(e.workload.name, "-", i);
        fleet.push_back(std::move(spec));
    }
    return fleet;
}

/** Shared arrival plan of every table: seeded uniform within 2M
 *  cycles (at 4096 clients an effectively simultaneous stampede
 *  relative to contended transfer times — the overload regime). */
ArrivalPlan
benchArrivals()
{
    ArrivalPlan plan;
    plan.kind = ArrivalKind::Uniform;
    plan.seed = 1998;
    plan.windowCycles = 2'000'000;
    return plan;
}

struct CellOutcome
{
    uint64_t p50 = 0, p95 = 0, p99 = 0;
    uint64_t makespan = 0;
    double fairness = 0.0;
    uint64_t events = 0;
    uint64_t allocatorRuns = 0;
    double wallMs = 0.0;
};

/** Run one (allocator, fleet) cell, timed, folding every client's
 *  result into `metrics`. */
CellOutcome
runCell(const std::vector<ClientSpec> &fleet, ServerOptions opts,
        const std::vector<uint64_t> &soloTotals, RunMetrics &metrics)
{
    auto t0 = std::chrono::steady_clock::now();
    ServerResult sr = runServer(fleet, opts);
    auto t1 = std::chrono::steady_clock::now();

    CellOutcome cell;
    std::vector<uint64_t> stalls;
    std::vector<double> slowdowns;
    for (size_t i = 0; i < sr.clients.size(); ++i) {
        const SimResult &r = sr.clients[i].sim;
        stalls.push_back(r.stallCycles);
        slowdowns.push_back(static_cast<double>(r.totalCycles) /
                            static_cast<double>(soloTotals[i]));
        metrics.add(r);
    }
    cell.p50 = percentile(stalls, 50);
    cell.p95 = percentile(stalls, 95);
    cell.p99 = percentile(stalls, 99);
    cell.makespan = sr.makespan;
    cell.fairness = jainFairness(slowdowns);
    cell.events = sr.events;
    cell.allocatorRuns = sr.allocatorRuns;
    cell.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return cell;
}

std::string
fmtThousands(uint64_t v)
{
    return fmtF(static_cast<double>(v) / 1e3, 1);
}

} // namespace

BenchJson
runExtServer(BenchEnv &env, std::ostream &os)
{
    benchHeader(
        os, "Extension — multi-client shared-uplink server",
        "Fleets of Parallel/Train/T1/limit-4 clients sharing one uplink\n"
        "(capacity = 2 T1 clients; seeded uniform arrivals) at 2..4096\n"
        "clients; per-client stall percentiles, fleet makespan, Jain\n"
        "fairness of slowdown, and event-loop cost (events and allocator\n"
        "runs are work counts; wall ms and us/event are this host's timings)");

    const std::vector<BenchWorkload> &entries = env.workloads();
    const double capacity = 2.0 * linkRate(kT1Link);
    const size_t fleetCap = env.maxFleet();

    // Solo baselines, one per workload (slowdown denominators).
    std::vector<uint64_t> solo(entries.size());
    env.runner().parallelFor(entries.size(), [&](size_t i) {
        solo[i] = runReplay(*entries[i].ctx, headlineConfig(), nullptr)
                      .totalCycles;
    });

    BenchJson json("ext_server");
    RunMetrics metrics;
    const char *allocators[] = {"equal", "weighted", "deadline",
                                "propfair"};
    for (const char *name : allocators) {
        auto alloc = makeAllocator(name);
        size_t cap = fleetCap;
        if (alloc->usesDeadlines())
            cap = std::min(cap, kDeadlineAwareMaxFleet);

        Table t({cat("Fleet (", name, ")"), "p50 stall Mcyc",
                 "p95 stall Mcyc", "p99 stall Mcyc", "Makespan Mcyc",
                 "Jain slowdown", "Events k", "Alloc runs k",
                 "Wall ms", "us/event"});
        for (size_t n : kFleetSizes) {
            if (n > cap)
                continue;
            std::vector<ClientSpec> fleet = makeFleet(entries, n);
            std::vector<uint64_t> soloTotals(n);
            for (size_t i = 0; i < n; ++i)
                soloTotals[i] = solo[i % entries.size()];
            ServerOptions opts;
            opts.uplinkBytesPerCycle = capacity;
            opts.allocator = alloc.get();
            opts.arrivals = benchArrivals();
            CellOutcome cell = runCell(fleet, opts, soloTotals, metrics);
            t.addRow({cat(n, " clients"), fmtMillions(cell.p50, 2),
                      fmtMillions(cell.p95, 2),
                      fmtMillions(cell.p99, 2),
                      fmtMillions(cell.makespan, 1),
                      fmtF(cell.fairness, 3),
                      fmtThousands(cell.events),
                      fmtThousands(cell.allocatorRuns),
                      fmtF(cell.wallMs, 1),
                      fmtF(cell.wallMs * 1e3 /
                               static_cast<double>(cell.events),
                           2)});
        }
        if (alloc->usesDeadlines() && cap == kDeadlineAwareMaxFleet) {
            os << "(" << name
               << " re-ranks on every deadline movement; grid capped at "
               << kDeadlineAwareMaxFleet << " clients)\n";
        }
        os << t.render() << "\n";
        json.addTable(cat(name, " allocator"), t);
    }

    // Admission control on an overloaded fleet: a door limit trades
    // in-system stall (fair shares stretched thin) for admission wait
    // (bounded concurrency inside). Slowdown here is end-to-end —
    // (finished - arrival) / solo — so queueing at the door is not
    // free fairness.
    {
        const size_t n = std::min<size_t>(64, fleetCap);
        std::vector<ClientSpec> fleet = makeFleet(entries, n);
        auto equal = makeAllocator("equal");
        Table t({"Admission (64 clients, equal)", "p50 stall Mcyc",
                 "p95 stall Mcyc", "p95 door wait Mcyc",
                 "Makespan Mcyc", "Jain end-to-end"});
        const size_t limits[] = {0, 32, 16, 8};
        for (size_t limit : limits) {
            ServerOptions opts;
            opts.uplinkBytesPerCycle = capacity;
            opts.allocator = equal.get();
            opts.arrivals = benchArrivals();
            opts.admissionLimit = limit;
            ServerResult sr = runServer(fleet, opts);
            std::vector<uint64_t> stalls, waits;
            std::vector<double> slowdowns;
            for (size_t i = 0; i < sr.clients.size(); ++i) {
                const ServerClientResult &c = sr.clients[i];
                stalls.push_back(c.sim.stallCycles);
                waits.push_back(c.admitted - c.arrival);
                slowdowns.push_back(
                    static_cast<double>(c.finished - c.arrival) /
                    static_cast<double>(solo[i % entries.size()]));
            }
            t.addRow({limit == 0 ? std::string("unlimited")
                                 : cat("limit ", limit),
                      fmtMillions(percentile(stalls, 50), 2),
                      fmtMillions(percentile(stalls, 95), 2),
                      fmtMillions(percentile(waits, 95), 2),
                      fmtMillions(sr.makespan, 1),
                      fmtF(jainFairness(slowdowns), 3)});
        }
        os << t.render() << "\n";
        json.addTable("admission control", t);
    }

    // Heterogeneous fleet: four client classes share one uplink; each
    // class's slowdown is measured against its own solo config (the
    // faulty class's solo runs its own per-client FaultPlan).
    {
        const size_t n = std::min<size_t>(64, fleetCap);
        struct ClassDef
        {
            const char *label;
            SimConfig cfg;
        };
        std::vector<ClassDef> classes;
        classes.push_back({"parallel", headlineConfig()});
        SimConfig part = headlineConfig();
        part.dataPartition = true;
        classes.push_back({"partitioned", part});
        SimConfig inter = headlineConfig();
        inter.mode = SimConfig::Mode::Interleaved;
        classes.push_back({"interleaved", inter});
        classes.push_back({"faulty", headlineConfig()}); // plan below

        auto faultsFor = [](size_t i) {
            FaultPlan plan;
            plan.trace = BandwidthTrace::bursts(
                /*seed=*/1000 + static_cast<uint32_t>(i), 400'000, 0.7,
                200'000'000);
            plan.dropSeed = 1000 + static_cast<uint32_t>(i);
            plan.dropsPerMByte = 40.0;
            plan.maxAttempts = 2;
            plan.retryTimeoutCycles = 120'000;
            return plan;
        };

        std::vector<ClientSpec> fleet;
        std::vector<size_t> classOf;
        fleet.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            size_t ci = i % classes.size();
            const BenchWorkload &e = entries[i % entries.size()];
            ClientSpec spec;
            spec.ctx = e.ctx.get();
            spec.config = classes[ci].cfg;
            if (std::string(classes[ci].label) == "faulty")
                spec.config.faults = faultsFor(i);
            spec.weight = 1.0;
            spec.name = cat(classes[ci].label, "-", e.workload.name,
                            "-", i);
            fleet.push_back(std::move(spec));
            classOf.push_back(ci);
        }

        // Per-client solo baselines (per-client fault plans make
        // these client-specific, not just workload-specific).
        std::vector<uint64_t> soloTotals(n);
        env.runner().parallelFor(n, [&](size_t i) {
            soloTotals[i] =
                runReplay(*fleet[i].ctx, fleet[i].config, nullptr)
                    .totalCycles;
        });

        auto equal = makeAllocator("equal");
        ServerOptions opts;
        opts.uplinkBytesPerCycle = capacity;
        opts.allocator = equal.get();
        opts.arrivals = benchArrivals();
        ServerResult sr = runServer(fleet, opts);

        Table t({"Class (64 clients, equal)", "Clients",
                 "p50 stall Mcyc", "p95 stall Mcyc", "Mean slowdown",
                 "Max slowdown"});
        for (size_t ci = 0; ci < classes.size(); ++ci) {
            std::vector<uint64_t> stalls;
            double sum = 0.0, worst = 0.0;
            size_t count = 0;
            for (size_t i = 0; i < n; ++i) {
                if (classOf[i] != ci)
                    continue;
                stalls.push_back(sr.clients[i].sim.stallCycles);
                double s = static_cast<double>(
                               sr.clients[i].sim.totalCycles) /
                           static_cast<double>(soloTotals[i]);
                sum += s;
                worst = std::max(worst, s);
                ++count;
            }
            t.addRow({classes[ci].label, cat(count),
                      fmtMillions(percentile(stalls, 50), 2),
                      fmtMillions(percentile(stalls, 95), 2),
                      fmtF(sum / static_cast<double>(count), 2),
                      fmtF(worst, 2)});
        }
        os << t.render() << "\n";
        json.addTable("heterogeneous fleet", t);
    }

    setBenchMetrics(json, metrics);
    json.setMetric("uplink_bytes_per_cycle", capacity);
    json.setMetric("fleet_sizes",
                   static_cast<uint64_t>(sizeof kFleetSizes /
                                         sizeof kFleetSizes[0]));
    for (const char *name : allocators)
        json.checkTable(cat(name, " allocator"));
    json.checkTable("admission control");
    json.checkTable("heterogeneous fleet");
    json.check("runs", CheckOp::Gt, 0);
    json.check("totalCycles", CheckOp::Gt, 0);
    json.check("stallCycles", CheckOp::Gt, 0);
    return json;
}

} // namespace nse
