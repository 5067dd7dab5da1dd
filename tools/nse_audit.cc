/**
 * @file
 * nse_audit — non-strict-safety auditor CLI.
 *
 * Statically proves (or refutes) that a transfer configuration is
 * non-strict safe: every constant-pool entry, GMD chunk, and
 * predicted-earlier callee a method depends on arrives no later than
 * the method's own delimiter. See src/analysis/audit.h for the checks
 * and severities. Exit status: 0 when no configuration has errors,
 * 1 otherwise, 2 on usage mistakes (an unknown flag, ordering, link or
 * workload prints `error: <reason>` and the usage).
 *
 * Usage:
 *   nse_audit --grid [--json]
 *       Audit all six workloads under every {scg, rta, train, mustuse}
 *       x {reordered, partitioned} x {parallel, interleaved}
 *       configuration (the CI safety gate) — every layout the edge
 *       cache can serve. Parallel cells additionally audit the
 *       effective online-runahead schedule, and each workload gets an
 *       edge-cached-fleet cell: a cold-cache fleet is run and every
 *       client's FetchWait epoch shift (admitted - arrival) is folded
 *       into its schedule-vs-deadline check. One summary line per
 *       cell; diagnostics are printed for failing cells. --json
 *       additionally dumps each failing cell's report as JSON to
 *       stdout.
 *
 *   nse_audit <workload> [options]
 *       Audit one configuration and print its full report.
 *       --order scg|rta|train|mustuse|test   ordering (default scg)
 *       --interleaved                single-stream layout
 *       --partition                  partition global data
 *       --link t1|modem              schedule check link (default t1)
 *       --stall-bounds               run the static stall prover too:
 *                                    provable stalls become Warning
 *                                    diagnostics (kind provable-stall)
 *                                    and the bound table is printed
 *       --json                       print the JSON report instead
 *
 * workloads: BIT Hanoi JavaCup Jess JHLZip TestDes
 */

#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/audit.h"
#include "analysis/stall_bounds.h"
#include "cache/edge_cache.h"
#include "obs/trace.h"
#include "server/server_sim.h"
#include "sim/context.h"
#include "sim/replay.h"
#include "support/saturate.h"
#include "workloads/workload.h"

using namespace nse;

namespace
{

int
usage()
{
    std::cerr << "usage: nse_audit --grid [--json]\n"
                 "       nse_audit <workload> [--order scg|rta|train|"
                 "mustuse|test] [--interleaved] [--partition] [--link "
                 "t1|modem] [--stall-bounds] [--json]\n"
                 "workloads: BIT Hanoi JavaCup Jess JHLZip TestDes\n";
    return 2;
}

/** A malformed command line; main prints it with the usage. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

OrderingSource
parseOrder(const std::string &s)
{
    if (s == "scg")
        return OrderingSource::Static;
    if (s == "rta")
        return OrderingSource::RtaStatic;
    if (s == "train")
        return OrderingSource::Train;
    if (s == "mustuse")
        return OrderingSource::MustUse;
    if (s == "test")
        return OrderingSource::Test;
    throw UsageError("unknown ordering: " + s);
}

/** Build the named workload; an unknown name is a usage mistake. */
Workload
namedWorkload(const std::string &name)
{
    try {
        return makeWorkload(name);
    } catch (const FatalError &e) {
        throw UsageError(e.what());
    }
}

/** The static plan every audit of one (workload, layout key) cell
 *  checks: the layout's stream demand and the memoized greedy
 *  schedule against `link`. */
struct CellPlan
{
    const FirstUseOrder &order;
    const TransferLayout &layout;
    const DataPartition *part;
    StreamDemand demand;
    const TransferSchedule &sched;
};

CellPlan
planCell(const SimContext &ctx, const LayoutKey &key, const LinkModel &link)
{
    const FirstUseOrder &order = ctx.ordering(key.ordering);
    const TransferLayout &layout = ctx.layout(key);
    return {order, layout,
            key.partitioned ? &ctx.partition(key.ordering) : nullptr,
            deriveStreamDemand(ctx.program(), order, layout,
                               ctx.methodCycles(key.ordering)),
            ctx.schedule(ScheduleKey{key, link.cyclesPerByte, 4})};
}

/** Audit the cell's layout against `sched` and `demand`. */
AuditReport
auditPlan(const SimContext &ctx, const CellPlan &plan,
          const TransferSchedule &sched, const StreamDemand &demand,
          const LinkModel &link)
{
    ScheduleAuditInput sin{sched, demand, link};
    return auditNonStrictSafety(ctx.program(), ctx.callGraph(),
                                plan.order, plan.layout, plan.part, &sin);
}

/** Audit one (workload, layout key) cell against `link`. */
AuditReport
auditCell(const SimContext &ctx, const LayoutKey &key,
          const LinkModel &link)
{
    CellPlan plan = planCell(ctx, key, link);
    return auditPlan(ctx, plan, plan.sched, plan.demand, link);
}

/**
 * Audit the *effective* schedule an online-runahead run produces:
 * replay the workload with runahead enabled and the run's events
 * recorded, fold every RunaheadPromote / RunaheadDefer into a copy of
 * the static greedy schedule (last reprioritization of a stream
 * wins — exactly the start the engine ended up honoring; demand
 * fetches are misprediction recovery, present in the static runs
 * too), and audit the result. Runahead only moves *stream start
 * cycles*; every offset-level obligation (constant pool, GMD, callee
 * arrival before the delimiter) is a property of the layout and must
 * hold unchanged, so a nonzero error count here means the
 * reprioritization hook broke a safety invariant.
 */
AuditReport
auditRunaheadCell(const SimContext &ctx, const LayoutKey &key,
                  const LinkModel &link)
{
    CellPlan plan = planCell(ctx, key, link);
    TransferSchedule sched = plan.sched;

    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = key.ordering;
    cfg.link = link;
    cfg.dataPartition = key.partitioned;
    cfg.runaheadDepth = 32;
    EventTrace trace;
    runReplay(ctx, cfg, &trace);
    for (const ObsEvent &ev : trace.events()) {
        if (ev.kind != ObsKind::RunaheadPromote &&
            ev.kind != ObsKind::RunaheadDefer)
            continue;
        sched.startCycle[static_cast<size_t>(ev.stream)] = ev.a;
    }
    return auditPlan(ctx, plan, sched, plan.demand, link);
}

/**
 * Audit the schedule a cache-served fleet member effectively runs
 * under. A cold edge cache holds each client in FetchWait until the
 * origin delivers its artifact; the client's replay epoch then starts
 * at its admission, so in global cycles its entire schedule — stream
 * starts *and* first-use deadlines — shifts by `admitted - arrival`
 * (door wait + cache wait). We fold that epoch shift into a copy of
 * the static plan per client, exactly as the runahead audit folds
 * promote/defer events, and audit the result: the shift is uniform,
 * so any error means the cache tier de-synchronized transfer from
 * execution. Diagnostics from every client merge into one report.
 */
AuditReport
auditEdgeCacheCell(const SimContext &ctx, const LayoutKey &key,
                   const LinkModel &link)
{
    CellPlan plan = planCell(ctx, key, link);

    SimConfig cfg;
    cfg.mode = key.parallel ? SimConfig::Mode::Parallel
                            : SimConfig::Mode::Interleaved;
    cfg.ordering = key.ordering;
    cfg.link = link;
    cfg.dataPartition = key.partitioned;

    // A small staggered fleet against a cold cache: the first client
    // pays the origin fetch, later ones hit or join the in-flight
    // fetch, and an admission limit of 1 adds door waits on top.
    EdgeCacheOptions copts;
    EdgeCache cache(copts);
    EqualShareAllocator equal;
    ServerOptions opts;
    opts.uplinkBytesPerCycle = 2.0 * linkRate(link);
    opts.allocator = &equal;
    opts.arrivals.kind = ArrivalKind::Uniform;
    opts.arrivals.seed = 7;
    opts.arrivals.windowCycles = 100'000;
    opts.admissionLimit = 1;
    opts.edgeCache = &cache;
    std::vector<ClientSpec> fleet(3);
    for (ClientSpec &spec : fleet) {
        spec.ctx = &ctx;
        spec.config = cfg;
    }
    ServerResult server = runServer(fleet, opts);

    AuditReport merged;
    for (const ServerClientResult &client : server.clients) {
        uint64_t shift = client.admitted - client.arrival;
        TransferSchedule shifted = plan.sched;
        for (uint64_t &start : shifted.startCycle)
            start = satAdd(start, shift);
        StreamDemand sdemand = plan.demand;
        for (uint64_t &deadline : sdemand.deadline)
            deadline = satAdd(deadline, shift);
        AuditReport one = auditPlan(ctx, plan, shifted, sdemand, link);
        merged.diags.insert(merged.diags.end(), one.diags.begin(),
                            one.diags.end());
        merged.errorCount += one.errorCount;
        merged.warningCount += one.warningCount;
        merged.infoCount += one.infoCount;
    }
    return merged;
}

/** Print one cell's summary line, and its diagnostics (plus JSON
 *  when asked) if it failed. Returns whether it failed. */
bool
printCell(const std::string &label, const AuditReport &report, bool json)
{
    std::cout << label << ": " << report.errorCount << " error(s), "
              << report.warningCount << " warning(s), "
              << report.infoCount << " info(s)\n";
    if (report.ok())
        return false;
    std::cout << report.render();
    if (json)
        std::cout << report.toJson();
    return true;
}

int
runGrid(bool json)
{
    const OrderingSource kOrders[] = {
        OrderingSource::Static, OrderingSource::RtaStatic,
        OrderingSource::Train, OrderingSource::MustUse};
    size_t failures = 0;
    for (Workload &w : allWorkloads()) {
        SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
        for (OrderingSource src : kOrders) {
            for (bool partitioned : {false, true}) {
                LayoutKey key;
                key.parallel = true;
                key.ordering = src;
                key.partitioned = partitioned;
                std::string cell =
                    cat(w.name, " ", orderingName(src), " ",
                        partitioned ? "partitioned" : "reordered");
                failures += printCell(cell, auditCell(ctx, key, kT1Link),
                                      json);
                failures += printCell(
                    cell + " runahead",
                    auditRunaheadCell(ctx, key, kT1Link), json);
                // The same cell as a single interleaved virtual file —
                // the other layout family the edge cache serves.
                // Runahead reprioritization is a parallel-stream
                // concept, so no runahead audit here.
                LayoutKey ikey = key;
                ikey.parallel = false;
                failures += printCell(cell + " interleaved",
                                      auditCell(ctx, ikey, kT1Link), json);
            }
        }
        // One edge-cached-fleet cell per workload: cold cache,
        // admission-limited, every client's epoch shift folded into
        // its schedule check.
        LayoutKey ckey;
        ckey.parallel = true;
        ckey.ordering = OrderingSource::Train;
        failures +=
            printCell(cat(w.name, " train reordered edge-cache fleet"),
                      auditEdgeCacheCell(ctx, ckey, kT1Link), json);
    }
    if (failures) {
        std::cout << failures << " configuration(s) failed the audit\n";
        return 1;
    }
    std::cout << "all configurations are non-strict safe\n";
    return 0;
}

int
runSingle(const Workload &w, OrderingSource src, bool interleaved,
          bool partitioned, const LinkModel &link, bool stall_bounds,
          bool json)
{
    SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
    LayoutKey key;
    key.parallel = !interleaved;
    key.ordering = src;
    key.partitioned = partitioned;
    AuditReport report = auditCell(ctx, key, link);
    std::string bounds;
    if (stall_bounds) {
        ScheduleKey skey;
        skey.layout = key;
        skey.cyclesPerByte = link.cyclesPerByte;
        skey.limit = 4;
        StallBoundInput in{ctx.program(),   ctx.useAnalysis(),
                           ctx.layout(key), ctx.schedule(skey),
                           link,            /*parallelLimit=*/4};
        StallBoundReport proof = computeStallBounds(in);
        appendStallDiagnostics(proof, report);
        bounds = proof.render();
    }
    if (json)
        std::cout << report.toJson();
    else
        std::cout << report.render() << bounds;
    return report.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    try {
        bool json = false, grid = false, interleaved = false,
             partitioned = false, stall_bounds = false;
        OrderingSource src = OrderingSource::Static;
        LinkModel link = kT1Link;
        std::string workload;
        for (size_t i = 0; i < args.size(); ++i) {
            const std::string &a = args[i];
            if (a == "--grid") {
                grid = true;
            } else if (a == "--json") {
                json = true;
            } else if (a == "--interleaved") {
                interleaved = true;
            } else if (a == "--partition") {
                partitioned = true;
            } else if (a == "--stall-bounds") {
                stall_bounds = true;
            } else if (a == "--order" && i + 1 < args.size()) {
                src = parseOrder(args[++i]);
            } else if (a == "--link" && i + 1 < args.size()) {
                const std::string &l = args[++i];
                if (l == "t1")
                    link = kT1Link;
                else if (l == "modem")
                    link = kModemLink;
                else
                    throw UsageError("unknown link: " + l);
            } else if (!a.empty() && a[0] == '-') {
                return usage();
            } else if (workload.empty()) {
                workload = a;
            } else {
                return usage();
            }
        }
        if (grid)
            return workload.empty() ? runGrid(json) : usage();
        if (workload.empty())
            return usage();
        return runSingle(namedWorkload(workload), src, interleaved,
                         partitioned, link, stall_bounds, json);
    } catch (const UsageError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage();
    } catch (const FatalError &e) {
        std::cerr << "nse_audit: " << e.what() << "\n";
        return 1;
    }
}
