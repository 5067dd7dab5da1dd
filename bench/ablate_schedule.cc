/**
 * @file
 * Ablation B — transfer-schedule quality (paper §5.1 design choice).
 *
 * The paper "examined several algorithms for creating a transfer
 * schedule and settled on a greedy algorithm". This ablation compares
 * three policies for parallel file transfer (limit 4, Test ordering):
 *   demand   no schedule at all; classes are fetched only when a
 *            method misses (pure lazy loading);
 *   eager    every class scheduled at cycle 0 in first-use order
 *            (the queue does the ordering);
 *   greedy   the paper's schedule (deadline pull-in + dependency
 *            triggers + commitment protection).
 * Expected shape: greedy <= eager <= demand on normalized time, with
 * demand paying a stall on every class boundary.
 */

#include "bench/bench_env.h"
#include "transfer/schedule.h"

namespace nse
{
namespace
{

enum class Policy
{
    Demand,
    Eager,
    Greedy,
};

/** Parallel transfer, limit 4, Test ordering, under `policy`. */
SimResult
runPolicy(const BenchWorkload &e, const LinkModel &link, Policy policy)
{
    SimConfig cfg = headlineConfig(OrderingSource::Test, link);
    if (policy == Policy::Greedy)
        return runReplay(*e.ctx, cfg);

    const TransferLayout &layout = e.ctx->layout(layoutKeyOf(cfg));
    std::vector<uint64_t> starts(layout.streams.size(), UINT64_MAX);
    if (policy == Policy::Demand) {
        // Only the entry class is requested up front.
        starts[static_cast<size_t>(
            layout.of(e.workload.program.entry()).streamIdx)] = 0;
    } else {
        // Everything at cycle 0; the queue honours first-use order.
        StreamDemand demand = deriveStreamDemand(
            e.workload.program, e.ctx->ordering(OrderingSource::Test),
            layout, e.ctx->methodCycles(OrderingSource::Test));
        uint64_t t = 0;
        for (int s : demand.streamOrder)
            starts[static_cast<size_t>(s)] = t++;
    }
    OverlappedRun run(*e.ctx, cfg, nullptr, &starts);
    size_t idx = 0;
    const ExecTrace &trace = e.ctx->trace();
    uint64_t total =
        replayTrace(trace, [&](MethodId id, uint64_t clock) {
            return run.wait(idx++, id, clock);
        });
    return run.finish(total, trace.totals);
}

} // namespace

BenchJson
runAblateSchedule(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Ablation B (paper section 5.1)",
                "Transfer-schedule policies for parallel transfer "
                "(limit 4, Test ordering): normalized time and demand "
                "fetches");

    auto rowOf = [](const BenchWorkload &e) {
        std::vector<std::string> row{e.workload.name};
        uint64_t demand_misses = 0;
        for (const LinkModel &link : {kT1Link, kModemLink}) {
            double base = static_cast<double>(
                runReplay(*e.ctx, strictConfig(link)).totalCycles);
            for (Policy p :
                 {Policy::Demand, Policy::Eager, Policy::Greedy}) {
                SimResult r = runPolicy(e, link, p);
                if (p == Policy::Demand)
                    demand_misses = r.mispredictions;
                row.push_back(fmtF(
                    100.0 * static_cast<double>(r.totalCycles) / base,
                    1));
            }
        }
        row.push_back(std::to_string(demand_misses));
        return row;
    };
    Table t = workloadTable(env,
                            {"Program", "T1 Demand", "T1 Eager",
                             "T1 Greedy", "Mod Demand", "Mod Eager",
                             "Mod Greedy", "Demand Fetches"},
                            rowOf);
    os << t.render();

    BenchJson json("ablate_schedule");
    json.addTable("Ablation B", t);
    return json;
}

} // namespace nse
