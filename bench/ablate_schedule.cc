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
#include "transfer/engine.h"
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

uint64_t
replayParallel(const BenchWorkload &e, const LinkModel &link,
               Policy policy, uint64_t *mispredictions)
{
    LayoutKey lkey;
    lkey.parallel = true;
    lkey.ordering = OrderingSource::Test;
    const TransferLayout &layout = e.ctx->layout(lkey);

    TransferEngine engine(link.cyclesPerByte, 4);
    for (const StreamInfo &s : layout.streams)
        engine.addStream(s.name, s.totalBytes);

    switch (policy) {
      case Policy::Demand: {
        // Only the entry class is requested up front.
        int entry_stream =
            layout.of(e.workload.program.entry()).streamIdx;
        engine.scheduleStart(entry_stream, 0);
        break;
      }
      case Policy::Eager: {
        // Everything at cycle 0; the queue honours first-use order.
        const FirstUseOrder &order =
            e.ctx->ordering(OrderingSource::Test);
        StreamDemand demand = deriveStreamDemand(
            e.workload.program, order, layout,
            e.ctx->methodCycles(OrderingSource::Test));
        uint64_t t = 0;
        for (int s : demand.streamOrder)
            engine.scheduleStart(s, t++);
        break;
      }
      case Policy::Greedy: {
        ScheduleKey skey;
        skey.layout = lkey;
        skey.cyclesPerByte = link.cyclesPerByte;
        skey.limit = 4;
        const TransferSchedule &sched = e.ctx->schedule(skey);
        for (size_t i = 0; i < sched.startCycle.size(); ++i)
            engine.scheduleStart(static_cast<int>(i),
                                 sched.startCycle[i]);
        break;
      }
    }

    uint64_t misses = 0;
    uint64_t total =
        replayTrace(e.ctx->trace(), [&](MethodId id, uint64_t clock) {
            const MethodPlacement &pl = layout.of(id);
            engine.advanceTo(clock);
            const Stream &s = engine.stream(pl.streamIdx);
            if (s.state == StreamState::Idle &&
                s.scheduledStart > clock) {
                ++misses;
                engine.demandStart(pl.streamIdx, clock);
            }
            return engine.waitFor(pl.streamIdx, pl.availOffset, clock);
        });
    if (mispredictions)
        *mispredictions = misses;
    return total;
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
                uint64_t misses = 0;
                uint64_t cycles = replayParallel(e, link, p, &misses);
                if (p == Policy::Demand)
                    demand_misses = misses;
                row.push_back(fmtF(
                    100.0 * static_cast<double>(cycles) / base, 1));
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
