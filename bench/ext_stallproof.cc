/**
 * @file
 * Extension 10: dynamic validation of the static stall prover.
 *
 * The prover (analysis/stall_bounds.h) turns the use-distance
 * analysis plus a concrete (layout, schedule, link) triple into
 * provable bounds on the replay's stall cycles. This bench closes the
 * loop: for every workload x ordering {scg, rta, train, mustuse} x
 * layout mode {reordered, partitioned} cell it computes the static
 * bounds, replays the same configuration (parallel streams, runahead
 * off — the regime the proof covers), and asserts the sandwich
 *
 *     static_lower <= measured_stall <= static_upper
 *
 * in every cell, plus that every provable stall is real (a cell whose
 * proof claims a positive lower bound must measure a nonzero stall).
 * Its checks gate on bound_violations == 0 and
 * provable_stall_false_positives == 0.
 */

#include "analysis/stall_bounds.h"
#include "bench/bench_env.h"

namespace nse
{

BenchJson
runExtStallproof(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Static stall proof (extension)",
                "Provable stall bounds vs measured replay stalls: "
                "lower <= measured <= upper in every workload x "
                "{scg, rta, train, mustuse} x {reordered, partitioned} "
                "cell (parallel streams, T1, runahead off)");

    const OrderingSource kOrders[] = {
        OrderingSource::Static, OrderingSource::RtaStatic,
        OrderingSource::Train, OrderingSource::MustUse};

    Table t({"Program", "Order", "Layout", "Lower", "Measured", "Upper",
             "Provable", "OK"});
    BenchJson json("ext_stallproof");

    // The use-distance fixpoint dominates this experiment; solve it
    // for every workload at once before the serial proof loop.
    env.runner().parallelFor(env.workloads().size(), [&](size_t i) {
        env.workloads()[i].ctx->useAnalysis();
    });

    uint64_t violations = 0;
    uint64_t false_positives = 0;
    size_t cells = 0;
    size_t proved_cells = 0;
    for (const BenchWorkload &e : env.workloads()) {
        const SimContext &ctx = *e.ctx;
        for (OrderingSource src : kOrders) {
            for (bool partitioned : {false, true}) {
                SimConfig cfg = headlineConfig(src);
                cfg.dataPartition = partitioned;
                SimResult r = runReplay(ctx, cfg);

                LayoutKey key;
                key.parallel = true;
                key.ordering = src;
                key.partitioned = partitioned;
                ScheduleKey skey;
                skey.layout = key;
                skey.cyclesPerByte = kT1Link.cyclesPerByte;
                skey.limit = cfg.parallelLimit;
                StallBoundInput in{ctx.program(),   ctx.useAnalysis(),
                                   ctx.layout(key), ctx.schedule(skey),
                                   kT1Link,         cfg.parallelLimit};
                StallBoundReport proof = computeStallBounds(in);

                bool sandwich = proof.runLowerBound <= r.stallCycles &&
                                r.stallCycles <= proof.runUpperBound;
                bool genuine =
                    proof.provableStalls == 0 || r.stallCycles > 0;
                if (!sandwich)
                    ++violations;
                if (!genuine)
                    ++false_positives;
                ++cells;
                if (proof.provableStalls > 0)
                    ++proved_cells;

                t.addRow({
                    e.workload.name,
                    orderingName(src),
                    partitioned ? "partitioned" : "reordered",
                    std::to_string(proof.runLowerBound),
                    std::to_string(r.stallCycles),
                    std::to_string(proof.runUpperBound),
                    std::to_string(proof.provableStalls),
                    sandwich && genuine ? "yes" : "NO",
                });
            }
        }
    }

    os << t.render() << "\n"
       << (violations == 0 && false_positives == 0
               ? "sandwich holds in every cell\n"
               : "WARNING: static bounds violated\n");

    json.addTable("Static stall proof", t);
    json.setMetric("cells", static_cast<double>(cells));
    json.setMetric("cells_with_provable_stalls",
                   static_cast<double>(proved_cells));
    json.setMetric("bound_violations", static_cast<double>(violations));
    json.setMetric("provable_stall_false_positives",
                   static_cast<double>(false_positives));
    json.check("cells", CheckOp::Eq, 48);
    json.check("cells_with_provable_stalls", CheckOp::Gt, 0);
    json.check("bound_violations", CheckOp::Eq, 0);
    json.check("provable_stall_false_positives", CheckOp::Eq, 0);
    return json;
}

} // namespace nse
