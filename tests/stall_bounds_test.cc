/**
 * @file
 * Static stall prover tests: the sandwich identity against measured
 * replay stalls on every (workload, ordering, partitioning) cell, the
 * provable-stall diagnostic wiring, the pinned guarantee that the
 * `mustuse` ordering never loses to `rta` on the workloads' stalls,
 * and a digest of every `mustuse` order and its stall bounds.
 */

#include <gtest/gtest.h>

#include "analysis/stall_bounds.h"
#include "sim/context.h"
#include "sim/replay.h"
#include "support/fnv1a.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

constexpr int kLimit = 4;

StallBoundReport
boundsFor(const SimContext &ctx, const LayoutKey &key,
          const LinkModel &link)
{
    ScheduleKey skey;
    skey.layout = key;
    skey.cyclesPerByte = link.cyclesPerByte;
    skey.limit = kLimit;
    StallBoundInput in{ctx.program(),      ctx.useAnalysis(),
                       ctx.layout(key),    ctx.schedule(skey),
                       link,               kLimit};
    return computeStallBounds(in);
}

TEST(StallBounds, SandwichHoldsOnEveryCell)
{
    const OrderingSource kOrders[] = {
        OrderingSource::Static, OrderingSource::RtaStatic,
        OrderingSource::Train, OrderingSource::MustUse};
    for (Workload &w : allWorkloads()) {
        SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
        for (OrderingSource src : kOrders) {
            for (bool partitioned : {false, true}) {
                SCOPED_TRACE(std::string(w.name) + " " +
                             orderingName(src) +
                             (partitioned ? " partitioned"
                                          : " reordered"));
                SimConfig cfg;
                cfg.mode = SimConfig::Mode::Parallel;
                cfg.ordering = src;
                cfg.link = kT1Link;
                cfg.dataPartition = partitioned;
                SimResult r = runReplay(ctx, cfg);

                LayoutKey key;
                key.parallel = true;
                key.ordering = src;
                key.partitioned = partitioned;
                StallBoundReport report =
                    boundsFor(ctx, key, kT1Link);

                EXPECT_LE(report.runLowerBound, r.stallCycles);
                EXPECT_GE(report.runUpperBound, r.stallCycles);
                // A provable stall is real: the measured run cannot
                // dodge the max-side lower bound, so a report with
                // provable stalls implies a nonzero measured stall.
                if (report.provableStalls > 0) {
                    EXPECT_GT(r.stallCycles, 0u);
                }
            }
        }
    }
}

TEST(StallBounds, DiagnosticsMatchLowerBounds)
{
    Workload w = makeWorkload("Hanoi");
    SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
    LayoutKey key;
    key.parallel = true;
    key.ordering = OrderingSource::RtaStatic;
    StallBoundReport report = boundsFor(ctx, key, kT1Link);

    AuditReport audit;
    appendStallDiagnostics(report, audit);
    EXPECT_EQ(audit.diags.size(), report.provableStalls);
    EXPECT_EQ(audit.warningCount, report.provableStalls);
    for (const AuditDiagnostic &d : audit.diags) {
        EXPECT_EQ(d.severity, AuditSeverity::Warning);
        EXPECT_EQ(d.kind, AuditDepKind::ProvableStall);
        EXPECT_GT(d.arriveOffset, d.needOffset);
    }
    // The entry method always stalls for its own prefix at T1 rates,
    // so this configuration must prove at least one stall…
    EXPECT_GT(report.provableStalls, 0u);
    // …and rendering mentions the sandwich.
    EXPECT_NE(report.render().find("run stall bounds"),
              std::string::npos);
}

TEST(MustUseOrdering, NeverLosesToRtaOnWorkloadStalls)
{
    for (Workload &w : allWorkloads()) {
        SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
        for (bool partitioned : {false, true}) {
            SCOPED_TRACE(std::string(w.name) +
                         (partitioned ? " partitioned" : " reordered"));
            auto stallOf = [&](OrderingSource src) {
                SimConfig cfg;
                cfg.mode = SimConfig::Mode::Parallel;
                cfg.ordering = src;
                cfg.link = kT1Link;
                cfg.dataPartition = partitioned;
                return runReplay(ctx, cfg).stallCycles;
            };
            EXPECT_LE(stallOf(OrderingSource::MustUse),
                      stallOf(OrderingSource::RtaStatic));
        }
    }
}

TEST(MustUseOrdering, OrdersAndBoundsArePinned)
{
    // Every `mustuse` order and the T1 stall bounds of its plain and
    // partitioned layouts. The order sorts by proved deadlines and the
    // bounds read every global fact, so a change to the use analysis
    // that moves any fact the prover consumes moves this value.
    Fnv1a h;
    for (Workload &w : allWorkloads()) {
        SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
        h.str(w.name);
        const FirstUseOrder &mu = ctx.ordering(OrderingSource::MustUse);
        h.u64(mu.usedCount);
        h.u64(mu.order.size());
        for (const MethodId &id : mu.order) {
            h.u64(id.classIdx);
            h.u64(id.methodIdx);
        }
        for (bool partitioned : {false, true}) {
            LayoutKey key;
            key.parallel = true;
            key.ordering = OrderingSource::MustUse;
            key.partitioned = partitioned;
            StallBoundReport report = boundsFor(ctx, key, kT1Link);
            h.u64(report.runLowerBound);
            h.u64(report.runUpperBound);
            h.u64(report.provableStalls);
            h.u64(report.methods.size());
            for (const MethodStallBound &m : report.methods) {
                h.u64(m.method.classIdx);
                h.u64(m.method.methodIdx);
                h.u64(m.lowerStall);
                h.u64(m.upperStall);
            }
        }
    }
    EXPECT_EQ(h.h, 0x8924db98b805af24ull);
}

} // namespace
} // namespace nse
