/**
 * @file
 * Acceptance gate of online runahead transfer scheduling
 * (src/transfer/runahead.h) and the replay/server fixes that ride
 * along with it:
 *
 *  - runaheadDepth=0 (the default) is bit-identical to static replay:
 *    same SimResult fields, same recorded event stream, no
 *    RunaheadPromote/RunaheadDefer events — the knob cannot perturb a
 *    run that does not ask for it;
 *  - a sinked Parallel replay records the same event stream as
 *    runLiveReference, event for event;
 *  - with runahead enabled, runReplay stays field-for-field identical
 *    to runLiveReference (the interpreter-in-the-loop co-simulation);
 *  - on a genuinely mispredicting train-on-A/run-on-B workload,
 *    runahead reduces total stall versus the static schedule, the
 *    stall report attributes misprediction-recovery cycles, and the
 *    accounting identity still reconstructs;
 *  - TransferEngine::reschedule honors the bytes-already-sent
 *    invariant (only Idle streams move);
 *  - server regression: a mispredicting client no longer starves a
 *    punctual peer under the DeadlineAllocator (its stale blocked
 *    deadline is refreshed to the corrected horizon).
 */

#include <gtest/gtest.h>

#include <memory>

#include "obs/stall.h"
#include "obs/trace.h"
#include "server/server_sim.h"
#include "sim/replay.h"
#include "transfer/engine.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

void
expectIdentical(const SimResult &a, const SimResult &b,
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

void
expectSameEvents(const EventTrace &a, const EventTrace &b,
                 const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        const ObsEvent &x = a.events()[i];
        const ObsEvent &y = b.events()[i];
        EXPECT_EQ(x.cycle, y.cycle) << what << " event " << i;
        EXPECT_EQ(x.kind, y.kind) << what << " event " << i;
        EXPECT_EQ(x.stream, y.stream) << what << " event " << i;
        EXPECT_EQ(x.cls, y.cls) << what << " event " << i;
        EXPECT_EQ(x.method, y.method) << what << " event " << i;
        EXPECT_EQ(x.a, y.a) << what << " event " << i;
        EXPECT_EQ(x.b, y.b) << what << " event " << i;
    }
}

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

const SimContext &
zipperCtx()
{
    static Workload wl = makeZipper();
    static SimContext ctx(wl.program, wl.natives, wl.trainInput,
                          wl.testInput);
    return ctx;
}

/** RuleEngine (~Jess) is the suite's genuinely mispredicting
 *  workload: its test input exercises first uses in a different order
 *  than the train input, so even the Train ordering mispredicts. */
const SimContext &
jessCtx()
{
    static Workload wl = makeRuleEngine();
    static SimContext ctx(wl.program, wl.natives, wl.trainInput,
                          wl.testInput);
    return ctx;
}

SimConfig
parallelConfig(OrderingSource ord)
{
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = ord;
    cfg.link = kT1Link;
    cfg.parallelLimit = 4;
    return cfg;
}

struct Variant
{
    const char *name;
    LinkModel link;
    int limit;
    bool partition;
    FaultPlan faults;
};

std::vector<Variant>
variants()
{
    return {
        {"t1-limit4-nominal", kT1Link, 4, false, {}},
        // Execution outlasts the transfer: most first uses find their
        // bytes arrived and nothing in flight.
        {"fast-limit4-nominal", LinkModel{"Fast", 200.0}, 4, false, {}},
        {"modem-limit1-part-faulty", kModemLink, 1, true, faultyPlan()},
        {"t1-limit2-faulty", kT1Link, 2, false, faultyPlan()},
    };
}

TEST(Runahead, DepthZeroIsBitIdenticalToStaticReplay)
{
    // The differential sweep of the disabled knob: runaheadDepth=0
    // must not perturb a single field or recorded event relative to a
    // config that never heard of runahead.
    const SimContext &ctx = zipperCtx();
    const SimConfig::Mode modes[] = {SimConfig::Mode::Parallel,
                                     SimConfig::Mode::Interleaved};
    const OrderingSource orders[] = {OrderingSource::Static,
                                     OrderingSource::Train,
                                     OrderingSource::Test};
    for (const Variant &v : variants()) {
        for (SimConfig::Mode mode : modes) {
            for (OrderingSource ord : orders) {
                SimConfig base;
                base.mode = mode;
                base.ordering = ord;
                base.link = v.link;
                base.parallelLimit = v.limit;
                base.dataPartition = v.partition;
                base.faults = v.faults;
                SimConfig off = base;
                off.runaheadDepth = 0;
                std::string what = cat(v.name, " mode=",
                                       static_cast<int>(mode),
                                       " ord=", orderingName(ord));
                EventTrace tb, to;
                expectIdentical(runReplay(ctx, base, &tb),
                                runReplay(ctx, off, &to), what);
                expectSameEvents(tb, to, what);
                EXPECT_EQ(tb.count(ObsKind::RunaheadPromote), 0u) << what;
                EXPECT_EQ(tb.count(ObsKind::RunaheadDefer), 0u) << what;
            }
        }
    }
}

TEST(Runahead, SinkedEventsMatchLiveReference)
{
    // A sinked Parallel replay must record runLiveReference's event
    // stream event for event, and match its result field for field —
    // with runahead off and on.
    const SimContext &ctx = zipperCtx();
    const OrderingSource orders[] = {OrderingSource::Static,
                                     OrderingSource::Train,
                                     OrderingSource::Test};
    for (const Variant &v : variants()) {
        for (OrderingSource ord : orders) {
            for (uint32_t depth : {0u, 16u}) {
                SimConfig cfg;
                cfg.mode = SimConfig::Mode::Parallel;
                cfg.ordering = ord;
                cfg.link = v.link;
                cfg.parallelLimit = v.limit;
                cfg.dataPartition = v.partition;
                cfg.faults = v.faults;
                cfg.runaheadDepth = depth;
                std::string what = cat(v.name, " ord=",
                                       orderingName(ord), " depth=",
                                       depth);
                EventTrace replayed, live;
                expectIdentical(runReplay(ctx, cfg, &replayed),
                                runLiveReference(ctx, cfg, &live),
                                what);
                expectSameEvents(replayed, live, what);
            }
        }
    }
}

TEST(Runahead, MatchesLiveCoSimulation)
{
    // With runahead enabled the replay executor must still be
    // field-for-field identical to the retained interpreter-in-the-
    // loop co-simulation: the scheduler is driven purely by the
    // recorded trace index, which is the same in both executors.
    for (const SimContext *ctx : {&zipperCtx(), &jessCtx()}) {
        for (OrderingSource ord :
             {OrderingSource::Static, OrderingSource::Train}) {
            for (bool faults : {false, true}) {
                for (uint32_t depth : {8u, 16u}) {
                    SimConfig cfg = parallelConfig(ord);
                    if (faults)
                        cfg.faults = faultyPlan();
                    cfg.runaheadDepth = depth;
                    expectIdentical(
                        runReplay(*ctx, cfg),
                        runLiveReference(*ctx, cfg),
                        cat("ord=", orderingName(ord),
                            " faults=", faults, " depth=", depth));
                }
            }
        }
    }
}

TEST(Runahead, ReducesMispredictionStallOnCrossInputWorkload)
{
    // The tentpole's reason to exist: trained on input A and run on
    // input B, the Train ordering mispredicts, and reprioritizing the
    // remaining schedule at each misprediction recovers stall cycles
    // versus the static plan — under nominal bandwidth and under a
    // fault plan. The margins here are large (12-19% of total stall);
    // the exact values are pinned by the ext_runahead experiment.
    const SimContext &ctx = jessCtx();
    for (bool faults : {false, true}) {
        SimConfig cfg = parallelConfig(OrderingSource::Train);
        if (faults)
            cfg.faults = faultyPlan();
        SimResult stat = runReplay(ctx, cfg, nullptr);
        ASSERT_GT(stat.mispredictions, 0u) << "faults=" << faults;

        SimConfig ra = cfg;
        ra.runaheadDepth = 16;
        EventTrace trace;
        SimResult run = runReplay(ctx, ra, &trace);
        EXPECT_LT(run.stallCycles, stat.stallCycles)
            << "faults=" << faults;
        EXPECT_GT(trace.count(ObsKind::RunaheadPromote) +
                      trace.count(ObsKind::RunaheadDefer),
                  0u)
            << "faults=" << faults;

        // Observability rides along: the stall report splits out
        // misprediction-recovery stall, counts the reprioritizations,
        // and the accounting identity still reconstructs.
        StallReport rep = buildStallReport(trace, run);
        EXPECT_TRUE(rep.reconstructs()) << rep.render();
        EXPECT_GT(rep.recoveryStallCycles, 0u) << "faults=" << faults;
        EXPECT_LE(rep.recoveryStallCycles, rep.attributedStallCycles);
        EXPECT_EQ(rep.runaheadPromotions,
                  trace.count(ObsKind::RunaheadPromote));
        EXPECT_EQ(rep.runaheadDeferrals,
                  trace.count(ObsKind::RunaheadDefer));
    }
}

TEST(Runahead, RescheduleOnlyTouchesIdleStreams)
{
    // The bytes-already-sent invariant at the engine level: streams
    // that have started (or finished) are never re-planned; idle
    // streams move to the requested start, in either direction.
    TransferEngine engine(/*cycles_per_byte=*/1.0, /*max_concurrent=*/1);
    int a = engine.addStream("a", 1'000);
    int b = engine.addStream("b", 1'000);
    engine.scheduleStart(a, 0);
    engine.scheduleStart(b, 5'000);

    engine.advanceTo(10); // a is mid-flight
    ASSERT_EQ(engine.stream(a).state, StreamState::Active);
    EXPECT_FALSE(engine.reschedule(a, 100)); // bytes already sent

    // Deferral: an idle stream's planned start moves later.
    EXPECT_TRUE(engine.reschedule(b, 7'000));
    EXPECT_EQ(engine.stream(b).scheduledStart, 7'000u);
    // Same cycle again: nothing to change.
    EXPECT_FALSE(engine.reschedule(b, 7'000));

    // Promotion to "now": with the limit saturated by a, b queues
    // behind it and starts as soon as a completes — well before its
    // deferred 7000 plan.
    EXPECT_TRUE(engine.reschedule(b, 10));
    engine.advanceTo(2'500);
    EXPECT_EQ(engine.stream(a).state, StreamState::Done);
    EXPECT_TRUE(engine.hasArrived(b, 1'000));

    // Done streams are never re-planned either.
    EXPECT_FALSE(engine.reschedule(a, 3'000));
    EXPECT_FALSE(engine.reschedule(b, 3'000));
}

TEST(Runahead, OneClientServerMatchesSoloRunaheadReplay)
{
    // The server loop embeds the same per-client runahead scheduler:
    // a one-client fleet on an ample uplink must reproduce the solo
    // runahead replay cycle-for-cycle and event-for-event.
    const SimContext &ctx = jessCtx();
    SimConfig cfg = parallelConfig(OrderingSource::Train);
    cfg.runaheadDepth = 16;

    EventTrace solo;
    SimResult sr = runReplay(ctx, cfg, &solo);

    EqualShareAllocator equal;
    ServerOptions opts;
    opts.uplinkBytesPerCycle = 4.0 * linkRate(kT1Link);
    opts.allocator = &equal;
    std::vector<std::unique_ptr<EventTrace>> sinks;
    sinks.push_back(std::make_unique<EventTrace>());
    opts.sinkFor = [&](size_t) { return sinks[0].get(); };
    ServerResult res = runServer({{&ctx, cfg, 1.0, "only"}}, opts);

    expectIdentical(sr, res.clients[0].sim, "one-client runahead");
    expectSameEvents(solo, *sinks[0], "one-client runahead");
}

TEST(Runahead, MispredictingClientDoesNotStarvePunctualPeer)
{
    // Regression for the stale-deadline starvation bug: a mispredict-
    // opened block used to keep nextFirstUse at the (past) blocked
    // first-use cycle, making the mispredicting client maximally
    // urgent to the DeadlineAllocator for the whole recovery — the
    // punctual peer starved behind it on a contended uplink. The fix
    // re-ranks the blocked client on its *corrected* horizon (its
    // next recorded first use), so the punctual client, whose
    // deadlines are honest, must come out ahead.
    const SimContext &ctx = jessCtx();
    SimConfig mispredicting = parallelConfig(OrderingSource::Train);
    SimConfig punctual = parallelConfig(OrderingSource::Test);

    DeadlineAllocator deadline;
    ServerOptions opts;
    // Contended (2 clients want 2x capacity, only 1.5x exists) but not
    // so starved that the Train client's streams all start late enough
    // to mask its mispredictions: at 1x uplink the slowdown retimes
    // every first use past its (also delayed) stream start and the
    // mispredict count collapses to zero, which would vacuously pass.
    opts.uplinkBytesPerCycle = 1.5 * linkRate(kT1Link);
    opts.allocator = &deadline;
    ServerResult res = runServer({{&ctx, mispredicting, 1.0, "mis"},
                                  {&ctx, punctual, 1.0, "punct"}},
                                 opts);
    const SimResult &mis = res.clients[0].sim;
    const SimResult &pun = res.clients[1].sim;
    ASSERT_GT(mis.mispredictions, 0u);
    ASSERT_EQ(pun.mispredictions, 0u);
    // The client that pays for the mispredictions is the one that
    // made them.
    EXPECT_LT(pun.stallCycles, mis.stallCycles);
    EXPECT_LE(res.clients[1].finished, res.clients[0].finished);
}

} // namespace
} // namespace nse
