/**
 * @file
 * The acceptance gate of the trace-replay executor: runReplay must be
 * field-for-field identical to runLiveReference (the retained
 * interpreter-in-the-loop co-simulation) on every sampled point of
 * the configuration space — both overlapped modes, all three
 * orderings, both links, several concurrency limits, with and without
 * data partitioning, class-strict availability, and fault plans
 * (bandwidth bursts, connection drops, and the unity trace that takes
 * the faulted path with nominal content).
 */

#include <gtest/gtest.h>

#include "obs/event.h"
#include "obs/trace.h"
#include "sim/replay.h"
#include "workloads/synthetic.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

void
expectIdentical(const SimResult &replay, const SimResult &live,
                const std::string &what)
{
    EXPECT_EQ(replay.invocationLatency, live.invocationLatency) << what;
    EXPECT_EQ(replay.totalCycles, live.totalCycles) << what;
    EXPECT_EQ(replay.execCycles, live.execCycles) << what;
    EXPECT_EQ(replay.transferCycles, live.transferCycles) << what;
    EXPECT_EQ(replay.stallCycles, live.stallCycles) << what;
    EXPECT_EQ(replay.mispredictions, live.mispredictions) << what;
    EXPECT_EQ(replay.bytecodes, live.bytecodes) << what;
    EXPECT_EQ(replay.cpi, live.cpi) << what;
    EXPECT_EQ(replay.retryCount, live.retryCount) << what;
    EXPECT_EQ(replay.degradedCycles, live.degradedCycles) << what;
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

/** A link fast enough that the transfer finishes mid-run. */
constexpr LinkModel kFastLink{"Fast", 200.0};

/** A fault plan with degraded burst windows plus connection drops. */
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

/** Drops only, nominal bandwidth. */
FaultPlan
dropsPlan()
{
    FaultPlan plan;
    plan.dropSeed = 3;
    plan.dropsPerMByte = 25.0;
    plan.maxAttempts = 1;
    plan.retryTimeoutCycles = 90'000;
    return plan;
}

/** Nominal-content trace that still takes the faulted path. */
FaultPlan
unityPlan()
{
    FaultPlan plan;
    plan.trace = BandwidthTrace({{0, 1.0}, {123'456, 1.0}});
    return plan;
}

/** Every sampled (link, limit, partition, classStrict, faults). */
struct Variant
{
    const char *name;
    LinkModel link;
    int limit;
    bool partition;
    bool classStrict;
    FaultPlan faults;
};

std::vector<Variant>
variants()
{
    return {
        {"t1-limit4-nominal", kT1Link, 4, false, false, {}},
        // Execution outlasts the transfer: most first uses find their
        // bytes arrived and nothing in flight.
        {"fast-limit4-nominal", kFastLink, 4, false, false, {}},
        {"modem-limit1-part-faulty", kModemLink, 1, true, false,
         faultyPlan()},
        {"modem-unlimited-classstrict-unity", kModemLink, -1, false,
         true, unityPlan()},
        {"t1-limit2-part-classstrict-drops", kT1Link, 2, true, true,
         dropsPlan()},
    };
}

void
checkAllConfigs(const SimContext &ctx)
{
    const SimConfig::Mode modes[] = {SimConfig::Mode::Strict,
                                     SimConfig::Mode::Parallel,
                                     SimConfig::Mode::Interleaved};
    const OrderingSource orders[] = {OrderingSource::Static,
                                     OrderingSource::Train,
                                     OrderingSource::Test};
    for (const Variant &v : variants()) {
        for (SimConfig::Mode mode : modes) {
            for (OrderingSource ord : orders) {
                SimConfig cfg;
                cfg.mode = mode;
                cfg.ordering = ord;
                cfg.link = v.link;
                cfg.parallelLimit = v.limit;
                cfg.dataPartition = v.partition;
                cfg.classStrict = v.classStrict;
                cfg.faults = v.faults;
                expectIdentical(
                    runReplay(ctx, cfg), runLiveReference(ctx, cfg),
                    cat(v.name, " mode=", static_cast<int>(mode),
                        " ord=", orderingName(ord)));
            }
        }
    }
}

TEST(Replay, MatchesLiveCoSimulationOnRealWorkload)
{
    Workload wl = makeZipper();
    SimContext ctx(wl.program, wl.natives, wl.trainInput,
                   wl.testInput);
    checkAllConfigs(ctx);
}

TEST(Replay, MatchesLiveCoSimulationOnSyntheticProgram)
{
    SyntheticSpec spec;
    spec.seed = 1234;
    spec.classCount = 10;
    spec.methodsPerClass = 5;
    Program prog = makeSyntheticProgram(spec);
    NativeRegistry natives = standardNatives();
    SimContext ctx(prog, natives, {2, 4}, {6, 1, 8, 3});
    checkAllConfigs(ctx);
}

TEST(Replay, SinkedRunMatchesLiveReference)
{
    // On every sampled overlapped configuration a sinked replay must
    // match runLiveReference field for field and record the same
    // event stream, event for event; and attaching the sink must not
    // change the result.
    Workload wl = makeZipper();
    SimContext ctx(wl.program, wl.natives, wl.trainInput,
                   wl.testInput);
    const SimConfig::Mode modes[] = {SimConfig::Mode::Parallel,
                                     SimConfig::Mode::Interleaved};
    const OrderingSource orders[] = {OrderingSource::Static,
                                     OrderingSource::Train,
                                     OrderingSource::Test};
    for (const Variant &v : variants()) {
        for (SimConfig::Mode mode : modes) {
            for (OrderingSource ord : orders) {
                SimConfig cfg;
                cfg.mode = mode;
                cfg.ordering = ord;
                cfg.link = v.link;
                cfg.parallelLimit = v.limit;
                cfg.dataPartition = v.partition;
                cfg.classStrict = v.classStrict;
                cfg.faults = v.faults;
                std::string what =
                    cat(v.name, " mode=", static_cast<int>(mode),
                        " ord=", orderingName(ord));
                EventTrace replayed, live;
                SimResult r = runReplay(ctx, cfg, &replayed);
                expectIdentical(r, runLiveReference(ctx, cfg, &live),
                                what);
                expectSameEvents(replayed, live, what);
                expectIdentical(r, runReplay(ctx, cfg),
                                cat("unsinked ", what));
            }
        }
    }
}

TEST(Replay, TraceIsConfigInvariant)
{
    // The recorded trace equals the test profile's instrumented run:
    // entry method first, strictly increasing exec clocks, totals
    // with clock == execCycles (no stalls were injected).
    Workload wl = makeZipper();
    SimContext ctx(wl.program, wl.natives, wl.trainInput,
                   wl.testInput);
    const ExecTrace &trace = ctx.trace();
    ASSERT_FALSE(trace.events.empty());
    EXPECT_EQ(trace.events.front().method, wl.program.entry());
    for (size_t i = 1; i < trace.events.size(); ++i)
        EXPECT_GE(trace.events[i].execClock,
                  trace.events[i - 1].execClock);
    EXPECT_EQ(trace.totals.clock, trace.totals.execCycles);
    EXPECT_EQ(trace.events.size(), ctx.testProfile().methods.size());
}

TEST(Replay, EngineStepsArePinned)
{
    // Work counter: the summed TransferEngine::steps() of a fixed
    // replay grid — six programs x limit {1, unlimited} x {nominal,
    // faulty with runahead 16} x {T1, modem}, each replayed through
    // the per-event OverlappedRun path. Engine rewrites that cut the
    // cost of a step must not change how many steps a run takes.
    uint64_t steps = 0;
    for (const Workload &wl : allWorkloads()) {
        SimContext ctx(wl.program, wl.natives, wl.trainInput,
                       wl.testInput);
        for (const LinkModel &link : {kT1Link, kModemLink}) {
            for (int limit : {1, -1}) {
                for (bool faulty : {false, true}) {
                    SimConfig cfg;
                    cfg.mode = SimConfig::Mode::Parallel;
                    cfg.link = link;
                    cfg.parallelLimit = limit;
                    if (faulty) {
                        cfg.faults = faultyPlan();
                        cfg.runaheadDepth = 16;
                    }
                    OverlappedRun run(ctx, cfg);
                    size_t idx = 0;
                    uint64_t end = replayTrace(
                        ctx.trace(), [&](MethodId id, uint64_t clock) {
                            return run.wait(idx++, id, clock);
                        });
                    run.finish(end, ctx.trace().totals);
                    steps += run.engine().steps();
                }
            }
        }
    }
    EXPECT_EQ(steps, 25879u);
}

} // namespace
} // namespace nse
