/**
 * @file
 * The trace-replay executor (the replay-many half of
 * record-once/replay-many).
 *
 * A live co-simulation runs the interpreter with a first-use hook
 * that stalls the clock on transfer waits. But the hook never changes
 * *what* executes: the sequence of first-use events and the exec
 * cycles between them are invariant across every transfer
 * configuration. So one recorded ExecTrace replays against a fresh
 * TransferEngine and produces a field-for-field identical SimResult
 * (proven by tests/replay_test.cc against runLiveReference, the
 * retained interpreter-in-the-loop implementation).
 *
 * The run-time rule at each first use (paper §5.1) lives once, in
 * OverlappedRun. runReplay and runLiveReference call its wait once
 * per first use; every server client (server/server_sim.h, which
 * serves only overlapped clients) and the schedule ablation also
 * drive it. Strict mode needs no step: it is one wait for the whole
 * program, computed in closed form (or on a faulted engine) by
 * runReplay and runLiveReference alone.
 */

#ifndef NSE_SIM_REPLAY_H
#define NSE_SIM_REPLAY_H

#include <optional>
#include <vector>

#include "obs/event.h"
#include "sim/context.h"
#include "support/error.h"
#include "transfer/engine.h"
#include "transfer/faults.h"
#include "transfer/link.h"
#include "transfer/runahead.h"

namespace nse
{

/** One simulated configuration. */
struct SimConfig
{
    enum class Mode : uint8_t
    {
        Strict,
        Parallel,
        Interleaved,
    };

    Mode mode = Mode::Strict;
    OrderingSource ordering = OrderingSource::Static;
    LinkModel link = kT1Link;
    /** Concurrent class-file transfers; <= 0 = unlimited. */
    int parallelLimit = 4;
    bool dataPartition = false;
    /**
     * Class-strict ablation: keep the scheduled/pipelined transfer but
     * require a method's *whole class file* before it may run —
     * isolating how much of the win comes from mere class pipelining
     * versus true method-level non-strictness.
     */
    bool classStrict = false;
    /**
     * Link behavior the run is *evaluated* under (transfer/faults.h).
     * Schedules are always built against the nominal link; a
     * non-nominal plan degrades the evaluation only — mispredictions
     * and demand fetches absorb the slack. The default plan is
     * all-nominal and reproduces the constant-rate engine exactly.
     */
    FaultPlan faults;
    /**
     * Online runahead transfer scheduling (transfer/runahead.h),
     * Parallel mode only: at every stalled first use, look this many
     * trace events ahead (bounded by the RTA call graph for paths
     * beyond the window) and promote up to RunaheadScheduler::kMaxPromotions
     * of the remaining idle transfer units toward the predicted
     * first-uses. 0 (the default) disables runahead entirely; the run
     * is then bit-identical to the static schedule (pinned by
     * tests/runahead_test.cc).
     */
    uint32_t runaheadDepth = 0;

    /**
     * Raise FatalError unless the link can carry a `total_bytes`
     * program: cyclesPerByte must be finite and positive, and the
     * whole-program cost ceil(total_bytes x cyclesPerByte) must fit a
     * uint64_t cycle count; and the fault plan must pass
     * FaultPlan::validate. Every public entry point that runs a
     * configuration calls it first.
     */
    void validate(uint64_t total_bytes) const;
};

/** Measurements of one simulated run. */
struct SimResult
{
    /** Cycles until the program begins executing. */
    uint64_t invocationLatency = 0;
    /** Cycles from invocation to program completion (incl. stalls). */
    uint64_t totalCycles = 0;
    uint64_t execCycles = 0;
    /**
     * Cycles to transfer the complete program front-to-back on a
     * single connection under the run's fault plan — the paper's
     * Table 3 figure and the denominator of every "% transfer"
     * column. Under the (default) nominal plan this is
     * ceil(totalBytes x cyclesPerByte); under a degraded plan it is
     * the faulted figure, in every mode (strict and overlapped runs
     * evaluated under the same plan report the same value).
     */
    uint64_t transferCycles = 0;
    /** Cycles execution spent stalled waiting on transfer. */
    uint64_t stallCycles = 0;
    /** First uses whose class was neither transferring nor scheduled. */
    uint64_t mispredictions = 0;
    uint64_t bytecodes = 0;
    double cpi = 0.0;
    /** Retry attempts across all connection drops (0 when nominal). */
    uint64_t retryCount = 0;
    /** Cycles the link ran degraded or a stream sat in retry backoff. */
    uint64_t degradedCycles = 0;
};

/** The memoized-layout identity a configuration selects. */
LayoutKey layoutKeyOf(const SimConfig &cfg);

/**
 * Percent normalized execution time (smaller is better, paper §7.2).
 * A zero-cycle strict baseline (degenerate empty program) normalizes
 * to 100.0 rather than dividing by zero.
 */
double normalizedPct(const SimResult &result, const SimResult &strict);

/**
 * Execute one configuration by trace replay (always on the test
 * input): Strict as one whole-program wait, Parallel and Interleaved
 * through an OverlappedRun. Thread-safe: concurrent calls on one
 * context are fine.
 *
 * `obs` optionally observes the run (obs/event.h): every transfer
 * stream edge and watch crossing from the engine, one MethodWait
 * event per first-use (stalled or not), Mispredict instants, and a
 * final RunEnd. Null (the default) records nothing and costs nothing;
 * a sink must only be shared across concurrent runs if it is itself
 * thread-safe (EventTrace is not — use one per run).
 */
SimResult runReplay(const SimContext &ctx, const SimConfig &cfg,
                    EventSink *obs = nullptr);

/**
 * The original interpreter-in-the-loop co-simulation, retained as the
 * reference implementation the replay executor is verified against.
 * Orders of magnitude slower than runReplay; use only in tests.
 * Observes into `obs` identically to runReplay.
 */
SimResult runLiveReference(const SimContext &ctx, const SimConfig &cfg,
                           EventSink *obs = nullptr);

/**
 * Cycles to transfer the complete program (`total_bytes`) front-to-back
 * on one connection under `plan`, with the entry class's first
 * `entry_bytes` at the head of the file. A nominal plan reduces to
 * transferCost(total_bytes, link); a faulted plan is evaluated on the
 * piecewise-rate TransferEngine with the entry class's arrival
 * observed first — the identical event sequence the strict simulation
 * uses, so strict and overlapped runs under the same (link, plan)
 * report byte-identical figures. If `invocation_latency` is non-null
 * it receives the entry class's (possibly faulted) arrival cycle.
 */
uint64_t wholeProgramTransferCycles(uint64_t total_bytes,
                                    uint64_t entry_bytes,
                                    const LinkModel &link,
                                    const FaultPlan &plan,
                                    uint64_t *invocation_latency = nullptr,
                                    uint64_t *retry_count = nullptr,
                                    uint64_t *degraded_cycles = nullptr,
                                    EventSink *obs = nullptr);

/** Where one first use waits, as OverlappedRun::arrive resolved it. */
struct FirstUseWait
{
    MethodId method{};
    int stream = -1;
    /** Stream offset at which the method's delimiter has arrived. */
    uint64_t offset = 0;
    /** Neither transferring nor due (§5.1): demand-fetched. */
    bool mispredicted = false;
};

/**
 * One overlapped (Parallel or Interleaved) run, stepped one first use
 * at a time: the paper's run-time rule (§5.1) in one place. It owns
 * the run's layout, TransferEngine, optional RunaheadScheduler, sink
 * and the SimResult being built, and it is the only way any executor
 * — solo replay, the live reference, a server client — runs an
 * overlapped configuration. Each executor brings only its clock and
 * its way of waiting:
 *
 *   arrive  advance the engine to the first use's clock, demand-fetch
 *           a mispredicted class, trigger runahead; returns the wait;
 *   (the executor waits: engine().waitFor, or a server event loop
 *   stepping a throttled engine until the bytes have arrived)
 *   resume  book the stall, record MethodWait, and take the first
 *           wait's resume clock as the invocation latency;
 *   finish  fill in the rest of the SimResult and record RunEnd.
 *
 * `ctx`, `cfg` and `obs` must outlive the run.
 */
class OverlappedRun
{
  public:
    /** Registers every layout stream and starts them on the memoized
     *  greedy schedule (Parallel) or at cycle 0 (Interleaved) — or,
     *  given `starts`, at one planned cycle per stream (UINT64_MAX =
     *  none), for schedule-policy experiments. */
    OverlappedRun(const SimContext &ctx, const SimConfig &cfg,
                  EventSink *obs = nullptr,
                  const std::vector<uint64_t> *starts = nullptr);

    /** Trace event `idx` (method `id`) is due at `clock`. */
    FirstUseWait arrive(size_t idx, MethodId id, uint64_t clock);
    /** The wait `w`, opened at `clock`, ends at `resume`. */
    void resume(const FirstUseWait &w, uint64_t clock, uint64_t resume);
    /** arrive, engine().waitFor, resume: a first use on an engine
     *  nothing else throttles. Returns the resume clock. */
    uint64_t wait(size_t idx, MethodId id, uint64_t clock);
    /** The run ended at `final_clock` after executing `totals`. */
    SimResult finish(uint64_t final_clock, const VmResult &totals);

    TransferEngine &engine() { return engine_; }
    /** Stall cycles booked so far. */
    uint64_t stalls() const { return result_.stallCycles; }

  private:
    const SimContext *ctx_;
    const SimConfig *cfg_;
    EventSink *obs_;
    const TransferLayout *layout_;
    TransferEngine engine_;
    std::optional<RunaheadScheduler> runahead_;
    SimResult result_;
    bool entrySeen_ = false;
};

/**
 * Replay the recorded trace against an arbitrary wait function, which
 * plays exactly the role of the VM first-use hook: it is called once
 * per first-use event with (method, clock) and returns the (>=) clock
 * at which execution proceeds. Returns the final clock — the trace's
 * stall-free clock plus every injected stall. runReplay and the
 * schedule ablation drive an OverlappedRun through it; the JIT model
 * (ext_jit), the adaptive interleaver (ext_adaptive) and the
 * block-level column of the granularity ablation wait on a
 * TransferEngine of their own, laid out for what they model.
 */
template <typename WaitFn>
uint64_t
replayTrace(const ExecTrace &trace, WaitFn &&wait)
{
    uint64_t stalls = 0;
    for (const TraceEvent &ev : trace.events) {
        uint64_t clock = ev.execClock + stalls;
        uint64_t resume = wait(ev.method, clock);
        NSE_ASSERT(resume >= clock,
                   "replay wait moved the clock backwards");
        stalls += resume - clock;
    }
    return trace.totals.clock + stalls;
}

} // namespace nse

#endif // NSE_SIM_REPLAY_H
