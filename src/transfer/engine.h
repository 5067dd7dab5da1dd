/**
 * @file
 * Event-driven shared-bandwidth transfer engine.
 *
 * Models the paper's parallel file transfer (§5.1): any number of
 * streams (class files, or one interleaved virtual file) share the
 * link's bandwidth *equally*; streams are never preempted once
 * started; an optional concurrency limit (HTTP 1.1's four pipelined
 * requests) queues further starts until a slot frees.
 *
 * The link itself is pluggable (transfer/faults.h): a FaultPlan adds
 * a piecewise-constant bandwidth multiplier over cycle windows plus
 * per-stream interruption events with retry-after-timeout,
 * exponential backoff, and resume-from-offset. The engine integrates
 * byte progress piecewise — every rate change (trace boundary, start,
 * completion, drop, resume) is an event, so within each integration
 * step the per-stream rate is exactly constant and watches/waitFor
 * stay cycle-exact under rate changes. A multiplier-0 window (a full
 * outage) is legal: no bytes move and the next event is the trace's
 * next change point, never a division by the zero rate. A default
 * (all-nominal) plan reproduces the constant-rate engine
 * byte-for-byte.
 *
 * The engine advances lazily: the co-simulation asks it to advance to
 * the VM clock, to start streams (scheduled ahead of time, or
 * on demand after a misprediction), and to wait until a byte offset of
 * a stream has arrived — the operation behind "execution stalls until
 * the procedure's delimiter has transferred".
 */

#ifndef NSE_TRANSFER_ENGINE_H
#define NSE_TRANSFER_ENGINE_H

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.h"
#include "transfer/faults.h"

namespace nse
{

/** Lifecycle of one transfer stream. */
enum class StreamState : uint8_t
{
    Idle,      ///< not started, not queued
    Queued,    ///< ready but waiting for a concurrency slot
    Active,    ///< transferring
    Suspended, ///< connection dropped; retrying, resumes from offset
    Done,      ///< fully transferred
};

/** One stream (one class file, or the interleaved virtual file). */
struct Stream
{
    std::string name;
    double totalBytes = 0;
    double arrivedBytes = 0;
    StreamState state = StreamState::Idle;
    /** Planned start cycle; UINT64_MAX = none planned. */
    uint64_t scheduledStart = UINT64_MAX;
    uint64_t startedAt = 0;
    uint64_t finishedAt = 0;
};

/** The shared-bandwidth transfer simulator. */
class TransferEngine
{
  public:
    /**
     * @param cycles_per_byte nominal link cost (see LinkModel)
     * @param max_concurrent  concurrent-stream limit; <= 0 = unlimited
     */
    TransferEngine(double cycles_per_byte, int max_concurrent);

    /** As above, evaluating transfers under a fault plan (which
     *  must pass FaultPlan::validate). */
    TransferEngine(double cycles_per_byte, int max_concurrent,
                   FaultPlan plan);

    /** Register a stream; returns its id. */
    int addStream(std::string name, uint64_t total_bytes);

    /** Plan a start cycle (from the transfer schedule). */
    void scheduleStart(int stream, uint64_t cycle);

    /**
     * Misprediction correction: start (or re-queue at the front) right
     * now. `now` must be >= the engine's current time. Returns whether
     * the stream moved: an Idle stream started or queued, or a Queued
     * stream behind another moved to the front.
     */
    bool demandStart(int stream, uint64_t now);

    /**
     * Runahead reprioritization: move an *idle* stream's planned start
     * to `cycle`. A cycle at or before the engine clock promotes the
     * stream (it starts now, or queues behind already-waiting streams
     * when the concurrency limit is saturated); a later cycle defers
     * it. Streams that have started keep their bytes-already-sent:
     * only Idle streams are touched, so no transferred byte is ever
     * re-planned. Returns whether the plan changed.
     */
    bool reschedule(int stream, uint64_t cycle);

    /** Process all starts/completions up to and including `cycle`. */
    void advanceTo(uint64_t cycle);

    /**
     * Integrate to `cycle` and stop *before* processing the events
     * due at it: every event strictly before `cycle` is processed as
     * advanceTo would, the clock moves to `cycle`, and the starts,
     * completions and queue fills due at `cycle` are still pending. A
     * start scheduled at `cycle` afterwards is processed together with
     * them by the next advanceTo, waitFor, runWatches or finishAll —
     * completions first, then due starts in index order, then the
     * queue fill — exactly as if it had been scheduled from the
     * outset. A caller can therefore resume from a copy of an engine
     * instead of re-simulating from cycle 0. A `cycle` equal to the
     * clock does nothing; an earlier one is a FatalError.
     */
    void integrateTo(uint64_t cycle);

    /**
     * Return the earliest cycle >= now at which `offset` bytes of the
     * stream have arrived, advancing the simulation to that cycle.
     * fatal()s when the stream can never reach the offset (not started
     * and nothing scheduled).
     */
    uint64_t waitFor(int stream, uint64_t offset, uint64_t now);

    /** Advance until every registered stream has completed. */
    uint64_t finishAll();

    /**
     * Watch a byte offset of a stream: the engine records the exact
     * cycle the offset is crossed. Used by the scheduler to read all
     * prefix-arrival times out of a single simulation. One watch per
     * stream; set before the stream crosses it. A zero-byte watch (an
     * empty needed prefix) is crossed the moment the stream starts.
     */
    void setWatch(int stream, uint64_t offset);

    /** Advance until every watch has been crossed. */
    void runWatches();

    /** Crossing cycle of the stream's watch; UINT64_MAX = not yet. */
    uint64_t watchedArrival(int stream) const;

    const Stream &stream(int idx) const;
    uint64_t time() const { return time_; }
    size_t activeCount() const { return active_; }
    bool allDone() const { return done_ == streams_.size(); }

    /**
     * Externally imposed rate multiplier, composed multiplicatively
     * with the fault plan's bandwidth trace. This is how a server
     * simulation (server/server_sim.h) throttles one client's link to
     * its allocated share of a shared uplink: the allocator decides a
     * share, the server advances every engine to the allocation
     * instant, then sets the new multiplier — so within any
     * integration step the effective rate is still exactly constant.
     * It must be finite and non-negative (FatalError otherwise); 0
     * is legal (a fully starved client: no bytes move until the next
     * allocation). The caller must have advanced the engine to
     * the cycle the new rate takes effect; the default of 1.0
     * reproduces the unthrottled engine byte-for-byte.
     */
    void setExternalRate(double multiplier);
    double externalRate() const { return extRate_; }

    /**
     * The next internal event strictly after the current time, at
     * current rates: a scheduled start, a completion or drop-offset
     * estimate, a retry resume, or a bandwidth-trace change point.
     * UINT64_MAX = none. Pure query; the external event loop of the
     * server simulation uses it to bound global steps so allocation
     * changes never land inside an integration segment. Costs one
     * division plus a walk of the in-flight list only while a stream
     * is suspended: the earliest completion or drop stop is read off
     * the smallest remaining byte count, which the mutators keep.
     */
    uint64_t nextEventTime() const { return nextEvent(); }

    /**
     * The step bound waitFor takes toward `offset` bytes of
     * `stream`: min(nextEventTime(), the crossing estimate at the
     * current rate). UINT64_MAX when no progress is possible at
     * current rates. Pure query — waitFor loops on exactly this and
     * hasArrived, so an external loop that advances to this bound and
     * re-queries reproduces waitFor's step sequence (and therefore
     * its cycle-exact results) by construction.
     */
    uint64_t nextStepToward(int stream, uint64_t offset) const;

    /** waitFor's arrival predicate as a pure query: have `offset`
     *  bytes of the stream arrived (within the engine's epsilon)? */
    bool hasArrived(int stream, uint64_t offset) const;

    /** Total retry attempts across all drop events triggered so far. */
    uint64_t retryCount() const { return retryCount_; }

    /** Cycles spent with the link below nominal bandwidth while any
     *  stream was in flight, or with any stream suspended on retry. */
    uint64_t degradedCycles() const { return degradedCycles_; }

    /**
     * Deterministic work counter: integration steps taken so far, one
     * per progress-then-process iteration of advanceTo, waitFor,
     * runWatches and finishAll. It measures how many steps a run
     * takes, independent of what each step costs.
     */
    uint64_t steps() const { return steps_; }

    /**
     * Attach an event sink (obs/event.h); null detaches. Streams
     * already registered are announced immediately, then every
     * lifecycle edge (start, queue, drop, resume, complete) and watch
     * crossing is recorded as it happens. With no sink attached every
     * instrumentation site is a single null check.
     */
    void setSink(EventSink *sink);

  private:
    static constexpr double kEps = 1e-6;

    /** What a stepping-loop iteration can change: the clock, or a
     *  stream's lifecycle state (every drop, retry, watch crossing and
     *  start moves one of these counts). */
    struct Progress
    {
        uint64_t time;
        size_t done, active, suspended, queued, pendingStarts;
        bool operator==(const Progress &) const = default;
    };

    double perStreamRate() const;
    /** The next internal event strictly after time_ (nextEventTime). */
    uint64_t nextEvent() const;
    void progressTo(uint64_t t);
    void processEventsAt(uint64_t t);
    /** processEventsAt(time_), unless the last call already ran at
     *  time_, changed nothing, and nothing has been mutated since. */
    void settle();
    /** Recompute minStop_ over the Active streams. */
    void refreshMinStop();
    /**
     * One integration step of a stepping loop: progressTo(t), then
     * processEventsAt(t). Counts it in steps_, and panics with a state
     * dump once `loop` has gone kMaxStalledSteps iterations without
     * moving the clock or any other Progress field.
     */
    void step(uint64_t t, const char *loop);
    Progress progressMark() const;
    /** Drop stale entries off the start index's top and read the
     *  exact next planned start from it. */
    void recomputeNextStart();
    /** Refill the start index from the idle streams' planned starts,
     *  dropping every stale entry. */
    void rebuildStartIndex();
    /** Is (cycle, idx) an idle stream's current planned start? */
    bool plannedAt(uint64_t cycle, size_t idx) const;
    /** Set an idle stream's planned start (UINT64_MAX = none),
     *  keeping the pending-start index exact. */
    void planStart(size_t idx, uint64_t cycle);
    void activateOrQueue(int stream, uint64_t now, bool front);
    void markActive(size_t idx, uint64_t now);
    /** Record the stream's watch as crossed at `cycle`. */
    void crossWatch(size_t idx, uint64_t cycle, uint64_t offset);
    /** A stream's next pending drop offset; +inf with none left. */
    double dropAt(size_t idx) const;
    /** Byte cursor cap for a stream: its end, or its next pending
     *  drop offset (transfer pauses there until the retry succeeds). */
    double stopBytes(size_t idx) const;
    bool slotFree() const;
    void emit(ObsKind kind, uint64_t cycle, int stream, uint64_t a = 0,
              uint64_t b = 0);

    double cyclesPerByte_;
    EventSink *sink_ = nullptr;
    int maxConcurrent_;
    FaultPlan plan_;
    /** Server-imposed share of the link (setExternalRate). */
    double extRate_ = 1.0;
    uint64_t time_ = 0;
    size_t active_ = 0;
    size_t suspended_ = 0;
    uint64_t retryCount_ = 0;
    uint64_t degradedCycles_ = 0;
    uint64_t steps_ = 0;
    /** Consecutive stepping-loop iterations that changed nothing. */
    uint64_t stalledSteps_ = 0;
    std::vector<Stream> streams_;
    std::deque<int> queue_;
    /**
     * Event-loop fast-path index. The integrator's hot path
     * (advanceTo / waitFor, once or more per replayed first-use)
     * takes one step per event; these counters let the bookkeeping
     * passes that cannot fire exit before touching any stream. They
     * are pure control flow — when a pass does run it performs
     * exactly the arithmetic it always did, so results stay
     * bit-identical. `nextStart_` is kept *exact* (updated whenever
     * the scheduled-start set changes) because it bounds integration
     * steps: an approximate bound would split constant-rate segments
     * at different points and perturb float rounding.
     *
     * The start index is a lazy min-heap of (cycle, stream) entries,
     * pushed whenever an idle stream's planned start changes. An
     * entry is stale once its stream has started or been re-planned;
     * stale entries are dropped when they reach the top, and the heap
     * is rebuilt from the idle streams once it holds more than twice
     * the pending starts plus a constant, so repeated runahead
     * reschedules cannot grow it without bound. The start pass pops
     * only the due entries, sorts their streams by index and
     * activates those — O(due log n) instead of a scan of every
     * stream — and `nextStart_` is the first live entry's cycle.
     *
     * The members after the start index (`minStop_`, `passesDue_`,
     * `settledAt_`) make an engine step touch its in-flight streams
     * once: the progress walk leaves behind the earliest stop and
     * whether a completion or drop is due, and a call that would
     * repeat a settled instant is skipped. None of them changes a
     * floating-point operation or its order.
     */
    size_t pendingStarts_ = 0;
    uint64_t nextStart_ = UINT64_MAX;
    std::vector<std::pair<uint64_t, size_t>> startIndex_;
    /**
     * Every Active stream moves at perStreamRate(), and a stream's
     * stop estimate t + ceil(remaining / rate) is monotone in its
     * remaining bytes, so nextEvent's completion-or-drop term is the
     * estimate at the smallest stopBytes(i) - arrivedBytes over the
     * Active streams. `minStop_` is that exact double (+inf with none
     * Active): progressTo recomputes it in its per-stream walk,
     * markActive and a retry resume fold the new stream in, and a
     * completion or drop, which removes a stream, re-walks the list.
     * A rate change leaves it valid.
     */
    double minStop_ = std::numeric_limits<double>::infinity();
    /**
     * Gate of the completion and drop passes: set when some Active
     * stream may meet either pass's test (progressTo checks both with
     * the passes' own comparisons; markActive and a resume set it
     * unconditionally), cleared once both passes have run. After both
     * passes no Active stream meets either test, and nothing else
     * moves arrivedBytes, nextDrop_ or a state, so a pass skipped
     * while it is clear would have done nothing.
     */
    bool passesDue_ = false;
    /**
     * The clock of the last processEventsAt call if it changed
     * nothing and no start was planned, no stream activated or queued
     * and no queue reordered since; UINT64_MAX otherwise. Such a call
     * is a fixpoint, so settle() skips calling it again at the same
     * time.
     */
    uint64_t settledAt_ = UINT64_MAX;
    uint64_t dropsPending_ = 0;
    size_t done_ = 0;
    /** Set watches not yet crossed. */
    size_t watchesPending_ = 0;
    /**
     * The in-flight list: ids of the Active and Suspended streams,
     * sorted by index. progressTo, nextEvent and the completion, drop
     * and retry passes walk only this list, so a step costs
     * O(in flight) rather than O(streams). Index order is the order a
     * scan over every stream visits, so events are emitted, and
     * per-stream floating-point updates applied, in that same order.
     */
    std::vector<size_t> inflight_;
    /**
     * Monotone cursor over plan_.trace: the segment in effect at
     * time_, its multiplier and the next change point (UINT64_MAX =
     * none). progressTo advances it; engine time never moves
     * backwards, so no step searches the trace.
     */
    size_t traceSeg_ = 0;
    double traceMult_ = 1.0;
    uint64_t traceNext_ = UINT64_MAX;
    /** Per-stream pending drop events and the next one's index. */
    std::vector<std::vector<DropEvent>> drops_;
    std::vector<size_t> nextDrop_;
    /** Resume cycle per suspended stream (UINT64_MAX = not suspended). */
    std::vector<uint64_t> resumeAt_;
    /** Watch per stream: set flag, offset, and its crossing cycle. */
    std::vector<uint8_t> watchSet_;
    std::vector<double> watchOffset_;
    std::vector<uint64_t> watchCrossed_;
};

} // namespace nse

#endif // NSE_TRANSFER_ENGINE_H
