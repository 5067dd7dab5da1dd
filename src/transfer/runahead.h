/**
 * @file
 * Online runahead transfer scheduling (ROADMAP: "Runahead transfer
 * scheduling"; grounded in runahead execution — when stalled, look
 * ahead to discover future misses).
 *
 * The static greedy schedule (transfer/schedule.h) fixes every
 * stream's start cycle before the run; one misprediction leaves the
 * rest of the plan wrong for the whole run. The runahead scheduler
 * adapts the plan *online*: each time the replay executor stalls on a
 * method wait, it runs ahead in the client's recorded ExecTrace —
 * bounded by the RTA call graph for paths the trace window does not
 * reach — to predict the next first-uses (at most kMaxPromotions
 * streams), then reorders the
 * remaining (idle) transfer units through TransferEngine::reschedule:
 *
 *  - predicted streams whose needed prefix has not arrived are
 *    *promoted* (start now, behind any in-flight demand fetch);
 *  - unpredicted idle streams whose planned start falls inside the
 *    speculation window are *deferred* to the window's end, freeing
 *    shared bandwidth for the streams execution will actually touch.
 *
 * Safety: only Idle streams are re-planned (the engine hook enforces
 * the bytes-already-sent invariant), every stream used inside the
 * speculation window is protected from deferral (the window end is a
 * lower bound on its use cycle, since stalls only push first uses
 * later), and a deferred stream that *is* used early is recovered by
 * the ordinary misprediction demand fetch. The speculative expansion
 * never promotes a method the RTA analysis proves unreachable, so
 * speculation stays inside the auditor's safety envelope.
 */

#ifndef NSE_TRANSFER_RUNAHEAD_H
#define NSE_TRANSFER_RUNAHEAD_H

#include <cstdint>
#include <vector>

#include "obs/event.h"
#include "transfer/engine.h"

namespace nse
{

struct ExecTrace;
struct TransferLayout;
class CallGraph;

struct RunaheadStats
{
    uint64_t stallsInspected = 0;
    uint64_t promotions = 0;
    uint64_t deferrals = 0;
};

/**
 * Per-client online scheduler. Construct once per replay (it scales
 * its scratch state to the layout) and call onStall() at every
 * first-use wait whose bytes have not arrived. `depth` is the number
 * of trace events to look ahead past the stalled one; 0 disables the
 * scheduler entirely.
 */
class RunaheadScheduler
{
  public:
    /** Max distinct streams promoted per stall. */
    static constexpr size_t kMaxPromotions = 4;

    RunaheadScheduler(const ExecTrace &trace, const TransferLayout &layout,
                      const CallGraph &cg, uint32_t depth);

    /**
     * React to a misprediction stall: the replay is blocked on trace
     * event `eventIdx` at cycle `clock` (the engine has been advanced
     * to `clock`) and a demand fetch for the blocked stream was just
     * issued. Promotes / defers idle streams as described above and
     * emits RunaheadPromote / RunaheadDefer events to `obs` (null
     * records nothing).
     *
     * Call this only for misprediction stalls, never for ordinary
     * bandwidth waits on an in-flight transfer. A misprediction proves
     * the static plan downstream of this point stale, so reordering it
     * pays; on a correctly predicted stall the blocked stream is
     * already transferring, and promoting competitors would only steal
     * link share from the very bytes the program is waiting for
     * (measured: promoting on every stall inflates stall cycles by up
     * to 2.8x on well-trained orderings; gating on mispredictions
     * keeps mispredict-free runs bit-identical to the static
     * schedule).
     */
    void onStall(TransferEngine &engine, size_t eventIdx, uint64_t clock,
                 EventSink *obs);

    const RunaheadStats &stats() const { return stats_; }

  private:
    const ExecTrace *trace_;
    const TransferLayout *layout_;
    const CallGraph *cg_;
    uint32_t depth_;
    RunaheadStats stats_;

    /** Scratch, reused across stalls: per-stream "seen in window". */
    std::vector<uint8_t> mark_;
    /** Streams to promote, in predicted first-use order. */
    std::vector<int> predicted_;
};

} // namespace nse

#endif // NSE_TRANSFER_RUNAHEAD_H
