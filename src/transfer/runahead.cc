#include "transfer/runahead.h"

#include <algorithm>
#include <deque>
#include <set>

#include "analysis/callgraph.h"
#include "restructure/layout.h"
#include "sim/context.h"
#include "support/saturate.h"

namespace nse
{

namespace
{

/** Nodes the speculative call-graph walk may visit per stall. */
constexpr size_t kExpansionBudget = 256;

} // namespace

RunaheadScheduler::RunaheadScheduler(const ExecTrace &trace,
                                     const TransferLayout &layout,
                                     const CallGraph &cg,
                                     uint32_t depth)
    : trace_(&trace), layout_(&layout), cg_(&cg), depth_(depth)
{
    mark_.resize(layout.streams.size(), 0);
    predicted_.reserve(kMaxPromotions);
}

void
RunaheadScheduler::onStall(TransferEngine &engine, size_t eventIdx,
                           uint64_t clock, EventSink *obs)
{
    if (depth_ == 0)
        return;
    const std::vector<TraceEvent> &evs = trace_->events;
    if (eventIdx >= evs.size())
        return;
    ++stats_.stallsInspected;
    std::fill(mark_.begin(), mark_.end(), 0);
    predicted_.clear();

    // The stalled stream is being handled by the ordinary demand
    // fetch; never promote past it, never defer it.
    const MethodPlacement &blocked = layout_->of(evs[eventIdx].method);
    if (blocked.streamIdx >= 0)
        mark_[static_cast<size_t>(blocked.streamIdx)] = 1;

    auto wantsPromotion = [&](const MethodPlacement &pl) {
        return engine.stream(pl.streamIdx).state == StreamState::Idle &&
               !engine.hasArrived(pl.streamIdx, pl.availOffset);
    };

    // 1. Run ahead in the recorded trace: the next `depth` first
    //    uses, in order. Every stream seen here is protected from
    //    deferral even when it needs no promotion (already active or
    //    already arrived). The RTA bound only gates *promotion*: a
    //    method the analysis proves unreachable must not be fetched
    //    speculatively, but its stream still must not be deferred.
    size_t end = std::min(evs.size(),
                          eventIdx + 1 + static_cast<size_t>(depth_));
    for (size_t j = eventIdx + 1; j < end; ++j) {
        MethodId m = evs[j].method;
        const MethodPlacement &pl = layout_->of(m);
        if (pl.streamIdx < 0 || mark_[static_cast<size_t>(pl.streamIdx)])
            continue;
        mark_[static_cast<size_t>(pl.streamIdx)] = 1;
        if (!cg_->rtaReachable(m))
            continue;
        if (predicted_.size() < kMaxPromotions && wantsPromotion(pl))
            predicted_.push_back(pl.streamIdx);
    }

    // 2. Not-yet-seen paths: when the trace window maps to fewer than
    //    kMaxPromotions streams, expand breadth-first over the RTA
    //    call graph from the blocked method — the methods it may
    //    invoke once its bytes arrive are the plausible next
    //    first-uses beyond the window.
    if (predicted_.size() < kMaxPromotions) {
        std::deque<MethodId> frontier;
        std::set<MethodId> visited;
        frontier.push_back(evs[eventIdx].method);
        visited.insert(evs[eventIdx].method);
        size_t budget = kExpansionBudget;
        while (!frontier.empty() && predicted_.size() < kMaxPromotions &&
               budget > 0) {
            --budget;
            MethodId m = frontier.front();
            frontier.pop_front();
            for (const CallSite &site : cg_->node(m).sites) {
                for (MethodId t : site.rtaTargets) {
                    if (!visited.insert(t).second)
                        continue;
                    frontier.push_back(t);
                    const MethodPlacement &pl = layout_->of(t);
                    if (pl.streamIdx < 0 ||
                        mark_[static_cast<size_t>(pl.streamIdx)])
                        continue;
                    if (!wantsPromotion(pl))
                        continue;
                    mark_[static_cast<size_t>(pl.streamIdx)] = 1;
                    predicted_.push_back(pl.streamIdx);
                    if (predicted_.size() >= kMaxPromotions)
                        break;
                }
                if (predicted_.size() >= kMaxPromotions)
                    break;
            }
        }
    }

    // 3. Promote, in predicted first-use order. reschedule() queues
    //    at the back, so an in-flight demand fetch keeps priority and
    //    earlier promotions precede later ones.
    for (int s : predicted_) {
        const Stream &st = engine.stream(s);
        if (st.state != StreamState::Idle)
            continue;
        uint64_t was = st.scheduledStart;
        if (engine.reschedule(s, clock)) {
            ++stats_.promotions;
            if (obs)
                obs->record({clock, ObsKind::RunaheadPromote, s, -1, -1,
                             clock, was});
        }
    }

    // 4. Defer unpredicted idle starts that fall inside the
    //    speculation window. The window end is the exec-clock distance
    //    to the window's last event — a lower bound on when replay
    //    reaches it, since stalls only push first uses later — so no
    //    stream used inside the window is ever pushed past its use.
    if (end <= eventIdx + 1)
        return;
    uint64_t horizon = satAdd(
        clock, evs[end - 1].execClock - evs[eventIdx].execClock);
    if (horizon <= clock)
        return;
    for (size_t s = 0; s < mark_.size(); ++s) {
        if (mark_[s])
            continue;
        const Stream &st = engine.stream(static_cast<int>(s));
        if (st.state != StreamState::Idle)
            continue;
        uint64_t was = st.scheduledStart;
        if (was <= clock || was >= horizon)
            continue;
        if (engine.reschedule(static_cast<int>(s), horizon)) {
            ++stats_.deferrals;
            if (obs)
                obs->record({clock, ObsKind::RunaheadDefer,
                             static_cast<int>(s), -1, -1, horizon, was});
        }
    }
}

} // namespace nse
