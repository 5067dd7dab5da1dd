#include "transfer/engine.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace nse
{

namespace
{

/** t + ceil(cycles), saturating to "never" (UINT64_MAX). A completion
 *  estimate can exceed the uint64 cycle range (a huge stream sharing
 *  a glacial link); casting such a double is UB and wraps to a small
 *  value on x86-64, which turns the event loop into one-cycle steps.
 *  A saturated estimate contributes no event, like a rate-0 stream. */
uint64_t
completionAt(uint64_t t, double cycles)
{
    double est = std::ceil(cycles);
    // 2^64 is exactly representable; anything at or beyond it cannot
    // be cast.
    if (est >= 18446744073709551616.0)
        return UINT64_MAX;
    auto c = static_cast<uint64_t>(est);
    return t > UINT64_MAX - c ? UINT64_MAX : t + c;
}

/** Consecutive stepping-loop iterations that change nothing before
 *  the engine declares itself stuck. */
constexpr uint64_t kMaxStalledSteps = 64;

} // namespace

TransferEngine::TransferEngine(double cycles_per_byte, int max_concurrent)
    : TransferEngine(cycles_per_byte, max_concurrent, FaultPlan{})
{}

TransferEngine::TransferEngine(double cycles_per_byte, int max_concurrent,
                               FaultPlan plan)
    : cyclesPerByte_(cycles_per_byte), maxConcurrent_(max_concurrent),
      plan_(std::move(plan))
{
    NSE_CHECK(cycles_per_byte > 0, "non-positive link cost");
    const std::vector<RateSegment> &segs = plan_.trace.segments();
    if (!segs.empty()) {
        traceMult_ = segs[0].multiplier;
        traceNext_ = segs.size() > 1 ? segs[1].startCycle : UINT64_MAX;
    }
}

void
TransferEngine::setSink(EventSink *sink)
{
    sink_ = sink;
    if (!sink_)
        return;
    for (size_t i = 0; i < streams_.size(); ++i) {
        sink_->noteStream(static_cast<int>(i), streams_[i].name,
                          static_cast<uint64_t>(streams_[i].totalBytes));
    }
}

void
TransferEngine::emit(ObsKind kind, uint64_t cycle, int stream,
                     uint64_t a, uint64_t b)
{
    if (!sink_)
        return;
    ObsEvent ev;
    ev.cycle = cycle;
    ev.kind = kind;
    ev.stream = stream;
    ev.a = a;
    ev.b = b;
    sink_->record(ev);
}

int
TransferEngine::addStream(std::string name, uint64_t total_bytes)
{
    NSE_CHECK(total_bytes > 0, "empty stream: ", name);
    Stream s;
    s.name = std::move(name);
    s.totalBytes = static_cast<double>(total_bytes);
    int idx = static_cast<int>(streams_.size());
    if (sink_)
        sink_->noteStream(idx, s.name, total_bytes);
    streams_.push_back(std::move(s));
    drops_.push_back(plan_.dropsFor(idx, total_bytes));
    dropsPending_ += drops_.back().size();
    nextDrop_.push_back(0);
    resumeAt_.push_back(UINT64_MAX);
    watchSet_.push_back(0);
    watchOffset_.push_back(0.0);
    watchCrossed_.push_back(UINT64_MAX);
    return idx;
}

const Stream &
TransferEngine::stream(int idx) const
{
    NSE_ASSERT(idx >= 0 && static_cast<size_t>(idx) < streams_.size(),
               "bad stream id ", idx);
    return streams_[static_cast<size_t>(idx)];
}

double
TransferEngine::perStreamRate() const
{
    if (active_ == 0)
        return 0.0;
    // extRate_ defaults to 1.0; multiplying by it exactly is a no-op,
    // so an unthrottled engine is bit-identical to the pre-server one.
    return traceMult_ * extRate_ /
           (cyclesPerByte_ * static_cast<double>(active_));
}

void
TransferEngine::setExternalRate(double multiplier)
{
    NSE_CHECK(std::isfinite(multiplier) && multiplier >= 0.0,
              "external rate multiplier must be finite and "
              "non-negative, got ", multiplier);
    extRate_ = multiplier;
}

uint64_t
TransferEngine::nextStepToward(int stream, uint64_t offset) const
{
    auto si = static_cast<size_t>(stream);
    NSE_ASSERT(si < streams_.size(), "bad stream id ", stream);
    uint64_t ev = nextEvent();
    const Stream &s = streams_[si];
    double rate = perStreamRate();
    if (s.state == StreamState::Active && rate > 0.0) {
        // Crossing estimate at the current rate, valid up to the next
        // event (nextEvent caps it at trace boundaries and this
        // stream's own drop offsets). During a full outage (rate 0)
        // there is no crossing to estimate; the trace's next change
        // point is already in `ev`. waitFor steps to exactly this
        // bound, so an external loop doing the same reproduces its
        // integration segments.
        double remaining =
            std::min(static_cast<double>(offset), stopBytes(si)) -
            s.arrivedBytes;
        uint64_t cross = completionAt(time_, remaining / rate);
        if (cross != UINT64_MAX)
            ev = std::min(ev, std::max(cross, time_ + 1));
    }
    return ev;
}

bool
TransferEngine::hasArrived(int stream, uint64_t offset) const
{
    auto si = static_cast<size_t>(stream);
    NSE_ASSERT(si < streams_.size(), "bad stream id ", stream);
    return streams_[si].arrivedBytes + kEps >=
           static_cast<double>(offset);
}

uint64_t
TransferEngine::quietUntil() const
{
    // Anything in flight can make progress (or retry) at any cycle:
    // no quiet window. A non-empty queue implies a full slot table,
    // which implies active streams, but check it anyway.
    if (active_ > 0 || suspended_ > 0 || !queue_.empty())
        return time_;
    if (pendingStarts_ == 0)
        return UINT64_MAX;
    return std::max(nextStart_, time_);
}

bool
TransferEngine::slotFree() const
{
    // A suspended stream keeps its connection slot while retrying.
    return maxConcurrent_ <= 0 ||
           active_ + suspended_ < static_cast<size_t>(maxConcurrent_);
}

void
TransferEngine::crossWatch(size_t idx, uint64_t cycle, uint64_t offset)
{
    watchCrossed_[idx] = cycle;
    --watchesPending_;
    emit(ObsKind::WatchCross, cycle, static_cast<int>(idx), offset);
}

void
TransferEngine::markActive(size_t idx, uint64_t now)
{
    Stream &s = streams_[idx];
    s.state = StreamState::Active;
    s.startedAt = now;
    ++active_;
    inflight_.insert(
        std::lower_bound(inflight_.begin(), inflight_.end(), idx), idx);
    emit(ObsKind::StreamStart, now, static_cast<int>(idx),
         static_cast<uint64_t>(s.arrivedBytes));
    // An empty needed prefix arrives the moment the stream starts.
    if (watchSet_[idx] && watchOffset_[idx] <= 0.0 &&
        watchCrossed_[idx] == UINT64_MAX) {
        crossWatch(idx, now, 0);
    }
}

void
TransferEngine::activateOrQueue(int stream, uint64_t now, bool front)
{
    Stream &s = streams_[static_cast<size_t>(stream)];
    NSE_ASSERT(s.state == StreamState::Idle,
               "activate on non-idle stream ", s.name);
    if (slotFree()) {
        markActive(static_cast<size_t>(stream), now);
    } else {
        s.state = StreamState::Queued;
        emit(ObsKind::StreamQueue, now, stream);
        if (front)
            queue_.push_front(stream);
        else
            queue_.push_back(stream);
    }
}

double
TransferEngine::stopBytes(size_t idx) const
{
    const Stream &s = streams_[idx];
    if (nextDrop_[idx] < drops_[idx].size()) {
        return std::min(s.totalBytes,
                        static_cast<double>(
                            drops_[idx][nextDrop_[idx]].offsetBytes));
    }
    return s.totalBytes;
}

uint64_t
TransferEngine::nextEvent() const
{
    const uint64_t t = time_;
    uint64_t next = UINT64_MAX;
    if (pendingStarts_ > 0) {
        if (nextStart_ > t) {
            // The index is exact, so this is the same bound the
            // per-stream scan below would find.
            next = nextStart_;
        } else {
            // A due start not yet processed (public pure-query use
            // between processEventsAt calls): fall back to scanning.
            for (const Stream &s : streams_) {
                if (s.state == StreamState::Idle &&
                    s.scheduledStart != UINT64_MAX &&
                    s.scheduledStart > t) {
                    next = std::min(next, s.scheduledStart);
                }
            }
        }
    }
    if (active_ > 0 || suspended_ > 0) {
        double rate = perStreamRate();
        for (size_t i : inflight_) {
            const Stream &s = streams_[i];
            if (s.state == StreamState::Active && rate > 0.0) {
                // The next stop for this stream: completion, or
                // pausing at its next drop offset. Exact while the
                // rate holds; a trace boundary before then fires
                // first and we re-estimate at the new rate. During a
                // full outage (rate 0) no bytes move, so the stream
                // contributes no event — the trace's next change
                // point below bounds the step instead (ceil(x / 0)
                // would be UB to cast).
                double remaining = stopBytes(i) - s.arrivedBytes;
                uint64_t done_at = completionAt(t, remaining / rate);
                if (done_at != UINT64_MAX)
                    next = std::min(next, std::max(done_at, t + 1));
            } else if (s.state == StreamState::Suspended &&
                       resumeAt_[i] > t) {
                next = std::min(next, resumeAt_[i]);
            }
        }
    }
    if (active_ > 0)
        next = std::min(next, traceNext_);
    return next;
}

void
TransferEngine::progressTo(uint64_t t)
{
    NSE_ASSERT(t >= time_, "engine time moved backwards");
    if (t == time_)
        return;
    // Constant-rate segment: every rate change (start, completion,
    // drop, resume, trace boundary) is an event, so no caller ever
    // crosses one inside [time_, t).
    double rate = perStreamRate();
    double delta = static_cast<double>(t - time_) * rate;
    if ((active_ > 0 && traceMult_ * extRate_ < 1.0) || suspended_ > 0)
        degradedCycles_ += t - time_;
    for (size_t i : inflight_) {
        Stream &s = streams_[i];
        if (s.state != StreamState::Active)
            continue;
        double before = s.arrivedBytes;
        s.arrivedBytes = std::min(stopBytes(i), s.arrivedBytes + delta);
        if (watchSet_[i] && watchOffset_[i] > 0 &&
            watchCrossed_[i] == UINT64_MAX &&
            s.arrivedBytes + kEps >= watchOffset_[i]) {
            // rate can be 0 here only when the offset was already
            // within kEps at segment entry; the crossing is "now".
            double need = watchOffset_[i] - before;
            crossWatch(i,
                       rate > 0.0
                           ? time_ + static_cast<uint64_t>(std::ceil(
                                         std::max(0.0, need) / rate))
                           : time_,
                       static_cast<uint64_t>(watchOffset_[i]));
        }
    }
    time_ = t;
    // Move the trace cursor to the segment in effect at the new time.
    // Time never moves backwards, so the walk is amortized O(1).
    const std::vector<RateSegment> &segs = plan_.trace.segments();
    while (traceNext_ <= time_) {
        ++traceSeg_;
        traceMult_ = segs[traceSeg_].multiplier;
        traceNext_ = traceSeg_ + 1 < segs.size()
                         ? segs[traceSeg_ + 1].startCycle
                         : UINT64_MAX;
    }
}

void
TransferEngine::recomputeNextStart()
{
    pendingStarts_ = 0;
    nextStart_ = UINT64_MAX;
    for (const Stream &s : streams_) {
        if (s.state == StreamState::Idle &&
            s.scheduledStart != UINT64_MAX) {
            ++pendingStarts_;
            nextStart_ = std::min(nextStart_, s.scheduledStart);
        }
    }
}

void
TransferEngine::planStart(size_t idx, uint64_t cycle)
{
    uint64_t &planned = streams_[idx].scheduledStart;
    uint64_t old = planned;
    planned = cycle;
    pendingStarts_ += cycle != UINT64_MAX;
    pendingStarts_ -= old != UINT64_MAX;
    // Only withdrawing (or deferring) the current minimum needs a scan.
    if (cycle < nextStart_)
        nextStart_ = cycle;
    else if (old == nextStart_ && old != cycle)
        recomputeNextStart();
}

void
TransferEngine::processEventsAt(uint64_t t)
{
    // Each pass below is gated on a counter saying it can fire at
    // all, and the completion, drop and retry passes walk only the
    // in-flight list. Pass order (completions, drops, retries, starts,
    // queue) is load-bearing: completions free slots before starts
    // claim them.
    if (active_ > 0) {
        // Completions first: they free slots for queued/scheduled
        // streams.
        size_t kept = 0;
        for (size_t i : inflight_) {
            Stream &s = streams_[i];
            if (s.state == StreamState::Active &&
                s.arrivedBytes >= s.totalBytes - kEps) {
                s.arrivedBytes = s.totalBytes;
                s.state = StreamState::Done;
                s.finishedAt = t;
                NSE_ASSERT(active_ > 0, "active count underflow");
                --active_;
                ++done_;
                emit(ObsKind::StreamComplete, t, static_cast<int>(i),
                     static_cast<uint64_t>(s.totalBytes));
            } else {
                inflight_[kept++] = i;
            }
        }
        inflight_.resize(kept);
    }
    if (active_ > 0 && dropsPending_ > 0) {
        // Drops: a stream whose cursor reached its next drop offset
        // loses its connection and retries with exponential backoff;
        // it resumes from the drop offset (bytes already arrived are
        // kept).
        for (size_t i : inflight_) {
            Stream &s = streams_[i];
            if (s.state != StreamState::Active ||
                nextDrop_[i] >= drops_[i].size()) {
                continue;
            }
            const DropEvent &d = drops_[i][nextDrop_[i]];
            if (s.arrivedBytes + kEps >=
                static_cast<double>(d.offsetBytes)) {
                s.state = StreamState::Suspended;
                resumeAt_[i] = t + plan_.retryDelay(d.attempts);
                retryCount_ += static_cast<uint64_t>(d.attempts);
                ++nextDrop_[i];
                --dropsPending_;
                NSE_ASSERT(active_ > 0, "active count underflow");
                --active_;
                ++suspended_;
                emit(ObsKind::StreamDrop, t, static_cast<int>(i),
                     d.offsetBytes, resumeAt_[i]);
            }
        }
    }
    if (suspended_ > 0) {
        // Retries that succeeded by now resume transferring.
        for (size_t i : inflight_) {
            Stream &s = streams_[i];
            if (s.state == StreamState::Suspended &&
                resumeAt_[i] <= t) {
                s.state = StreamState::Active;
                resumeAt_[i] = UINT64_MAX;
                NSE_ASSERT(suspended_ > 0,
                           "suspended count underflow");
                --suspended_;
                ++active_;
                emit(ObsKind::StreamResume, t, static_cast<int>(i),
                     static_cast<uint64_t>(s.arrivedBytes));
            }
        }
    }
    if (pendingStarts_ > 0 && nextStart_ <= t) {
        // Scheduled starts due by now.
        for (size_t i = 0; i < streams_.size(); ++i) {
            Stream &s = streams_[i];
            if (s.state == StreamState::Idle &&
                s.scheduledStart != UINT64_MAX &&
                s.scheduledStart <= t) {
                activateOrQueue(static_cast<int>(i), t,
                                /*front=*/false);
            }
        }
        recomputeNextStart();
    }
    // Fill freed slots from the queue, FIFO.
    while (!queue_.empty() && slotFree()) {
        int idx = queue_.front();
        queue_.pop_front();
        NSE_ASSERT(streams_[static_cast<size_t>(idx)].state ==
                       StreamState::Queued,
                   "queue corruption");
        markActive(static_cast<size_t>(idx), t);
    }
}

TransferEngine::Progress
TransferEngine::progressMark() const
{
    return {time_,      done_,         active_,
            suspended_, queue_.size(), pendingStarts_};
}

void
TransferEngine::step(uint64_t t, const char *loop)
{
    Progress before = progressMark();
    progressTo(t);
    processEventsAt(t);
    ++steps_;
    if (progressMark() != before) {
        stalledSteps_ = 0;
        return;
    }
    // Unreachable while nextEvent() only returns cycles after the
    // clock; a regression there would otherwise spin forever.
    if (++stalledSteps_ >= kMaxStalledSteps) {
        panic(loop, ": transfer engine made no progress in ",
              kMaxStalledSteps, " steps (time ", time_, ", active ",
              active_, ", suspended ", suspended_, ", queued ",
              queue_.size(), ", pending starts ", pendingStarts_,
              ", next start ", nextStart_, ", done ", done_, " of ",
              streams_.size(), ")");
    }
}

void
TransferEngine::advanceTo(uint64_t cycle)
{
    NSE_CHECK(cycle >= time_, "advanceTo into the past");
    processEventsAt(time_);
    while (time_ < cycle)
        step(std::min(nextEvent(), cycle), "advanceTo");
}

void
TransferEngine::scheduleStart(int stream, uint64_t cycle)
{
    auto si = static_cast<size_t>(stream);
    NSE_CHECK(streams_[si].state == StreamState::Idle,
              "scheduleStart on started stream ", streams_[si].name);
    planStart(si, cycle);
}

void
TransferEngine::demandStart(int stream, uint64_t now)
{
    // Callers track their own clock, which may trail the engine's
    // (waitFor advances it); never rewind.
    advanceTo(std::max(now, time_));
    Stream &s = streams_[static_cast<size_t>(stream)];
    switch (s.state) {
      case StreamState::Active:
      case StreamState::Suspended:
      case StreamState::Done:
        return; // already on its way
      case StreamState::Queued: {
        // Move to the front: "queued up to be transferred next".
        auto it = std::find(queue_.begin(), queue_.end(), stream);
        NSE_ASSERT(it != queue_.end(), "queued stream missing from queue");
        queue_.erase(it);
        queue_.push_front(stream);
        return;
      }
      case StreamState::Idle:
        planStart(static_cast<size_t>(stream), UINT64_MAX);
        // Start at the engine clock, not the caller's: advanceTo
        // above may have moved time_ past `now`, and a stream must
        // never record startedAt in the engine's past.
        activateOrQueue(stream, time_, /*front=*/true);
        return;
    }
}

bool
TransferEngine::reschedule(int stream, uint64_t cycle)
{
    auto si = static_cast<size_t>(stream);
    Stream &s = streams_[si];
    if (s.state != StreamState::Idle)
        return false; // bytes-already-sent invariant: never re-plan
    if (cycle <= time_) {
        // Promotion: behave like a planned start that is already due.
        // Queue at the *back* so demand fetches (the stream execution
        // is blocked on right now) keep absolute priority.
        planStart(si, UINT64_MAX);
        activateOrQueue(stream, time_, /*front=*/false);
        return true;
    }
    if (s.scheduledStart == cycle)
        return false;
    planStart(si, cycle);
    return true;
}

uint64_t
TransferEngine::waitFor(int stream, uint64_t offset, uint64_t now)
{
    advanceTo(std::max(now, time_));
    const Stream &s = streams_[static_cast<size_t>(stream)];
    NSE_CHECK(static_cast<double>(offset) <= s.totalBytes + kEps,
              "wait past the end of stream ", s.name);

    while (!hasArrived(stream, offset)) {
        uint64_t ev = nextStepToward(stream, offset);
        if (ev == UINT64_MAX) {
            fatal("waiting on stream ", s.name,
                  " which will never transfer (not started and "
                  "nothing scheduled, or the link is in a permanent "
                  "zero-bandwidth outage)");
        }
        step(ev, "waitFor");
    }
    return std::max(now, time_);
}

void
TransferEngine::setWatch(int stream, uint64_t offset)
{
    auto si = static_cast<size_t>(stream);
    NSE_ASSERT(si < streams_.size(), "bad stream id ", stream);
    if (watchSet_[si] && watchCrossed_[si] == UINT64_MAX)
        --watchesPending_;
    watchSet_[si] = 1;
    watchOffset_[si] = static_cast<double>(offset);
    watchCrossed_[si] = UINT64_MAX;
    ++watchesPending_;
    const Stream &s = streams_[si];
    bool started = s.state != StreamState::Idle &&
                   s.state != StreamState::Queued;
    if (started && s.arrivedBytes + kEps >= static_cast<double>(offset)) {
        // Already crossed (a zero-byte prefix counts as crossed the
        // moment the stream starts).
        crossWatch(si, time_, offset);
    }
}

void
TransferEngine::runWatches()
{
    processEventsAt(time_);
    while (watchesPending_ > 0) {
        uint64_t ev = nextEvent();
        if (ev == UINT64_MAX)
            fatal("runWatches: a watched stream will never transfer");
        step(ev, "runWatches");
    }
}

uint64_t
TransferEngine::watchedArrival(int stream) const
{
    auto si = static_cast<size_t>(stream);
    NSE_ASSERT(si < streams_.size(), "bad stream id ", stream);
    return watchCrossed_[si];
}

uint64_t
TransferEngine::finishAll()
{
    processEventsAt(time_);
    while (!allDone()) {
        uint64_t ev = nextEvent();
        if (ev == UINT64_MAX)
            fatal("finishAll with streams that will never start");
        step(ev, "finishAll");
    }
    return time_;
}

} // namespace nse
