#include "server/server_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "support/error.h"
#include "support/saturate.h"

namespace nse
{

namespace
{

/**
 * Relative-epsilon rate equality, consistent with waterFill's 1e-12
 * cap tolerance (server/allocator.cc): re-split residue within an
 * ulp-scale band of the applied value IS the applied value. Exact
 * comparison here lets FP jitter masquerade as a rate change, which
 * inflates allocationIntervals and retimes every engine in the fleet
 * for nothing. Comparisons are always against the *applied* value
 * (not the previous computed one), so sub-epsilon drift cannot
 * accumulate unapplied.
 */
bool
nearlyEqualRate(double a, double b)
{
    return std::abs(a - b) <=
           1e-12 * std::max(std::abs(a), std::abs(b));
}

/** Per-client live state of the server event loop. All cycles are
 *  client-local unless suffixed with "Global". */
struct ClientRt
{
    enum class Phase : uint8_t
    {
        Pending,   ///< not arrived yet
        AtDoor,    ///< arrived, waiting for an admission slot
        FetchWait, ///< admitted; edge cache is fetching the artifact
        Executing, ///< replaying between first-use waits
        Blocked,   ///< a first use is waiting on stream bytes
        Finished,
    };

    const ClientSpec *spec = nullptr;
    uint64_t arrival = 0;
    /** Global cycle of admission = client-local cycle 0. Equals
     *  `arrival` unless an admission limit queued the client. */
    uint64_t epoch = 0;
    /** The overlapped run (the §5.1 step and its engine); null until
     *  admission. */
    std::unique_ptr<OverlappedRun> run;
    const ExecTrace *trace = nullptr;

    Phase phase = Phase::Pending;
    size_t eventIdx = 0;

    /** The open wait while Blocked, opened at client-local
     *  blockClock. */
    FirstUseWait block;
    uint64_t blockClock = 0;
    /** Corrected demand horizon for a mispredict-opened block: the
     *  global cycle of the client's *next* recorded first use (a lower
     *  bound — the open block only adds stalls). UINT64_MAX when the
     *  blocked event is the last. A mispredicted block's own deadline
     *  (blockClock, already in the past) carries no ranking
     *  information, so the allocator ranks on this instead (see
     *  refreshDemand). */
    uint64_t blockNextUseGlobal = UINT64_MAX;

    /** Edge-cache origin-fetch handle while in FetchWait, and the
     *  global cycle the fetch wait began (the cache request). */
    int fetch = -1;
    uint64_t fetchStart = 0;

    /** Externally applied share multiplier (engine's externalRate).
     *  Starts at the engine's default so an uncontended client never
     *  has its rate touched at all. */
    double mult = 1.0;

    /** Cached global-cycle candidates for the next event. */
    uint64_t nextAction = UINT64_MAX;
    uint64_t nextEngineEv = UINT64_MAX;

    ServerClientResult out;
};

} // namespace

double
jainFairness(const std::vector<double> &xs)
{
    if (xs.empty())
        return 1.0;
    double sum = 0.0, sq = 0.0;
    for (double x : xs) {
        sum += x;
        sq += x * x;
    }
    // All-zero is degenerate (the index is 0/0), not perfectly fair:
    // report 0.0 so a fleet that produced no signal cannot masquerade
    // as an ideally balanced one.
    if (sq == 0.0)
        return 0.0;
    return sum * sum / (static_cast<double>(xs.size()) * sq);
}

uint64_t
percentile(std::vector<uint64_t> xs, double p)
{
    NSE_CHECK(std::isfinite(p) && p >= 0.0 && p <= 100.0,
              "percentile p must be finite and in [0, 100], got ", p);
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    double rank = p / 100.0 * static_cast<double>(xs.size());
    auto idx = static_cast<size_t>(std::ceil(rank));
    if (idx > 0)
        --idx;
    if (idx >= xs.size())
        idx = xs.size() - 1;
    return xs[idx];
}

namespace
{

/** Advance a client's engine to the global cycle T (no-op if there). */
void
engineAdvance(ClientRt &rt, uint64_t T)
{
    uint64_t local = T - rt.epoch;
    TransferEngine &engine = rt.run->engine();
    if (engine.time() < local)
        engine.advanceTo(local);
}

/**
 * Past its last first-use wait, a client just runs to its finish
 * cycle: no future wait can need bytes, so it stops demanding and its
 * engine freezes where the last wait left it — the exact horizon a
 * solo runReplay observes, which keeps retryCount/degradedCycles
 * identical to the solo run (and releases the uplink to peers).
 */
bool
draining(const ClientRt &rt)
{
    return rt.phase == ClientRt::Phase::Executing &&
           rt.eventIdx >= rt.trace->events.size();
}

/** Client-local clock of an Executing client's next action: its next
 *  first use, or its finish once the trace is exhausted. */
uint64_t
dueClock(const ClientRt &rt)
{
    const ExecTrace &trace = *rt.trace;
    uint64_t clock = rt.eventIdx < trace.events.size()
                         ? trace.events[rt.eventIdx].execClock
                         : trace.totals.clock;
    return clock + rt.run->stalls();
}

/**
 * Run the client's replay forward as far as global cycle T allows:
 * resolve an arrived block, process every first-use wait whose clock
 * is due, and finish the run when its final clock is due. The
 * client's engine must already be advanced to T. Each first use goes
 * through the client's OverlappedRun; what stays here is only the
 * server's own waiting: a wait whose bytes have not arrived blocks
 * the client until the event loop has stepped its throttled engine
 * far enough.
 */
void
progressClient(ClientRt &rt, uint64_t T)
{
    uint64_t local = T - rt.epoch;
    for (;;) {
        if (rt.phase == ClientRt::Phase::Blocked) {
            const TransferEngine &engine = rt.run->engine();
            if (!engine.hasArrived(rt.block.stream, rt.block.offset))
                return;
            rt.run->resume(rt.block, rt.blockClock,
                           std::max(rt.blockClock, engine.time()));
            rt.phase = ClientRt::Phase::Executing;
            ++rt.eventIdx;
            continue;
        }
        if (rt.phase != ClientRt::Phase::Executing)
            return;

        uint64_t clock = dueClock(rt);
        if (clock > local)
            return;
        if (draining(rt)) {
            rt.out.sim = rt.run->finish(clock, rt.trace->totals);
            rt.out.finished = rt.epoch + clock;
            rt.phase = ClientRt::Phase::Finished;
            return;
        }
        NSE_ASSERT(clock == local,
                   "server loop missed a first-use instant");
        const std::vector<TraceEvent> &events = rt.trace->events;
        FirstUseWait w =
            rt.run->arrive(rt.eventIdx, events[rt.eventIdx].method, clock);
        const TransferEngine &engine = rt.run->engine();
        if (engine.hasArrived(w.stream, w.offset)) {
            rt.run->resume(w, clock, std::max(clock, engine.time()));
            ++rt.eventIdx;
            continue;
        }
        rt.phase = ClientRt::Phase::Blocked;
        rt.block = w;
        rt.blockClock = clock;
        rt.blockNextUseGlobal =
            rt.eventIdx + 1 < events.size()
                ? satAdd(rt.epoch,
                         satAdd(events[rt.eventIdx + 1].execClock,
                                rt.run->stalls()))
                : UINT64_MAX;
        return;
    }
}

/** Build the client's run at admission (global cycle rt.epoch). */
void
setupClient(ClientRt &rt, size_t idx, const ServerOptions &opts)
{
    const ClientSpec &spec = *rt.spec;
    rt.run = std::make_unique<OverlappedRun>(
        *spec.ctx, spec.config, opts.sinkFor ? opts.sinkFor(idx) : nullptr);
    rt.trace = &spec.ctx->trace();
    rt.phase = ClientRt::Phase::Executing;
    // Fire cycle-0 scheduled starts so the demand refresh below sees
    // the streams active (runReplay gets this from its first waitFor
    // at clock 0).
    rt.run->engine().advanceTo(0);
}

/** Recompute the client's cached event candidates (global cycles).
 *  `cache` is the run's edge cache (null = cacheless); only the
 *  FetchWait case consults it. */
void
computeCandidates(ClientRt &rt, const EdgeCache *cache)
{
    switch (rt.phase) {
      case ClientRt::Phase::Pending:
        rt.nextAction = rt.arrival;
        rt.nextEngineEv = UINT64_MAX;
        return;
      case ClientRt::Phase::AtDoor:
        // Woken by an admission slot freeing, not by the clock.
        rt.nextAction = UINT64_MAX;
        rt.nextEngineEv = UINT64_MAX;
        return;
      case ClientRt::Phase::FetchWait:
        // The origin uplink's own step bound toward the artifact's
        // last byte (already a global cycle). It is capped by every
        // concurrent fetch's events, so the arrival cannot be missed;
        // fetches starting later only slow rates, so the only error
        // direction is a safe early wake that re-polls.
        rt.nextAction = cache->nextFetchStep(rt.fetch);
        rt.nextEngineEv = UINT64_MAX;
        return;
      case ClientRt::Phase::Blocked:
        rt.nextAction = satAdd(rt.epoch, rt.run->engine().nextStepToward(
                                             rt.block.stream,
                                             rt.block.offset));
        rt.nextEngineEv = UINT64_MAX;
        return;
      case ClientRt::Phase::Executing:
        rt.nextAction = satAdd(rt.epoch, dueClock(rt));
        rt.nextEngineEv =
            draining(rt)
                ? UINT64_MAX
                : satAdd(rt.epoch, rt.run->engine().nextEventTime());
        return;
      case ClientRt::Phase::Finished:
        rt.nextAction = UINT64_MAX;
        rt.nextEngineEv = UINT64_MAX;
        return;
    }
}

/** The client's single heap key: its earliest candidate. */
uint64_t
candidateOf(const ClientRt &rt)
{
    return std::min(rt.nextAction, rt.nextEngineEv);
}

/**
 * Indexed binary min-heap over clients, keyed by (cycle, client): at
 * most one entry per client, and a position array so a client's key
 * is updated in place rather than re-queued. Ties pop in client-index
 * order.
 */
class ClientHeap
{
  public:
    explicit ClientHeap(size_t n) : pos_(n, kAbsent) { heap_.reserve(n); }

    /** Key client i at `cycle`; UINT64_MAX removes its entry. */
    void
    set(size_t i, uint64_t cycle)
    {
        Entry e{cycle, static_cast<uint32_t>(i)};
        uint32_t at = pos_[i];
        if (at == kAbsent) {
            if (cycle == UINT64_MAX)
                return;
            NSE_ASSERT(heap_.size() < pos_.size(),
                       "client heap outgrew its ", pos_.size(), " clients");
            heap_.push_back(e);
            siftUp(heap_.size() - 1, e);
        } else if (cycle == UINT64_MAX) {
            removeAt(at);
        } else {
            fix(at, e);
        }
    }

    /** The earliest key; UINT64_MAX when empty. */
    uint64_t
    top() const
    {
        return heap_.empty() ? UINT64_MAX : heap_.front().cycle;
    }

    /** Remove the earliest entry and return its client. */
    size_t
    pop()
    {
        uint32_t client = heap_.front().client;
        removeAt(0);
        return client;
    }

  private:
    struct Entry
    {
        uint64_t cycle;
        uint32_t client;
    };
    static constexpr uint32_t kAbsent = UINT32_MAX;

    static bool
    before(const Entry &a, const Entry &b)
    {
        return a.cycle != b.cycle ? a.cycle < b.cycle : a.client < b.client;
    }

    void
    place(size_t at, const Entry &e)
    {
        heap_[at] = e;
        pos_[e.client] = static_cast<uint32_t>(at);
    }

    void
    siftUp(size_t at, const Entry &e)
    {
        while (at > 0) {
            size_t parent = (at - 1) / 2;
            if (!before(e, heap_[parent]))
                break;
            place(at, heap_[parent]);
            at = parent;
        }
        place(at, e);
    }

    void
    siftDown(size_t at, const Entry &e)
    {
        size_t n = heap_.size();
        for (;;) {
            size_t child = 2 * at + 1;
            if (child >= n)
                break;
            if (child + 1 < n && before(heap_[child + 1], heap_[child]))
                ++child;
            if (!before(heap_[child], e))
                break;
            place(at, heap_[child]);
            at = child;
        }
        place(at, e);
    }

    /** Put `e` at slot `at` and restore the heap order around it. */
    void
    fix(size_t at, const Entry &e)
    {
        if (at > 0 && before(e, heap_[(at - 1) / 2]))
            siftUp(at, e);
        else
            siftDown(at, e);
    }

    void
    removeAt(size_t at)
    {
        pos_[heap_[at].client] = kAbsent;
        Entry last = heap_.back();
        heap_.pop_back();
        if (at < heap_.size())
            fix(at, last);
    }

    std::vector<Entry> heap_;
    std::vector<uint32_t> pos_; ///< slot of each client, or kAbsent
};

} // namespace

ServerResult
runServer(const std::vector<ClientSpec> &clients,
          const ServerOptions &opts)
{
    NSE_CHECK(std::isfinite(opts.uplinkBytesPerCycle) &&
                  opts.uplinkBytesPerCycle > 0.0,
              "server uplink capacity must be finite and positive, got ",
              opts.uplinkBytesPerCycle);
    NSE_CHECK(opts.allocator != nullptr, "server needs an allocator");
    size_t n = clients.size();
    NSE_CHECK(n > 0, "server needs at least one client");

    const bool linear = opts.loop == ServerLoop::LinearScan;
    const bool deadlineAware = opts.allocator->usesDeadlines();

    std::vector<uint64_t> arrivals = opts.arrivals.cycles(n);
    std::vector<ClientRt> rts(n);
    for (size_t i = 0; i < n; ++i) {
        NSE_CHECK(clients[i].ctx != nullptr,
                  "client spec without a context");
        NSE_CHECK(clients[i].config.mode != SimConfig::Mode::Strict,
                  "server client ", i, " is Strict; the server serves "
                  "only Parallel or Interleaved clients (runReplay "
                  "gives the strict baseline)");
        clients[i].config.validate(clients[i].ctx->totalBytes());
        rts[i].spec = &clients[i];
        rts[i].arrival = arrivals[i];
        rts[i].epoch = arrivals[i];
        rts[i].out.arrival = arrivals[i];
        rts[i].out.admitted = arrivals[i];
        rts[i].out.name = clients[i].name.empty()
                              ? cat("client-", i)
                              : clients[i].name;
        computeCandidates(rts[i], opts.edgeCache);
    }

    // Each client keyed at its candidate; empty under the linear-scan
    // reference loop.
    ClientHeap heap(linear ? 0 : n);
    if (!linear)
        for (size_t i = 0; i < n; ++i)
            heap.set(i, candidateOf(rts[i]));

    // Persistent demand set; the constant fields are filled once.
    std::vector<ClientDemand> demands(n);
    for (size_t i = 0; i < n; ++i) {
        demands[i].client = static_cast<int>(i);
        demands[i].nominalRate = linkRate(clients[i].config.link);
        demands[i].weight = clients[i].weight;
    }
    // Refresh one client's mutable demand fields; returns whether a
    // field the allocator's output can depend on changed.
    auto refreshDemand = [&](size_t i) -> bool {
        const ClientRt &rt = rts[i];
        ClientDemand &d = demands[i];
        bool running = rt.phase == ClientRt::Phase::Executing ||
                       rt.phase == ClientRt::Phase::Blocked;
        bool demanding = running && !draining(rt) &&
                         rt.run->engine().activeCount() > 0;
        uint64_t nfu;
        if (rt.phase == ClientRt::Phase::Blocked)
            // A block from the static plan's own slack is maximally
            // urgent (its deadline is already in the past). A block
            // the plan never predicted is not: ranking it on the past
            // blockClock would hold it at the head of the deadline
            // order for the whole demand fetch and starve punctual
            // clients, so mispredict-opened blocks rank on the
            // corrected next-first-use horizon instead
            // (tests/runahead_test.cc pins the non-starvation).
            nfu = rt.block.mispredicted
                      ? rt.blockNextUseGlobal
                      : satAdd(rt.epoch, rt.blockClock);
        else if (rt.phase == ClientRt::Phase::Executing)
            nfu = satAdd(rt.epoch, dueClock(rt));
        else
            nfu = UINT64_MAX;
        bool relevant = demanding != d.demanding ||
                        (deadlineAware && nfu != d.nextFirstUse);
        d.demanding = demanding;
        d.nextFirstUse = nfu;
        return relevant;
    };

    ServerResult result;
    std::vector<double> rates(n, 0.0), appliedRates(n, 0.0);
    std::vector<size_t> actors, retimed, allIdx;
    std::vector<uint8_t> dirty(n, 0);
    std::vector<size_t> dirtyList;
    auto markDirty = [&](size_t i) {
        if (!dirty[i]) {
            dirty[i] = 1;
            dirtyList.push_back(i);
        }
    };
    if (linear) {
        allIdx.resize(n);
        for (size_t i = 0; i < n; ++i)
            allIdx[i] = i;
    }
    // Next cycle the allocator's output could change on its own
    // (aging edges); UINT64_MAX for demand-driven policies.
    uint64_t allocRefreshAt = UINT64_MAX;
    std::deque<size_t> door;
    size_t admittedCount = 0;
    size_t finished = 0;

    // Begin the client's replay epoch at global cycle T: its artifact
    // is at the edge (or the run is cacheless, which models the same
    // thing). Client-local cycle 0 is here, so the SimResult stays
    // solo-comparable whatever delayed the start.
    auto start = [&](size_t i, uint64_t T) {
        ClientRt &rt = rts[i];
        rt.epoch = T;
        rt.out.admitted = T;
        setupClient(rt, i, opts);
        engineAdvance(rt, T);
    };
    // Admission: claim the slot, then either start immediately (cache
    // hit, or no cache) or hold the client in FetchWait — slot kept —
    // until the origin uplink delivers its artifact.
    auto admit = [&](size_t i, uint64_t T) {
        ClientRt &rt = rts[i];
        ++admittedCount;
        if (opts.edgeCache) {
            EdgeCache::Request rq = opts.edgeCache->request(
                *rt.spec->ctx, rt.spec->config, T);
            rt.out.cacheHit = rq.hit;
            if (!rq.hit) {
                rt.phase = ClientRt::Phase::FetchWait;
                rt.fetch = rq.fetch;
                rt.fetchStart = T;
                return;
            }
        }
        start(i, T);
    };

    while (finished < n) {
        // Next global event: the earliest client candidate (arrival,
        // first-use instant, blocked crossing bound, engine event)
        // or the allocator's own refresh edge.
        uint64_t T = allocRefreshAt;
        actors.clear();
        if (linear) {
            for (const ClientRt &rt : rts)
                T = std::min({T, rt.nextAction, rt.nextEngineEv});
            if (T != UINT64_MAX) {
                // Candidates are exact, so equality is the
                // membership test.
                for (size_t i = 0; i < n; ++i) {
                    if (rts[i].phase != ClientRt::Phase::Finished &&
                        (rts[i].nextAction == T ||
                         rts[i].nextEngineEv == T)) {
                        actors.push_back(i);
                    }
                }
            }
        } else {
            // Pop every client whose candidate is T: the exact actor
            // set, already in index order (the heap breaks ties by
            // client).
            T = std::min(T, heap.top());
            while (T != UINT64_MAX && heap.top() == T)
                actors.push_back(heap.pop());
        }
        if (T == UINT64_MAX) {
            fatal("server event loop stalled with ", n - finished,
                  " unfinished clients (a blocked client can never "
                  "make progress)");
        }
        ++result.events;

        // Integrate every acting engine to T under the rates in
        // effect since the previous event.
        for (size_t i : actors)
            if (rts[i].run && !draining(rts[i]))
                engineAdvance(rts[i], T);

        // Client-level transitions, in index order: arrivals first
        // (so a client arriving at T competes for bandwidth from T
        // on), then replay progress for everyone due.
        for (size_t i : actors) {
            ClientRt &rt = rts[i];
            if (rt.phase == ClientRt::Phase::Pending) {
                if (opts.admissionLimit != 0 &&
                    admittedCount >= opts.admissionLimit) {
                    rt.phase = ClientRt::Phase::AtDoor;
                    door.push_back(i);
                    continue;
                }
                admit(i, T);
            }
            if (rt.phase == ClientRt::Phase::FetchWait) {
                opts.edgeCache->advanceTo(T);
                if (!opts.edgeCache->fetchReady(rt.fetch))
                    continue; // early wake: recomputed candidates
                              // below re-arm the next poll
                rt.out.cacheWait = T - rt.fetchStart;
                rt.fetch = -1;
                start(i, T);
            }
            progressClient(rt, T);
            if (rt.phase == ClientRt::Phase::Finished) {
                ++finished;
                --admittedCount;
            }
        }
        // Freed slots admit from the door, in arrival (= index)
        // order, at this same instant.
        while (!door.empty() &&
               (opts.admissionLimit == 0 ||
                admittedCount < opts.admissionLimit)) {
            size_t i = door.front();
            door.pop_front();
            admit(i, T);
            progressClient(rts[i], T);
            if (rts[i].phase == ClientRt::Phase::Finished) {
                ++finished;
                --admittedCount;
            }
            actors.push_back(i);
        }

        // Incremental demand: refresh only touched clients, and call
        // the allocator only when its output could actually change.
        // (Linear-scan reference: refresh all, allocate always.)
        bool needAlloc = linear || T >= allocRefreshAt;
        if (linear) {
            for (size_t i = 0; i < n; ++i)
                refreshDemand(i);
        } else {
            for (size_t i : actors)
                markDirty(i);
            for (size_t i : dirtyList) {
                if (refreshDemand(i))
                    needAlloc = true;
                dirty[i] = 0;
            }
            dirtyList.clear();
        }

        retimed.clear();
        if (needAlloc) {
            rates.assign(n, 0.0);
            opts.allocator->allocate(opts.uplinkBytesPerCycle, T,
                                     demands, rates);
            ++result.allocatorRuns;
            allocRefreshAt = opts.allocator->nextRefresh(T, demands);
            bool vecChanged = false;
            for (size_t i = 0; i < n; ++i)
                if (!nearlyEqualRate(rates[i], appliedRates[i]))
                    vecChanged = true;
            if (vecChanged) {
                ++result.allocationIntervals;
                if (opts.allocationProbe)
                    opts.allocationProbe(T, rates);
                appliedRates = rates;
                // Apply changed shares: advance the engine to T
                // first so the new rate only governs cycles after T.
                for (size_t i = 0; i < n; ++i) {
                    ClientRt &rt = rts[i];
                    if (!rt.run || rt.phase == ClientRt::Phase::Finished)
                        continue;
                    double nominal = demands[i].nominalRate;
                    double mult = nominal > 0.0 ? rates[i] / nominal : 0.0;
                    if (!demands[i].demanding)
                        mult = rt.mult; // idle engine: keep the share
                    if (!nearlyEqualRate(mult, rt.mult)) {
                        rt.mult = mult;
                        retimed.push_back(i);
                    }
                }
                result.enginesRetimed += retimed.size();
                for (size_t i : retimed) {
                    engineAdvance(rts[i], T);
                    rts[i].run->engine().setExternalRate(rts[i].mult);
                }
                // A retimed engine may have completed streams while
                // advancing: its demand must be re-read next event.
                if (!linear)
                    for (size_t i : retimed)
                        markDirty(i);
            }
        }

        // Refresh candidates for every touched client (retimed ones
        // under their new rate) and re-key them.
        for (size_t i : retimed)
            actors.push_back(i);
        std::sort(actors.begin(), actors.end());
        actors.erase(std::unique(actors.begin(), actors.end()),
                     actors.end());
        for (size_t i : actors)
            computeCandidates(rts[i], opts.edgeCache);
        if (!linear)
            for (size_t i : actors)
                heap.set(i, candidateOf(rts[i]));
    }

    result.clients.reserve(n);
    for (ClientRt &rt : rts) {
        result.makespan = std::max(result.makespan, rt.out.finished);
        result.clients.push_back(std::move(rt.out));
    }
    return result;
}

} // namespace nse
