#include "transfer/schedule.h"

#include <algorithm>
#include <map>
#include <optional>

#include "bytecode/instruction.h"
#include "support/error.h"
#include "support/saturate.h"
#include "transfer/engine.h"

namespace nse
{

StreamDemand
deriveStreamDemand(const Program &, const FirstUseOrder &order,
                   const TransferLayout &layout,
                   const std::vector<uint64_t> &method_cycles)
{
    NSE_CHECK(method_cycles.size() == order.order.size(),
              "method cycle predictions must parallel the ordering");

    size_t n = layout.streams.size();
    StreamDemand demand;
    demand.prefixBytes.assign(n, 0);
    demand.deadline.assign(n, UINT64_MAX);
    demand.deps.resize(n);

    // Byte high-water per stream as the first-use order unfolds.
    std::vector<uint64_t> highwater(n, 0);
    std::vector<bool> seen(n, false);
    for (size_t i = 0; i < order.order.size(); ++i) {
        const MethodPlacement &pl = layout.of(order.order[i]);
        auto s = static_cast<size_t>(pl.streamIdx);
        if (!seen[s]) {
            seen[s] = true;
            demand.streamOrder.push_back(pl.streamIdx);
            demand.prefixBytes[s] = pl.availOffset;
            demand.deadline[s] = method_cycles[i];
            for (int d : demand.streamOrder) {
                auto di = static_cast<size_t>(d);
                if (di != s && highwater[di] > 0)
                    demand.deps[s].emplace_back(d, highwater[di]);
            }
        }
        highwater[s] = std::max(highwater[s], pl.availOffset);
    }
    NSE_ASSERT(demand.streamOrder.size() == n,
               "ordering does not touch every stream");
    return demand;
}

std::vector<uint64_t>
staticFirstUseCycles(const Program &prog, const FirstUseOrder &order)
{
    std::vector<uint64_t> cycles;
    cycles.reserve(order.order.size());
    uint64_t acc = 0;
    for (size_t i = 0; i < order.order.size(); ++i) {
        // A method's predicted first use is after all code placed
        // before it has (statically) executed once; never-used
        // appendices get no deadline.
        cycles.push_back(i < order.usedCount ? acc : UINT64_MAX);
        const MethodInfo &m = prog.method(order.order[i]);
        if (!m.isNative()) {
            for (const Instruction &inst : decodeCode(m.code))
                acc += opcodeInfo(inst.op).cycleCost;
        }
    }
    return cycles;
}

namespace
{

/**
 * Greedy scheduler working state: places one class at a time in
 * first-use order, maintaining per-placed-class *commitments* — the
 * latest acceptable arrival of each placed class's needed prefix
 * (its deadline when it meets it, otherwise the arrival it achieved
 * when placed). A later class may soak up slack but may never push an
 * earlier class past its commitment; in particular nothing may delay
 * the entry class's prefix, whose deadline is cycle 0.
 *
 * Every probe of a candidate start x resumes from a snapshot: before
 * x the placed streams evolve exactly as they do without the
 * candidate, so a probe copies an engine of the placed streams
 * integrated towards x, adds the candidate's start and watch at x
 * (TransferEngine::integrateTo), and steps only as far as its
 * question needs.
 */
class GreedyPlacer
{
  public:
    GreedyPlacer(const TransferLayout &layout, const StreamDemand &demand,
                 const LinkModel &link, int limit)
        : layout_(layout), demand_(demand), link_(link), limit_(limit)
    {
        starts_.assign(layout.streams.size(), UINT64_MAX);
        commitment_.assign(layout.streams.size(), UINT64_MAX);
    }

    TransferSchedule
    run()
    {
        bool first = true;
        for (int s : demand_.streamOrder) {
            beginStream(s);
            // The entry class leads the transfer (paper §3: the class
            // containing main transfers first).
            uint64_t start = first ? 0 : chooseStart();
            first = false;
            place(start);
            endStream();
        }
        TransferSchedule schedule;
        schedule.startCycle = starts_;
        schedule.placerSteps = steps_;
        return schedule;
    }

  private:
    /** The placed streams plus the candidate started at one cycle,
     *  stepped event by event as far as a question needs. */
    struct Probe
    {
        TransferEngine engine;
        /** engine.steps() when it was copied: the snapshot's steps. */
        uint64_t copiedSteps;
        /** Watches of byCommitment_ already crossed in time. */
        size_t checked = 0;
    };

    /** Reset the per-stream state for placing stream `s`: the base
     *  engine of the placed streams, their watches, and no probes. */
    void
    beginStream(int s)
    {
        cand_ = s;
        base_.emplace(link_.cyclesPerByte, limit_);
        for (size_t i = 0; i < layout_.streams.size(); ++i) {
            base_->addStream(layout_.streams[i].name,
                             layout_.streams[i].totalBytes);
            if (starts_[i] != UINT64_MAX) {
                base_->scheduleStart(static_cast<int>(i), starts_[i]);
                base_->setWatch(static_cast<int>(i),
                                demand_.prefixBytes[i]);
            }
        }
    }

    /** Count the work of the finished stream's engines, each
     *  snapshot's steps once. */
    void
    endStream()
    {
        for (auto &[start, p] : probes_)
            steps_ += p.engine.steps() - p.copiedSteps;
        probes_.clear();
        dropCheckpoint();
    }

    void
    dropCheckpoint()
    {
        if (checkpoint_)
            steps_ += checkpoint_->steps();
        checkpoint_.reset();
    }

    /**
     * Every later probe starts at or after `floor`: move the
     * checkpoint through the placed streams' events strictly before
     * it. It stays at an event boundary, a state every probe at or
     * after `floor` passes through, so probes copied from it split no
     * integration segment.
     */
    void
    raiseFloor(uint64_t floor)
    {
        if (checkpoint_ && checkpoint_->time() >= floor)
            dropCheckpoint();
        if (!checkpoint_)
            checkpoint_ = *base_;
        TransferEngine &c = *checkpoint_;
        // Events at the clock first: the next event depends on them.
        c.advanceTo(c.time());
        for (uint64_t ev = c.nextEventTime(); ev < floor;
             ev = c.nextEventTime())
            c.advanceTo(ev);
    }

    /** The probe of the candidate starting at `start`, memoized. */
    Probe &
    probe(uint64_t start)
    {
        auto it = probes_.find(start);
        if (it != probes_.end())
            return it->second;
        const TransferEngine &from =
            checkpoint_ && checkpoint_->time() < start ? *checkpoint_
                                                        : *base_;
        Probe &p =
            probes_.emplace(start, Probe{from, from.steps()}).first->second;
        p.engine.integrateTo(start);
        p.engine.scheduleStart(cand_, start);
        p.engine.setWatch(cand_,
                          demand_.prefixBytes[static_cast<size_t>(cand_)]);
        // Process the events due at `start`, the candidate's start
        // among them.
        p.engine.advanceTo(start);
        return p;
    }

    /** One integration step: to the probe's next event. */
    static void
    step(Probe &p)
    {
        uint64_t ev = p.engine.nextEventTime();
        if (ev == UINT64_MAX)
            fatal("greedy placer: a watched stream will never transfer");
        p.engine.advanceTo(ev);
    }

    /**
     * True when no placed stream is pushed past its commitment.
     * Stops at the first watch crossed past its commitment, or still
     * uncrossed at a time past it: a later crossing lies at or after
     * the clock, so the answer is already known.
     */
    bool
    safe(uint64_t start)
    {
        Probe &p = probe(start);
        for (;;) {
            for (; p.checked < byCommitment_.size(); ++p.checked) {
                auto w = static_cast<size_t>(byCommitment_[p.checked]);
                uint64_t at =
                    p.engine.watchedArrival(static_cast<int>(w));
                if (at == UINT64_MAX && p.engine.time() <= commitment_[w])
                    break;
                if (at > commitment_[w])
                    return false;
            }
            if (p.checked == byCommitment_.size())
                return true;
            step(p);
        }
    }

    /** Does the candidate's prefix arrive by its deadline? Steps only
     *  while it has not, and the clock has not passed the deadline. */
    bool
    meetsDeadline(uint64_t start)
    {
        Probe &p = probe(start);
        uint64_t deadline = demand_.deadline[static_cast<size_t>(cand_)];
        while (p.engine.watchedArrival(cand_) == UINT64_MAX &&
               p.engine.time() <= deadline)
            step(p);
        return p.engine.watchedArrival(cand_) <= deadline;
    }

    /** The candidate's prefix arrival when it starts at `start`. */
    uint64_t
    arrival(uint64_t start)
    {
        Probe &p = probe(start);
        while (p.engine.watchedArrival(cand_) == UINT64_MAX)
            step(p);
        return p.engine.watchedArrival(cand_);
    }

    /**
     * Dependency trigger (paper's runtime rule): the cycle at which
     * every earlier class has delivered the bytes this class needs
     * before its first use.
     */
    uint64_t
    trigger()
    {
        const auto &deps = demand_.deps[static_cast<size_t>(cand_)];
        if (deps.empty())
            return 0;
        TransferEngine engine = *base_;
        uint64_t t = 0;
        for (auto &[d, bytes] : deps)
            t = engine.waitFor(d, bytes, t);
        steps_ += engine.steps();
        return t;
    }

    uint64_t
    chooseStart()
    {
        uint64_t deadline = demand_.deadline[static_cast<size_t>(cand_)];
        uint64_t trig = trigger();

        // Two monotone constraints pull in opposite directions:
        // meeting this class's own deadline favours *early* starts,
        // while not disturbing placed classes' commitments favours
        // *late* starts — the feasible region is an interval.

        // Fallback: the earliest commitment-safe start at or after
        // the trigger (starting later only ever helps the others).
        uint64_t safe_after_trigger = trig;
        if (!safe(trig)) {
            uint64_t lo = trig;
            // Past the last commitment window everything is safe.
            uint64_t hi = satAdd(trig, 1);
            for (uint64_t c : commitment_)
                if (c != UINT64_MAX)
                    hi = std::max(hi, satAdd(c, 1));
            while (lo < hi) {
                raiseFloor(lo);
                uint64_t mid = lo + (hi - lo) / 2;
                if (safe(mid))
                    hi = mid;
                else
                    lo = mid + 1;
            }
            safe_after_trigger = lo;
        }

        if (deadline == UINT64_MAX)
            return safe_after_trigger;

        // Eager start per the paper's runtime trigger rule, when it
        // breaks nothing and still meets the deadline.
        if (safe(trig) && meetsDeadline(trig))
            return trig;

        // Deadline pull-in (the paper's Figure 4: B starts before A
        // when that is the only way Bar_B arrives in time): the
        // latest deadline-meeting start; accept it when it is also
        // commitment-safe (the upper end of the feasible interval).
        if (meetsDeadline(0)) {
            uint64_t lo = 0;
            uint64_t hi = deadline;
            while (lo < hi) {
                raiseFloor(lo);
                uint64_t mid = lo + (hi - lo + 1) / 2;
                if (meetsDeadline(mid))
                    lo = mid;
                else
                    hi = mid - 1;
            }
            if (safe(lo))
                return lo;
        }
        return safe_after_trigger;
    }

    void
    place(uint64_t start)
    {
        auto si = static_cast<size_t>(cand_);
        uint64_t arrived = arrival(start);
        starts_[si] = start;
        uint64_t deadline = demand_.deadline[si];
        // Achieved arrivals get 10% slack: a later urgent class may
        // overlap this one a little (the paper's Figure 4, where B
        // starts before A finishes) but may not materially delay it.
        // Saturating: a placed stream whose prefix lands near the end
        // of the cycle range (a never-finishing stream on an absurdly
        // slow link) must commit to "never", not wrap to "now".
        uint64_t achieved = satAdd(arrived, arrived / 10);
        commitment_[si] = (deadline == UINT64_MAX)
                              ? achieved
                              : std::max(deadline, achieved);
        // A "never" commitment can never be broken: safe() skips it.
        if (commitment_[si] != UINT64_MAX) {
            auto at = std::upper_bound(
                byCommitment_.begin(), byCommitment_.end(),
                commitment_[si], [&](uint64_t c, int w) {
                    return c < commitment_[static_cast<size_t>(w)];
                });
            byCommitment_.insert(at, cand_);
        }
    }

    const TransferLayout &layout_;
    const StreamDemand &demand_;
    const LinkModel &link_;
    int limit_;
    std::vector<uint64_t> starts_;
    std::vector<uint64_t> commitment_;
    /** Placed streams with a finite commitment, earliest first. */
    std::vector<int> byCommitment_;
    /** Engine steps taken so far (TransferSchedule::placerSteps). */
    uint64_t steps_ = 0;

    /** The stream being placed. */
    int cand_ = -1;
    /** The placed streams and their watches at cycle 0. */
    std::optional<TransferEngine> base_;
    /** base_ moved through the events before the search's floor. */
    std::optional<TransferEngine> checkpoint_;
    std::map<uint64_t, Probe> probes_;
};

} // namespace

TransferSchedule
buildGreedySchedule(const TransferLayout &layout,
                    const StreamDemand &demand, const LinkModel &link,
                    int limit)
{
    GreedyPlacer placer(layout, demand, link, limit);
    return placer.run();
}

} // namespace nse
