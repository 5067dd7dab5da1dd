#include "transfer/schedule.h"

#include <algorithm>

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
            if (first) {
                // The entry class leads the transfer (paper §3: the
                // class containing main transfers first).
                place(s, 0);
                first = false;
            } else {
                place(s, chooseStart(s));
            }
        }
        TransferSchedule schedule;
        schedule.startCycle = starts_;
        return schedule;
    }

  private:
    /** Prefix arrivals of all placed streams plus `extra` (or -1). */
    std::vector<uint64_t>
    simulateArrivals(int extra, uint64_t extra_start)
    {
        TransferEngine engine(link_.cyclesPerByte, limit_);
        std::vector<int> watched;
        for (size_t i = 0; i < layout_.streams.size(); ++i) {
            engine.addStream(layout_.streams[i].name,
                             layout_.streams[i].totalBytes);
            uint64_t start = starts_[i];
            if (extra == static_cast<int>(i))
                start = extra_start;
            if (start != UINT64_MAX) {
                engine.scheduleStart(static_cast<int>(i), start);
                engine.setWatch(static_cast<int>(i),
                                demand_.prefixBytes[i]);
                watched.push_back(static_cast<int>(i));
            }
        }
        engine.runWatches();
        std::vector<uint64_t> arrivals(layout_.streams.size(),
                                       UINT64_MAX);
        for (int w : watched)
            arrivals[static_cast<size_t>(w)] = engine.watchedArrival(w);
        return arrivals;
    }

    /** True when no placed stream is pushed past its commitment. */
    bool
    commitmentsHold(const std::vector<uint64_t> &arrivals) const
    {
        for (size_t i = 0; i < arrivals.size(); ++i) {
            if (commitment_[i] != UINT64_MAX &&
                arrivals[i] > commitment_[i]) {
                return false;
            }
        }
        return true;
    }

    /**
     * Dependency trigger (paper's runtime rule): the cycle at which
     * every earlier class has delivered the bytes this class needs
     * before its first use.
     */
    uint64_t
    trigger(int s)
    {
        TransferEngine engine(link_.cyclesPerByte, limit_);
        for (size_t i = 0; i < layout_.streams.size(); ++i) {
            engine.addStream(layout_.streams[i].name,
                             layout_.streams[i].totalBytes);
            if (starts_[i] != UINT64_MAX)
                engine.scheduleStart(static_cast<int>(i), starts_[i]);
        }
        uint64_t t = 0;
        for (auto &[d, bytes] : demand_.deps[static_cast<size_t>(s)])
            t = engine.waitFor(d, bytes, t);
        return t;
    }

    uint64_t
    chooseStart(int s)
    {
        auto si = static_cast<size_t>(s);
        uint64_t deadline = demand_.deadline[si];
        uint64_t trig = trigger(s);

        // Two monotone constraints pull in opposite directions:
        // meeting this class's own deadline favours *early* starts,
        // while not disturbing placed classes' commitments favours
        // *late* starts — the feasible region is an interval.
        auto safe = [&](uint64_t start) {
            return commitmentsHold(simulateArrivals(s, start));
        };
        auto meets_deadline = [&](uint64_t start) {
            return simulateArrivals(s, start)[si] <= deadline;
        };

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
        if (safe(trig) && meets_deadline(trig))
            return trig;

        // Deadline pull-in (the paper's Figure 4: B starts before A
        // when that is the only way Bar_B arrives in time): the
        // latest deadline-meeting start; accept it when it is also
        // commitment-safe (the upper end of the feasible interval).
        if (meets_deadline(0)) {
            uint64_t lo = 0;
            uint64_t hi = deadline;
            while (lo < hi) {
                uint64_t mid = lo + (hi - lo + 1) / 2;
                if (meets_deadline(mid))
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
    place(int s, uint64_t start)
    {
        auto si = static_cast<size_t>(s);
        starts_[si] = start;
        std::vector<uint64_t> arrivals = simulateArrivals(-1, 0);
        uint64_t deadline = demand_.deadline[si];
        // Achieved arrivals get 10% slack: a later urgent class may
        // overlap this one a little (the paper's Figure 4, where B
        // starts before A finishes) but may not materially delay it.
        // Saturating: a placed stream whose prefix lands near the end
        // of the cycle range (a never-finishing stream on an absurdly
        // slow link) must commit to "never", not wrap to "now".
        uint64_t achieved = satAdd(arrivals[si], arrivals[si] / 10);
        commitment_[si] = (deadline == UINT64_MAX)
                              ? achieved
                              : std::max(deadline, achieved);
    }

    const TransferLayout &layout_;
    const StreamDemand &demand_;
    const LinkModel &link_;
    int limit_;
    std::vector<uint64_t> starts_;
    std::vector<uint64_t> commitment_;
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
