/**
 * @file
 * Transfer-scheduler tests: demand derivation (prefixes, deadlines,
 * dependencies) and the greedy placer's guarantees — entry-class
 * priority, deadline pull-in (the paper's Figure 4), commitment
 * protection, and never-used classes trailing — plus a digest of
 * every start cycle over the workloads' configuration grid.
 */

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <random>

#include "sim/context.h"
#include "support/error.h"
#include "support/fnv1a.h"
#include "support/saturate.h"
#include "transfer/engine.h"
#include "transfer/schedule.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

/**
 * The paper's Figure 4 program shape: A.main runs for a long time and
 * then calls B.bar; B must complete its prefix before that moment.
 */
struct Fig4
{
    Program prog;
    FirstUseOrder order;
    TransferLayout layout;
    std::vector<uint64_t> methodCycles;

    Fig4()
    {
        ProgramBuilder pb;
        ClassBuilder &a = pb.addClass("A");
        MethodBuilder &main = a.addMethod("main", "()V");
        // A statically long straight-line compute section before the
        // cross-class call: the static estimator counts each
        // instruction once, so the predicted call time must come from
        // real static code, not loop trip counts.
        for (int k = 0; k < 30'000; ++k) {
            main.pushInt(1);
            main.emit(Opcode::POP);
        }
        main.pushInt(5);
        main.invokeStatic("B", "bar", "(I)I");
        main.emit(Opcode::POP);
        main.emit(Opcode::RETURN);

        ClassBuilder &b = pb.addClass("B");
        MethodBuilder &bar = b.addMethod("bar", "(I)I");
        bar.iload(0);
        bar.emit(Opcode::IRETURN);
        // Dead weight behind bar so B's prefix < B's size.
        MethodBuilder &rest = b.addMethod("rest", "()V");
        rest.setLocalDataSize(4000);
        rest.emit(Opcode::RETURN);

        prog = pb.build("A");
        order = staticFirstUse(prog);
        layout = makeParallelLayout(prog, order, nullptr);
        methodCycles = staticFirstUseCycles(prog, order);
    }
};

TEST(StreamDemand, PrefixesAndDeadlines)
{
    Fig4 f;
    StreamDemand d = deriveStreamDemand(f.prog, f.order, f.layout,
                                        f.methodCycles);
    auto a = static_cast<size_t>(f.prog.classIndex("A"));
    auto b = static_cast<size_t>(f.prog.classIndex("B"));

    // Stream order follows first use: A before B.
    ASSERT_EQ(d.streamOrder.size(), 2u);
    EXPECT_EQ(d.streamOrder[0], static_cast<int>(a));
    EXPECT_EQ(d.streamOrder[1], static_cast<int>(b));

    // A's prefix covers main; B's prefix covers only bar, not rest.
    EXPECT_EQ(d.prefixBytes[a],
              f.layout.of(f.prog.entry()).availOffset);
    MethodId bar = f.prog.resolveStatic("B", "bar", "(I)I");
    EXPECT_EQ(d.prefixBytes[b], f.layout.of(bar).availOffset);
    EXPECT_LT(d.prefixBytes[b], f.layout.streams[b].totalBytes);

    // Entry deadline is 0; B's deadline is after main's long body.
    EXPECT_EQ(d.deadline[a], 0u);
    EXPECT_GT(d.deadline[b], 500'000u);

    // B depends on A for the bytes used before bar.
    ASSERT_EQ(d.deps[b].size(), 1u);
    EXPECT_EQ(d.deps[b][0].first, static_cast<int>(a));
    EXPECT_EQ(d.deps[b][0].second, d.prefixBytes[a]);
    EXPECT_TRUE(d.deps[a].empty());
}

TEST(StaticCycles, MonotoneAndUnusedUnbounded)
{
    Fig4 f;
    ASSERT_EQ(f.methodCycles.size(), f.order.order.size());
    EXPECT_EQ(f.methodCycles[0], 0u);
    for (size_t i = 1; i < f.order.usedCount; ++i)
        EXPECT_GE(f.methodCycles[i], f.methodCycles[i - 1]);
    for (size_t i = f.order.usedCount; i < f.methodCycles.size(); ++i)
        EXPECT_EQ(f.methodCycles[i], UINT64_MAX);
}

TEST(Greedy, EntryClassStartsAtZero)
{
    Fig4 f;
    StreamDemand d = deriveStreamDemand(f.prog, f.order, f.layout,
                                        f.methodCycles);
    TransferSchedule s =
        buildGreedySchedule(f.layout, d, kT1Link, 4);
    auto a = static_cast<size_t>(f.prog.classIndex("A"));
    EXPECT_EQ(s.startCycle[a], 0u);
}

TEST(Greedy, EntryPrefixNeverDelayed)
{
    // Whatever else is scheduled, the entry class's needed prefix must
    // arrive exactly as fast as it would alone (commitment rule).
    Fig4 f;
    StreamDemand d = deriveStreamDemand(f.prog, f.order, f.layout,
                                        f.methodCycles);
    for (int limit : {1, 2, 4, -1}) {
        TransferSchedule s =
            buildGreedySchedule(f.layout, d, kModemLink, limit);
        TransferEngine e(kModemLink.cyclesPerByte, limit);
        for (size_t i = 0; i < f.layout.streams.size(); ++i) {
            e.addStream(f.layout.streams[i].name,
                        f.layout.streams[i].totalBytes);
            e.scheduleStart(static_cast<int>(i), s.startCycle[i]);
        }
        auto a = static_cast<size_t>(f.prog.classIndex("A"));
        uint64_t arrival =
            e.waitFor(static_cast<int>(a), d.prefixBytes[a], 0);
        uint64_t solo = static_cast<uint64_t>(
            std::ceil(static_cast<double>(d.prefixBytes[a]) *
                      kModemLink.cyclesPerByte));
        // Within the scheduler's 10% commitment slack of going alone.
        EXPECT_GE(arrival, solo) << "limit " << limit;
        EXPECT_LE(arrival, solo + solo / 10 + 1) << "limit " << limit;
    }
}

TEST(Greedy, DeadlinePullInMeetsFeasibleDeadline)
{
    // On the fast T1 link, B's prefix is small and main's loop is
    // long: the schedule must deliver bar before main calls it.
    Fig4 f;
    StreamDemand d = deriveStreamDemand(f.prog, f.order, f.layout,
                                        f.methodCycles);
    TransferSchedule s = buildGreedySchedule(f.layout, d, kT1Link, 4);

    auto b = static_cast<size_t>(f.prog.classIndex("B"));
    TransferEngine e(kT1Link.cyclesPerByte, 4);
    for (size_t i = 0; i < f.layout.streams.size(); ++i) {
        e.addStream(f.layout.streams[i].name,
                    f.layout.streams[i].totalBytes);
        e.scheduleStart(static_cast<int>(i), s.startCycle[i]);
    }
    uint64_t arrival =
        e.waitFor(static_cast<int>(b), d.prefixBytes[b], 0);
    // The static estimate of main's runtime before the call:
    EXPECT_LE(arrival, d.deadline[b]);
}

TEST(Greedy, NeverUsedClassesTrail)
{
    ProgramBuilder pb;
    ClassBuilder &a = pb.addClass("A");
    MethodBuilder &main = a.addMethod("main", "()V");
    main.emit(Opcode::RETURN);
    ClassBuilder &dead = pb.addClass("DeadLib");
    MethodBuilder &d0 = dead.addMethod("d0", "()V");
    d0.emit(Opcode::RETURN);
    Program prog = pb.build("A");
    FirstUseOrder order = staticFirstUse(prog);
    TransferLayout layout = makeParallelLayout(prog, order, nullptr);
    StreamDemand demand = deriveStreamDemand(
        prog, order, layout, staticFirstUseCycles(prog, order));
    TransferSchedule s = buildGreedySchedule(layout, demand, kT1Link, 4);

    auto ai = static_cast<size_t>(prog.classIndex("A"));
    auto di = static_cast<size_t>(prog.classIndex("DeadLib"));
    // The never-used class starts only after the entry class's needed
    // bytes would have transferred.
    EXPECT_GT(s.startCycle[di], s.startCycle[ai]);
    uint64_t entry_solo = static_cast<uint64_t>(std::ceil(
        static_cast<double>(demand.prefixBytes[ai]) *
        kT1Link.cyclesPerByte));
    EXPECT_GE(s.startCycle[di], entry_solo);
}

TEST(Greedy, CommitmentSaturatesInsteadOfWrapping)
{
    // A placed stream whose needed prefix arrives near the end of the
    // uint64 cycle range (a huge file on a glacial link): its
    // 10%-slack commitment must saturate to "never", not wrap. The
    // wrapped commitment read as "due almost immediately" and forced
    // every later placement's binary search past a phantom window.
    TransferLayout layout;
    layout.streams = {{"entry", 0, 17'000'000'000ull},
                      {"later", 1, 100}};
    StreamDemand d;
    d.streamOrder = {0, 1};
    d.prefixBytes = {17'000'000'000ull, 100};
    d.deadline = {0, UINT64_MAX};
    d.deps.resize(2);

    // 17e9 B x 1e9 c/B ~ 1.7e19 cycles; +10% exceeds UINT64_MAX.
    LinkModel glacial{"glacial", 1e9};
    TransferSchedule s = buildGreedySchedule(layout, d, glacial, -1);
    EXPECT_EQ(s.startCycle[0], 0u);
    // Deadline-free and dependency-free, so its trigger is cycle 0 and
    // the saturated ("never") commitment cannot veto it. The wrapped
    // commitment used to push this start out to ~2.6e17 cycles.
    EXPECT_EQ(s.startCycle[1], 0u);
}

TEST(Greedy, DemandSizeMismatchRejected)
{
    Fig4 f;
    std::vector<uint64_t> wrong(f.order.order.size() + 1, 0);
    EXPECT_THROW(
        deriveStreamDemand(f.prog, f.order, f.layout, wrong),
        FatalError);
}

/**
 * Differential oracle: the greedy placer with every probe rebuilt in
 * full — a fresh engine per probe that re-simulates every
 * placed stream from cycle 0 and runs every watch to its crossing.
 * buildGreedySchedule must choose exactly the same start cycles.
 */
class RebuildPlacer
{
  public:
    RebuildPlacer(const TransferLayout &layout, const StreamDemand &demand,
                  const LinkModel &link, int limit)
        : layout_(layout), demand_(demand), link_(link), limit_(limit)
    {
        starts_.assign(layout.streams.size(), UINT64_MAX);
        commitment_.assign(layout.streams.size(), UINT64_MAX);
    }

    std::vector<uint64_t>
    run()
    {
        bool first = true;
        for (int s : demand_.streamOrder) {
            place(s, first ? 0 : chooseStart(s));
            first = false;
        }
        return starts_;
    }

  private:
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

    bool
    commitmentsHold(const std::vector<uint64_t> &arrivals) const
    {
        for (size_t i = 0; i < arrivals.size(); ++i)
            if (commitment_[i] != UINT64_MAX &&
                arrivals[i] > commitment_[i])
                return false;
        return true;
    }

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
        auto safe = [&](uint64_t start) {
            return commitmentsHold(simulateArrivals(s, start));
        };
        auto meets_deadline = [&](uint64_t start) {
            return simulateArrivals(s, start)[si] <= deadline;
        };

        uint64_t safe_after_trigger = trig;
        if (!safe(trig)) {
            uint64_t lo = trig;
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
        if (safe(trig) && meets_deadline(trig))
            return trig;
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

/** A seeded random placement problem: 2-12 streams of 1 B-6 kB,
 *  prefixes from empty to whole, deadlines from 0 to "never", and
 *  dependencies on random earlier streams. */
void
randomProblem(std::mt19937_64 &rng, TransferLayout &layout,
              StreamDemand &d, double cycles_per_byte)
{
    auto pick = [&](uint64_t lo, uint64_t hi) {
        return std::uniform_int_distribution<uint64_t>(lo, hi)(rng);
    };
    size_t n = pick(2, 12);
    layout.streams.clear();
    for (size_t i = 0; i < n; ++i)
        layout.streams.push_back(
            {"s" + std::to_string(i), static_cast<int>(i), pick(1, 6000)});
    d = StreamDemand{};
    d.streamOrder.resize(n);
    for (size_t i = 0; i < n; ++i)
        d.streamOrder[i] = static_cast<int>(i);
    std::shuffle(d.streamOrder.begin(), d.streamOrder.end(), rng);
    d.prefixBytes.resize(n);
    d.deadline.resize(n);
    d.deps.resize(n);
    // Deadlines span a few times the whole transfer alone.
    auto horizon = static_cast<uint64_t>(
        static_cast<double>(n * 6000) * cycles_per_byte);
    for (size_t k = 0; k < n; ++k) {
        auto s = static_cast<size_t>(d.streamOrder[k]);
        uint64_t total = layout.streams[s].totalBytes;
        uint64_t kind = pick(0, 9);
        d.prefixBytes[s] = kind == 0 ? 0 : kind == 1 ? total
                                                     : pick(1, total);
        kind = pick(0, 9);
        d.deadline[s] = k == 0      ? 0
                        : kind < 2  ? UINT64_MAX
                        : kind == 2 ? pick(0, horizon / 100)
                                    : pick(0, horizon);
        for (size_t j = 0; j < k; ++j) {
            auto e = static_cast<size_t>(d.streamOrder[j]);
            if (pick(0, 2) == 0)
                d.deps[s].emplace_back(
                    static_cast<int>(e),
                    pick(1, layout.streams[e].totalBytes));
        }
    }
}

TEST(Greedy, MatchesRebuildPerProbeReference)
{
    // 250 seeded random layouts x limit {1, 2, 4, unlimited} x both
    // links: every start cycle equals the rebuild-per-probe oracle's.
    std::mt19937_64 rng(20261020);
    for (int trial = 0; trial < 250; ++trial) {
        for (const LinkModel &link : {kT1Link, kModemLink}) {
            TransferLayout layout;
            StreamDemand d;
            randomProblem(rng, layout, d, link.cyclesPerByte);
            for (int limit : {1, 2, 4, 0}) {
                std::vector<uint64_t> want =
                    RebuildPlacer(layout, d, link, limit).run();
                TransferSchedule got =
                    buildGreedySchedule(layout, d, link, limit);
                ASSERT_EQ(got.startCycle, want)
                    << "trial " << trial << ", " << link.name
                    << ", limit " << limit;
            }
        }
    }
}

/**
 * Calls f(workload, key, schedule) for every schedule of the pinned
 * grid: six programs x five orderings x {plain, partitioned} x
 * {T1, modem} x limit {1, 2, 4, unlimited} — 480 schedules.
 */
template <class F>
void
forEachPinnedSchedule(F f)
{
    for (const Workload &wl : allWorkloads()) {
        SimContext ctx(wl.program, wl.natives, wl.trainInput,
                       wl.testInput, "");
        for (OrderingSource src :
             {OrderingSource::Static, OrderingSource::RtaStatic,
              OrderingSource::Train, OrderingSource::Test,
              OrderingSource::MustUse}) {
            for (bool partitioned : {false, true}) {
                for (const LinkModel &link : {kT1Link, kModemLink}) {
                    for (int limit : {1, 2, 4, 0}) {
                        ScheduleKey key;
                        key.layout.ordering = src;
                        key.layout.partitioned = partitioned;
                        key.cyclesPerByte = link.cyclesPerByte;
                        key.limit = limit;
                        f(wl, key, ctx.schedule(key));
                    }
                }
            }
        }
    }
}

TEST(Greedy, StartCyclesArePinned)
{
    // Every start cycle the greedy placer chooses over the grid.
    // Placer rewrites that make probes cheaper must choose exactly
    // the same starts.
    Fnv1a h;
    size_t schedules = 0;
    forEachPinnedSchedule(
        [&](const Workload &, const ScheduleKey &,
            const TransferSchedule &s) {
            ++schedules;
            h.u64(s.startCycle.size());
            for (uint64_t c : s.startCycle)
                h.u64(c);
        });
    EXPECT_EQ(schedules, 480u);
    EXPECT_EQ(h.h, 16092631515267748807u);
}

TEST(Greedy, PlacerStepsArePinned)
{
    // Work counter: the engine steps the placer takes for one
    // schedule (Jess, train ordering, plain layout, T1, limit 4).
    Workload wl = makeWorkload("Jess");
    SimContext ctx(wl.program, wl.natives, wl.trainInput, wl.testInput);
    ScheduleKey key;
    key.layout.ordering = OrderingSource::Train;
    key.cyclesPerByte = kT1Link.cyclesPerByte;
    key.limit = 4;
    EXPECT_EQ(ctx.schedule(key).placerSteps, 12309u);
}

} // namespace
} // namespace nse
