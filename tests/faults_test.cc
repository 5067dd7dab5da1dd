/**
 * @file
 * Link-behavior layer tests: bandwidth-trace segments and validation,
 * seeded burst/drop generation determinism, retry/backoff arithmetic,
 * and the transfer engine's piecewise-rate integration — exact
 * timings under rate steps, suspend/resume around connection drops,
 * resume-from-offset, slot retention while retrying, degraded-cycle
 * accounting, and byte-identical equivalence of an all-nominal plan
 * with the constant-rate engine.
 */

#include <gtest/gtest.h>

#include <limits>

#include "support/error.h"
#include "transfer/engine.h"
#include "transfer/faults.h"

namespace nse
{
namespace
{

constexpr double kCpb = 100.0; // simple round link: 100 cycles/byte

// ---------------------------------------------------------------- trace

/** Expect `t` to consist of exactly the segments `want`. */
void
expectSegments(const BandwidthTrace &t,
               const std::vector<RateSegment> &want)
{
    const std::vector<RateSegment> &got = t.segments();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].startCycle, want[i].startCycle) << i;
        EXPECT_DOUBLE_EQ(got[i].multiplier, want[i].multiplier) << i;
    }
}

TEST(Trace, DefaultIsNominal)
{
    BandwidthTrace t;
    EXPECT_TRUE(t.nominal());
    EXPECT_TRUE(t.segments().empty());
}

TEST(Trace, StepLookup)
{
    BandwidthTrace t = BandwidthTrace::step(1'000, 0.5);
    EXPECT_FALSE(t.nominal());
    expectSegments(t, {{0, 1.0}, {1'000, 0.5}});
}

TEST(Trace, StepAtZeroIsSingleSegment)
{
    expectSegments(BandwidthTrace::step(0, 0.25), {{0, 0.25}});
}

TEST(Trace, ValidationRejectsBadSegments)
{
    EXPECT_THROW(BandwidthTrace(std::vector<RateSegment>{}), FatalError);
    EXPECT_THROW(BandwidthTrace({{5, 1.0}}), FatalError); // not at 0
    EXPECT_THROW(BandwidthTrace({{0, 1.0}, {10, -0.5}}),
                 FatalError); // negative multiplier
    EXPECT_THROW(BandwidthTrace({{0, 1.0}, {10, 0.5}, {10, 1.0}}),
                 FatalError); // not strictly sorted
}

TEST(Trace, ValidationRejectsNonFiniteMultipliers)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double bad : {inf, -inf, nan}) {
        EXPECT_THROW(BandwidthTrace({{0, bad}}), FatalError) << bad;
        EXPECT_THROW(BandwidthTrace({{0, 1.0}, {10, bad}}), FatalError)
            << bad;
        EXPECT_THROW(BandwidthTrace::step(10, bad), FatalError) << bad;
        EXPECT_THROW(BandwidthTrace::bursts(7, 10'000, bad, 100'000),
                     FatalError)
            << bad;
    }
}

TEST(Trace, ZeroMultiplierIsLegalOutage)
{
    // A full outage window is a valid trace segment (it used to be
    // rejected; the engine now treats it as rate 0 until the next
    // change point).
    BandwidthTrace t({{0, 1.0}, {10, 0.0}, {20, 1.0}});
    expectSegments(t, {{0, 1.0}, {10, 0.0}, {20, 1.0}});
}

TEST(Trace, BurstsAreDeterministicAndWellFormed)
{
    BandwidthTrace a = BandwidthTrace::bursts(7, 10'000, 0.5, 100'000);
    BandwidthTrace b = BandwidthTrace::bursts(7, 10'000, 0.5, 100'000);
    ASSERT_EQ(a.segments().size(), b.segments().size());
    for (size_t i = 0; i < a.segments().size(); ++i) {
        EXPECT_EQ(a.segments()[i].startCycle, b.segments()[i].startCycle);
        EXPECT_DOUBLE_EQ(a.segments()[i].multiplier,
                         b.segments()[i].multiplier);
    }
    // Alternates nominal/degraded, returns to nominal past the horizon.
    for (const RateSegment &s : a.segments()) {
        EXPECT_TRUE(s.multiplier == 1.0 || s.multiplier == 0.5);
    }
    EXPECT_DOUBLE_EQ(a.segments().back().multiplier, 1.0);
    EXPECT_GE(a.segments().back().startCycle, 100'000u);
    // A different seed gives a different trace.
    BandwidthTrace c = BandwidthTrace::bursts(8, 10'000, 0.5, 100'000);
    bool differs = c.segments().size() != a.segments().size();
    for (size_t i = 0; !differs && i < a.segments().size(); ++i)
        differs = a.segments()[i].startCycle != c.segments()[i].startCycle;
    EXPECT_TRUE(differs);
}

// ------------------------------------------------------------ fault plan

TEST(Plan, DefaultIsNominal)
{
    FaultPlan p;
    EXPECT_TRUE(p.nominal());
    EXPECT_TRUE(p.dropsFor(0, 1 << 20).empty());
}

TEST(Plan, RetryDelayBacksOffExponentially)
{
    FaultPlan p;
    p.retryTimeoutCycles = 100;
    p.backoffFactor = 2.0;
    EXPECT_EQ(p.retryDelay(1), 100u);
    EXPECT_EQ(p.retryDelay(2), 300u);  // 100 + 200
    EXPECT_EQ(p.retryDelay(3), 700u);  // 100 + 200 + 400
}

TEST(Plan, SeededDropsAreDeterministicAndInterior)
{
    FaultPlan p;
    p.dropSeed = 123;
    p.dropsPerMByte = 64.0; // dense, so the stream surely gets some
    p.maxAttempts = 3;
    uint64_t total = 1 << 20;
    std::vector<DropEvent> a = p.dropsFor(2, total);
    std::vector<DropEvent> b = p.dropsFor(2, total);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    uint64_t prev = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].offsetBytes, b[i].offsetBytes);
        EXPECT_EQ(a[i].attempts, b[i].attempts);
        EXPECT_GT(a[i].offsetBytes, prev);
        EXPECT_LT(a[i].offsetBytes, total);
        EXPECT_GE(a[i].attempts, 1);
        EXPECT_LE(a[i].attempts, 3);
        prev = a[i].offsetBytes;
    }
    // Streams are decorrelated.
    std::vector<DropEvent> other = p.dropsFor(3, total);
    bool differs = other.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].offsetBytes != other[i].offsetBytes;
    EXPECT_TRUE(differs);
}

TEST(Plan, ForcedDropsValidated)
{
    FaultPlan p;
    p.forcedDrops = {{{0, 1}}};
    EXPECT_FALSE(p.nominal());
    EXPECT_THROW(p.dropsFor(0, 100), FatalError); // offset 0 not interior
    p.forcedDrops = {{{100, 1}}};
    EXPECT_THROW(p.dropsFor(0, 100), FatalError); // offset == end
    p.forcedDrops = {{{50, 1}, {40, 1}}};
    EXPECT_THROW(p.dropsFor(0, 100), FatalError); // not increasing
    p.forcedDrops = {{{40, 1}, {50, 2}}};
    EXPECT_EQ(p.dropsFor(0, 100).size(), 2u);
    EXPECT_TRUE(p.dropsFor(1, 100).empty()); // uncovered stream
}

// ----------------------------------------- engine under variable rate

TEST(FaultedEngine, StepTraceExactTiming)
{
    // 1000 B at 100 c/B; bandwidth halves at cycle 50'000: the first
    // 500 B land by 50'000, the rest at 200 c/B take 100'000 more.
    FaultPlan p;
    p.trace = BandwidthTrace::step(50'000, 0.5);
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    EXPECT_EQ(e.waitFor(s, 500, 0), 50'000u);
    EXPECT_EQ(e.waitFor(s, 750, 0), 100'000u);
    EXPECT_EQ(e.waitFor(s, 1000, 0), 150'000u);
    EXPECT_EQ(e.stream(s).finishedAt, 150'000u);
}

TEST(FaultedEngine, WatchExactAcrossRateChange)
{
    FaultPlan p;
    p.trace = BandwidthTrace::step(50'000, 0.5);
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    e.setWatch(s, 750);
    e.runWatches();
    EXPECT_EQ(e.watchedArrival(s), 100'000u);
}

TEST(FaultedEngine, RecoveredTraceReturnsToNominalRate)
{
    // Degraded to 0.5 only inside [20'000, 40'000): 1000 B stream.
    // 200 B by 20'000, then 100 B over the slow window, then 700 B at
    // nominal: 40'000 + 70'000.
    FaultPlan p;
    p.trace = BandwidthTrace(
        {{0, 1.0}, {20'000, 0.5}, {40'000, 1.0}});
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    EXPECT_EQ(e.waitFor(s, 1000, 0), 110'000u);
    EXPECT_EQ(e.degradedCycles(), 20'000u);
}

TEST(FaultedEngine, DropSuspendsThenResumesFromOffset)
{
    // Drop at byte 500 with one attempt and a 10'000-cycle timeout:
    // 500 B by 50'000, suspended until 60'000, rest by 110'000.
    FaultPlan p;
    p.retryTimeoutCycles = 10'000;
    p.forcedDrops = {{{500, 1}}};
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    e.advanceTo(55'000); // mid-suspension
    EXPECT_EQ(e.stream(s).state, StreamState::Suspended);
    EXPECT_DOUBLE_EQ(e.stream(s).arrivedBytes, 500.0); // kept, not resent
    EXPECT_EQ(e.waitFor(s, 1000, 55'000), 110'000u);
    EXPECT_EQ(e.retryCount(), 1u);
    EXPECT_EQ(e.degradedCycles(), 10'000u);
}

TEST(FaultedEngine, BackoffAccumulatesAcrossAttempts)
{
    // Three failed attempts: 1'000 + 2'000 + 4'000 = 7'000 suspended.
    FaultPlan p;
    p.retryTimeoutCycles = 1'000;
    p.forcedDrops = {{{500, 3}}};
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    EXPECT_EQ(e.waitFor(s, 1000, 0), 107'000u);
    EXPECT_EQ(e.retryCount(), 3u);
}

TEST(FaultedEngine, SuspendedStreamKeepsItsSlot)
{
    // maxConcurrent=1: a drops at byte 50; b must NOT sneak into a's
    // slot during the retry window — the paper's HTTP connection is
    // being retried, not closed.
    FaultPlan p;
    p.retryTimeoutCycles = 20'000;
    p.forcedDrops = {{{50, 1}}};
    TransferEngine e(kCpb, 1, p);
    int a = e.addStream("a", 100);
    int b = e.addStream("b", 100);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    // a: 50 B by 5'000, suspended to 25'000, done at 30'000.
    EXPECT_EQ(e.waitFor(a, 100, 0), 30'000u);
    EXPECT_EQ(e.stream(b).startedAt, 30'000u);
    EXPECT_EQ(e.waitFor(b, 100, 0), 40'000u);
}

TEST(FaultedEngine, SharedBandwidthDuringSuspension)
{
    // Unlimited slots: while a is suspended, b gets the whole link.
    FaultPlan p;
    p.retryTimeoutCycles = 30'000;
    p.forcedDrops = {{{100, 1}}};
    TransferEngine e(kCpb, -1, p);
    int a = e.addStream("a", 200);
    int b = e.addStream("b", 1000);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    // Half speed both: a hits its drop at byte 100 at cycle 20'000
    // (b at 100 B). b alone until 50'000 (+300 B). Then shared again.
    EXPECT_EQ(e.waitFor(a, 200, 0), 70'000u);
    // b at 50'000 has 400 B; shared to 70'000 adds 100 B; alone for
    // the last 500 B: 70'000 + 50'000.
    EXPECT_EQ(e.waitFor(b, 1000, 0), 120'000u);
}

TEST(FaultedEngine, DemandStartDuringDegradedWindow)
{
    FaultPlan p;
    p.trace = BandwidthTrace::step(0, 0.5); // permanently halved
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 100);
    e.demandStart(s, 10'000);
    EXPECT_EQ(e.waitFor(s, 100, 10'000), 30'000u); // 100 B at 200 c/B
    EXPECT_EQ(e.degradedCycles(), 20'000u);
}

// ------------------------------------------- zero-bandwidth outages

TEST(FaultedEngine, ZeroBandwidthWindowPausesTransfer)
{
    // 1000 B at 100 c/B with a full outage in [30'000, 80'000): 300 B
    // land before the outage, nothing moves inside it, and the
    // remaining 700 B take 70'000 cycles after it — no ceil(x/0)
    // anywhere (the regression this pins ran that division and cast
    // the resulting infinity, which is UB).
    FaultPlan p;
    p.trace = BandwidthTrace({{0, 1.0}, {30'000, 0.0}, {80'000, 1.0}});
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    EXPECT_EQ(e.waitFor(s, 300, 0), 30'000u);
    // Waits that land inside the window resolve at its far edge.
    EXPECT_EQ(e.waitFor(s, 301, 0), 80'100u);
    EXPECT_EQ(e.waitFor(s, 1000, 0), 150'000u);
    EXPECT_EQ(e.degradedCycles(), 50'000u);
    EXPECT_EQ(e.retryCount(), 0u);
}

TEST(FaultedEngine, AdvanceToAcrossOutageWindow)
{
    // advanceTo must step over the outage without estimating a
    // completion at rate 0.
    FaultPlan p;
    p.trace = BandwidthTrace({{0, 1.0}, {10'000, 0.0}, {20'000, 1.0}});
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    e.advanceTo(15'000); // mid-outage
    EXPECT_DOUBLE_EQ(e.stream(s).arrivedBytes, 100.0);
    e.advanceTo(30'000);
    EXPECT_DOUBLE_EQ(e.stream(s).arrivedBytes, 200.0);
    EXPECT_EQ(e.finishAll(), 110'000u);
}

TEST(FaultedEngine, WatchCrossingDefersPastOutage)
{
    FaultPlan p;
    p.trace = BandwidthTrace({{0, 1.0}, {5'000, 0.0}, {9'000, 1.0}});
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    e.setWatch(s, 60); // 50 B by 5'000; 10 more only after 9'000
    e.runWatches();
    EXPECT_EQ(e.watchedArrival(s), 10'000u);
}

TEST(FaultedEngine, PermanentOutageIsFatalNotUB)
{
    // A trace ending in a 0-multiplier segment never delivers another
    // byte: waiting must die with the "never transfer" diagnostic
    // instead of dividing by zero or spinning.
    FaultPlan p;
    p.trace = BandwidthTrace({{0, 1.0}, {10'000, 0.0}});
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    EXPECT_EQ(e.waitFor(s, 100, 0), 10'000u); // delivered pre-outage
    EXPECT_THROW(e.waitFor(s, 101, 0), FatalError);
}

TEST(FaultedEngine, OutageOverlappingRetryWindow)
{
    // A drop whose retry resolves inside an outage window: the stream
    // resumes its slot at the retry cycle but moves no bytes until
    // bandwidth returns.
    FaultPlan p;
    p.retryTimeoutCycles = 10'000;
    p.forcedDrops = {{{500, 1}}};
    p.trace = BandwidthTrace({{0, 1.0}, {55'000, 0.0}, {90'000, 1.0}});
    TransferEngine e(kCpb, -1, p);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    // 500 B by 50'000, drop, retry resolves at 60'000 (mid-outage),
    // bytes resume at 90'000, last 500 B by 140'000.
    EXPECT_EQ(e.waitFor(s, 1000, 0), 140'000u);
    EXPECT_EQ(e.retryCount(), 1u);
}

// ----------------------------------------------- nominal equivalence

TEST(FaultedEngine, AllNominalPlanMatchesConstantRateEngine)
{
    // The same mixed scenario (schedules, queueing, demand start,
    // watches) through the legacy constructor and through an explicit
    // all-1.0-trace plan must agree cycle-for-cycle.
    FaultPlan unity;
    unity.trace = BandwidthTrace({{0, 1.0}, {33'333, 1.0}});
    TransferEngine plain(kCpb, 2);
    TransferEngine faulted(kCpb, 2, unity);
    for (TransferEngine *e : {&plain, &faulted}) {
        int a = e->addStream("a", 700);
        int b = e->addStream("b", 300);
        int c = e->addStream("c", 500);
        e->scheduleStart(a, 0);
        e->scheduleStart(b, 2'000);
        e->setWatch(a, 350);
        e->setWatch(c, 100);
        e->advanceTo(10'000);
        e->demandStart(c, 4'000); // stale now, queued behind the limit
        e->finishAll();
    }
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(plain.stream(i).startedAt, faulted.stream(i).startedAt);
        EXPECT_EQ(plain.stream(i).finishedAt,
                  faulted.stream(i).finishedAt);
        EXPECT_EQ(plain.watchedArrival(i), faulted.watchedArrival(i));
    }
    EXPECT_EQ(plain.time(), faulted.time());
    EXPECT_EQ(faulted.retryCount(), 0u);
    EXPECT_EQ(faulted.degradedCycles(), 0u);
}

} // namespace
} // namespace nse
