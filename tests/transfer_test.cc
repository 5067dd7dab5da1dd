/**
 * @file
 * Transfer-engine tests: exact single-stream timing, equal bandwidth
 * sharing, concurrency limits and queueing, demand fetches, waitFor
 * semantics, the watch machinery the scheduler uses, resuming from
 * integrateTo, and a seeded behaviour digest over the whole public
 * surface.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "obs/event.h"
#include "support/error.h"
#include "support/fnv1a.h"
#include "support/rng.h"
#include "transfer/engine.h"
#include "transfer/link.h"

namespace nse
{
namespace
{

constexpr double kCpb = 100.0; // simple round link: 100 cycles/byte

TEST(Engine, SingleStreamExactTiming)
{
    TransferEngine e(kCpb, -1);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    EXPECT_EQ(e.waitFor(s, 500, 0), 50'000u);
    EXPECT_EQ(e.waitFor(s, 1000, 0), 100'000u);
    EXPECT_EQ(e.stream(s).state, StreamState::Done);
    EXPECT_EQ(e.stream(s).finishedAt, 100'000u);
}

TEST(Engine, DelayedStart)
{
    TransferEngine e(kCpb, -1);
    int s = e.addStream("a", 100);
    e.scheduleStart(s, 5'000);
    EXPECT_EQ(e.waitFor(s, 100, 0), 15'000u);
    EXPECT_EQ(e.stream(s).startedAt, 5'000u);
}

TEST(Engine, TwoStreamsShareBandwidthEqually)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 1000);
    int b = e.addStream("b", 1000);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    // Both active: each gets half the bandwidth.
    EXPECT_EQ(e.waitFor(a, 500, 0), 100'000u);
    // They finish together at 2x the solo time.
    EXPECT_EQ(e.finishAll(), 200'000u);
}

TEST(Engine, FinisherReleasesBandwidth)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 100);
    int b = e.addStream("b", 1000);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    // a (100B) at half speed finishes at 20'000 with b at 100B; b's
    // remaining 900B then moves at full speed: 20'000 + 90'000.
    EXPECT_EQ(e.waitFor(a, 100, 0), 20'000u);
    EXPECT_EQ(e.waitFor(b, 1000, 0), 110'000u);
}

TEST(Engine, ConcurrencyLimitQueuesFifo)
{
    TransferEngine e(kCpb, 1);
    int a = e.addStream("a", 100);
    int b = e.addStream("b", 100);
    int c = e.addStream("c", 100);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    e.scheduleStart(c, 0);
    e.advanceTo(0);
    EXPECT_EQ(e.activeCount(), 1u);
    // Sequential completion: a then b then c.
    EXPECT_EQ(e.waitFor(a, 100, 0), 10'000u);
    EXPECT_EQ(e.waitFor(b, 100, 0), 20'000u);
    EXPECT_EQ(e.waitFor(c, 100, 0), 30'000u);
}

TEST(Engine, DemandStartJumpsQueue)
{
    TransferEngine e(kCpb, 1);
    int a = e.addStream("a", 100);
    int b = e.addStream("b", 100);
    int c = e.addStream("c", 100);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    e.scheduleStart(c, 0);
    e.advanceTo(0);
    // Mispredicted need for c: it must transfer next, before b.
    e.demandStart(c, 0);
    EXPECT_EQ(e.waitFor(c, 100, 0), 20'000u);
    EXPECT_EQ(e.waitFor(b, 100, 0), 30'000u);
}

TEST(Engine, DemandStartOnIdleStreamStartsImmediately)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 100);
    // never scheduled
    e.demandStart(a, 7'000);
    EXPECT_EQ(e.waitFor(a, 100, 7'000), 17'000u);
}

TEST(Engine, WaitForNeverStartedIsFatal)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 100);
    EXPECT_THROW(e.waitFor(a, 50, 0), FatalError);
}

TEST(Engine, WaitPastEndIsFatal)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 100);
    e.scheduleStart(a, 0);
    EXPECT_THROW(e.waitFor(a, 101, 0), FatalError);
}

TEST(Engine, WaitForReturnsNowWhenAlreadyArrived)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 100);
    e.scheduleStart(a, 0);
    e.advanceTo(50'000); // a done long ago
    EXPECT_EQ(e.waitFor(a, 100, 50'000), 50'000u);
}

TEST(Engine, AdvanceBackwardsRejected)
{
    TransferEngine e(kCpb, -1);
    e.addStream("a", 10);
    e.advanceTo(100);
    EXPECT_THROW(e.advanceTo(50), FatalError);
}

TEST(Engine, EmptyStreamRejected)
{
    TransferEngine e(kCpb, -1);
    EXPECT_THROW(e.addStream("zero", 0), FatalError);
}

TEST(Engine, NonFiniteExternalRateRejected)
{
    // An infinite share would "finish" a 1000-byte stream at 10
    // cycles/byte in one cycle instead of 10000.
    TransferEngine e(10.0, -1);
    int s = e.addStream("a", 1000);
    e.scheduleStart(s, 0);
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad :
         {inf, -inf, std::numeric_limits<double>::quiet_NaN(), -1.0})
        EXPECT_THROW(e.setExternalRate(bad), FatalError) << bad;
    EXPECT_DOUBLE_EQ(e.externalRate(), 1.0);
    EXPECT_EQ(e.finishAll(), 10'000u);
}

TEST(Engine, LateScheduledStartWaitsForSlot)
{
    TransferEngine e(kCpb, 1);
    int a = e.addStream("a", 1000);
    int b = e.addStream("b", 100);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 10'000); // due mid-a; must queue
    EXPECT_EQ(e.waitFor(b, 100, 0), 110'000u);
    EXPECT_EQ(e.stream(b).startedAt, 100'000u);
}

TEST(Engine, WatchesRecordExactCrossings)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 1000);
    int b = e.addStream("b", 400);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    e.setWatch(a, 300);
    e.setWatch(b, 400);
    e.runWatches();
    // Shared bandwidth: 300 bytes at half speed = 60'000.
    EXPECT_EQ(e.watchedArrival(a), 60'000u);
    // b: 400 bytes at half speed = 80'000.
    EXPECT_EQ(e.watchedArrival(b), 80'000u);
}

TEST(Engine, WatchAlreadyCrossedIsCurrentTime)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 100);
    e.scheduleStart(a, 0);
    e.advanceTo(20'000);
    e.setWatch(a, 50);
    EXPECT_EQ(e.watchedArrival(a), 20'000u);
}

TEST(Engine, RunWatchesOnUnstartableStreamIsFatal)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 100);
    e.setWatch(a, 50);
    EXPECT_THROW(e.runWatches(), FatalError);
}

TEST(Engine, UnlimitedConcurrencyRunsAllAtOnce)
{
    TransferEngine e(kCpb, -1);
    std::vector<int> ids;
    for (int i = 0; i < 10; ++i) {
        ids.push_back(e.addStream("s", 100));
        e.scheduleStart(ids.back(), 0);
    }
    e.advanceTo(0);
    EXPECT_EQ(e.activeCount(), 10u);
    // Ten equal streams share: each takes 10x solo time.
    EXPECT_EQ(e.finishAll(), 100'000u);
}

TEST(Engine, DemandStartWithStaleNowUsesEngineClock)
{
    // The caller's clock may trail the engine's (waitFor advances
    // it). A demand-started stream must record startedAt at the
    // engine clock, never in the engine's past.
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 100);
    int b = e.addStream("b", 100);
    e.scheduleStart(a, 0);
    EXPECT_EQ(e.waitFor(a, 100, 0), 10'000u); // engine now at 10'000
    e.demandStart(b, 0);                      // stale caller clock
    EXPECT_EQ(e.stream(b).startedAt, 10'000u);
    EXPECT_EQ(e.waitFor(b, 100, 0), 20'000u);
}

TEST(Engine, DemandStartQueuedStreamMovesToFrontUnderLimit)
{
    // maxConcurrent=1 with a long transfer in flight: a queued
    // stream demand-started with a stale `now` keeps front-of-queue
    // semantics ("queued up to be transferred next").
    TransferEngine e(kCpb, 1);
    int a = e.addStream("a", 1000);
    int b = e.addStream("b", 100);
    int c = e.addStream("c", 100);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    e.scheduleStart(c, 0);
    EXPECT_EQ(e.waitFor(a, 500, 0), 50'000u); // engine ahead of caller
    e.demandStart(c, 0);                      // stale now; c before b
    EXPECT_EQ(e.waitFor(c, 100, 0), 110'000u);
    EXPECT_EQ(e.waitFor(b, 100, 0), 120'000u);
    EXPECT_EQ(e.stream(c).startedAt, 100'000u);
}

TEST(Engine, DemandStartReportsWhetherItMovedTheStream)
{
    TransferEngine e(kCpb, 1);
    int a = e.addStream("a", 100);
    int b = e.addStream("b", 100);
    int c = e.addStream("c", 100);
    int d = e.addStream("d", 100); // never scheduled
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    e.scheduleStart(c, 0);
    e.advanceTo(0); // a in flight; b, c queued

    EXPECT_TRUE(e.demandStart(d, 0)); // Idle: queued at the front
    EXPECT_EQ(e.stream(d).state, StreamState::Queued);
    EXPECT_TRUE(e.demandStart(c, 0));  // Queued behind d and b
    EXPECT_FALSE(e.demandStart(c, 0)); // Queued, already first
    EXPECT_FALSE(e.demandStart(a, 0)); // Active
    EXPECT_EQ(e.waitFor(c, 100, 0), 20'000u); // c went first
    EXPECT_FALSE(e.demandStart(a, 20'000)); // Done
    EXPECT_EQ(e.waitFor(d, 100, 0), 30'000u);
    EXPECT_EQ(e.waitFor(b, 100, 0), 40'000u);
}

TEST(Engine, WatchCrossingExactlyAtStreamCompletion)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 1000);
    e.scheduleStart(a, 0);
    e.setWatch(a, 1000); // the watch is the final byte
    e.runWatches();
    EXPECT_EQ(e.watchedArrival(a), 100'000u);
    EXPECT_EQ(e.stream(a).state, StreamState::Done);
    EXPECT_EQ(e.stream(a).finishedAt, e.watchedArrival(a));
}

TEST(Engine, WaitForAtTotalBytesWithFractionalArrivals)
{
    // A non-round link cost and shared bandwidth make arrivedBytes
    // fractional; waiting for offset == totalBytes must hit the kEps
    // completion boundary, not fatal or overshoot.
    TransferEngine e(3.0, -1);
    int a = e.addStream("a", 997); // prime sizes: nothing divides
    int b = e.addStream("b", 1009);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    uint64_t done_a = e.waitFor(a, 997, 0);
    EXPECT_EQ(done_a, e.stream(a).finishedAt);
    EXPECT_EQ(e.stream(a).state, StreamState::Done);
    uint64_t done_b = e.waitFor(b, 1009, 0);
    EXPECT_EQ(done_b, e.stream(b).finishedAt);
    EXPECT_EQ(e.finishAll(), done_b);
}

TEST(Engine, ZeroByteWatchCrossesAtStreamStart)
{
    // An empty needed prefix (satellite of the scheduler: a class
    // whose first-used method needs no bytes ahead of it) arrives
    // the moment the stream starts — not never, and not at cycle 0.
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 100);
    e.scheduleStart(a, 5'000);
    e.setWatch(a, 0);
    e.runWatches();
    EXPECT_EQ(e.watchedArrival(a), 5'000u);
}

TEST(Engine, ZeroByteWatchOnQueuedStreamCrossesAtSlotGrant)
{
    TransferEngine e(kCpb, 1);
    int a = e.addStream("a", 100);
    int b = e.addStream("b", 100);
    e.scheduleStart(a, 0);
    e.scheduleStart(b, 0);
    e.setWatch(b, 0);
    e.runWatches();
    EXPECT_EQ(e.watchedArrival(b), 10'000u); // when a's slot frees
}

TEST(Engine, ZeroByteWatchOnStartedStreamIsCurrentTime)
{
    TransferEngine e(kCpb, -1);
    int a = e.addStream("a", 100);
    e.scheduleStart(a, 0);
    e.advanceTo(2'000);
    e.setWatch(a, 0);
    EXPECT_EQ(e.watchedArrival(a), 2'000u);
}

TEST(Engine, PaperLinkRatesAreExact)
{
    // One byte over the paper's links.
    TransferEngine t1(kT1Link.cyclesPerByte, -1);
    int a = t1.addStream("a", 1);
    t1.scheduleStart(a, 0);
    EXPECT_EQ(t1.waitFor(a, 1, 0), 3'815u);

    TransferEngine modem(kModemLink.cyclesPerByte, -1);
    int b = modem.addStream("b", 1);
    modem.scheduleStart(b, 0);
    EXPECT_EQ(modem.waitFor(b, 1, 0), 134'698u);
}

// ------------------------------------------------------ behaviour digest

/** Folds every announced stream and recorded event into one digest. */
class DigestSink : public EventSink
{
  public:
    explicit DigestSink(Fnv1a &h) : h_(h) {}

    void
    record(const ObsEvent &ev) override
    {
        h_.u64(ev.cycle);
        h_.u64(static_cast<uint64_t>(ev.kind));
        h_.u64(static_cast<uint64_t>(static_cast<int64_t>(ev.stream)));
        h_.u64(ev.a);
        h_.u64(ev.b);
    }

    void
    noteStream(int stream, const std::string &name,
               uint64_t totalBytes) override
    {
        h_.u64(static_cast<uint64_t>(stream));
        h_.str(name);
        h_.u64(totalBytes);
    }

  private:
    Fnv1a &h_;
};

void
foldDouble(Fnv1a &h, double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    h.u64(bits);
}

enum class SweepLink
{
    Nominal,
    Bursts,
    Drops,
    Outages,
};

FaultPlan
sweepPlan(SweepLink link, uint64_t seed)
{
    FaultPlan plan;
    switch (link) {
      case SweepLink::Nominal:
        break;
      case SweepLink::Bursts:
        plan.trace = BandwidthTrace::bursts(seed, 20'000, 0.4, 3'000'000);
        break;
      case SweepLink::Drops:
        plan.dropSeed = seed;
        plan.dropsPerMByte = 150.0;
        plan.maxAttempts = 3;
        plan.retryTimeoutCycles = 30'000;
        break;
      case SweepLink::Outages: {
        // Full outages alternating with partial and nominal windows;
        // the last segment is nominal, so every transfer can finish.
        Rng rng(seed);
        std::vector<RateSegment> segs{{0, 1.0}};
        uint64_t t = 0;
        const double mults[] = {0.0, 0.5, 0.0, 1.0};
        for (int k = 0; k < 12; ++k) {
            t += 5'000 + rng.below(60'000);
            segs.push_back({t, mults[k % 4]});
        }
        segs.push_back({t + 1 + rng.below(40'000), 1.0});
        plan.trace = BandwidthTrace(std::move(segs));
        break;
      }
    }
    return plan;
}

/**
 * One seeded engine session: random streams, planned and unplanned,
 * driven through interleaved scheduleStart, demandStart, reschedule,
 * setWatch, setExternalRate, advanceTo, waitFor, runWatches and the
 * pure queries, then finishAll. Folds the full event stream, every
 * query answer, every Stream field and every watch crossing.
 */
void
digestSession(Fnv1a &h, int limit, SweepLink link, uint64_t seed)
{
    Rng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(limit));
    DigestSink sink(h);
    TransferEngine e(kCpb, limit, sweepPlan(link, seed));
    e.setSink(&sink);
    const int n = 4 + static_cast<int>(rng.below(10));
    for (int i = 0; i < n; ++i) {
        int s = e.addStream(cat("s", i), 1 + rng.below(4'000));
        if (rng.below(4) != 0)
            e.scheduleStart(s, rng.below(300'000));
    }
    auto pick = [&] { return static_cast<int>(rng.below(
                          static_cast<uint64_t>(n))); };
    // A stream whose bytes can still move: started, or planned.
    auto startable = [&](int s) {
        const Stream &st = e.stream(s);
        return st.state != StreamState::Idle ||
               st.scheduledStart != UINT64_MAX;
    };
    std::vector<uint8_t> watched(static_cast<size_t>(n), 0);
    for (int op = 0; op < 80; ++op) {
        int s = pick();
        const Stream &st = e.stream(s);
        auto total = static_cast<uint64_t>(st.totalBytes);
        switch (rng.below(10)) {
          case 0:
            e.advanceTo(e.time() + rng.below(40'000));
            break;
          case 1:
            e.demandStart(s, e.time() - std::min<uint64_t>(
                                            e.time(), rng.below(5'000)));
            break;
          case 2: {
            // At or before the clock promotes; later defers.
            uint64_t back = std::min<uint64_t>(e.time(), 10'000);
            h.u64(e.reschedule(s, e.time() - back + rng.below(80'000)));
            break;
          }
          case 3:
            if (st.state == StreamState::Idle)
                e.scheduleStart(s, e.time() + rng.below(50'000));
            break;
          case 4:
            e.setWatch(s, rng.below(total + 1));
            watched[static_cast<size_t>(s)] = 1;
            break;
          case 5: {
            const double rates[] = {1.0, 0.5, 0.25, 2.0, 0.0};
            e.setExternalRate(rates[rng.below(5)]);
            break;
          }
          case 6:
            if (startable(s) && e.externalRate() > 0.0)
                h.u64(e.waitFor(s, rng.below(total + 1), e.time()));
            break;
          case 7: {
            bool ok = e.externalRate() > 0.0;
            for (int i = 0; i < n; ++i) {
                if (watched[static_cast<size_t>(i)] && !startable(i))
                    ok = false;
            }
            if (ok)
                e.runWatches();
            break;
          }
          default:
            h.u64(e.nextEventTime());
            h.u64(e.nextStepToward(s, rng.below(total + 1)));
            h.u64(e.hasArrived(s, rng.below(total + 1)));
            break;
        }
        h.u64(e.time());
        h.u64(e.activeCount());
    }
    for (int i = 0; i < n; ++i) {
        if (!startable(i))
            e.demandStart(i, e.time());
    }
    if (e.externalRate() == 0.0)
        e.setExternalRate(1.0);
    h.u64(e.finishAll());
    h.u64(e.allDone());
    h.u64(e.retryCount());
    h.u64(e.degradedCycles());
    for (int i = 0; i < n; ++i) {
        const Stream &st = e.stream(i);
        h.str(st.name);
        foldDouble(h, st.totalBytes);
        foldDouble(h, st.arrivedBytes);
        h.u64(static_cast<uint64_t>(st.state));
        h.u64(st.scheduledStart);
        h.u64(st.startedAt);
        h.u64(st.finishedAt);
        h.u64(e.watchedArrival(i));
    }
}

/** What one run of a stream set shows: every watch crossing, start
 *  and finish cycle, and the steps taken. */
struct RunView
{
    std::vector<uint64_t> crossed, started, finished;
    uint64_t steps = 0;
    bool operator==(const RunView &) const = default;
};

/**
 * Runs streams of `sizes` planned at `starts` (UINT64_MAX = never)
 * with a watch at `watch` on each planned one, through runWatches and
 * on past the last completion. With `late` >= 0 that stream is planned only after
 * integrateTo(its start), the placer's snapshot-resume path.
 */
RunView
runStreams(const std::vector<uint64_t> &sizes,
           const std::vector<uint64_t> &starts,
           const std::vector<uint64_t> &watch, int limit, int late)
{
    TransferEngine e(kCpb, limit);
    for (size_t i = 0; i < sizes.size(); ++i)
        e.addStream(cat("s", i), sizes[i]);
    auto plan = [&](size_t i) {
        e.scheduleStart(static_cast<int>(i), starts[i]);
        e.setWatch(static_cast<int>(i), watch[i]);
    };
    for (size_t i = 0; i < sizes.size(); ++i)
        if (static_cast<int>(i) != late && starts[i] != UINT64_MAX)
            plan(i);
    if (late >= 0) {
        e.integrateTo(starts[static_cast<size_t>(late)]);
        plan(static_cast<size_t>(late));
    }
    e.runWatches();
    e.advanceTo(10'000'000);
    RunView v;
    for (size_t i = 0; i < sizes.size(); ++i) {
        v.crossed.push_back(e.watchedArrival(static_cast<int>(i)));
        v.started.push_back(e.stream(static_cast<int>(i)).startedAt);
        v.finished.push_back(e.stream(static_cast<int>(i)).finishedAt);
    }
    v.steps = e.steps();
    return v;
}

TEST(Engine, IntegrateToThenStartMatchesOneRun)
{
    // Tie 1: a start due at the same cycle as the late one. Due starts
    // activate in index order, whichever was planned first.
    for (int late : {1, 2}) {
        std::vector<uint64_t> sizes{100, 100, 100};
        std::vector<uint64_t> starts{0, 500, 500};
        std::vector<uint64_t> watch{100, 50, 50};
        RunView one = runStreams(sizes, starts, watch, 1, -1);
        EXPECT_LT(one.started[1], one.started[2]);
        EXPECT_EQ(runStreams(sizes, starts, watch, 1, late), one)
            << "late stream " << late;
    }
    {
        // Tie 2: a completion at the late start's cycle while a stream
        // is queued. The start pass runs before the queue fill, so the
        // late stream takes the freed slot.
        std::vector<uint64_t> sizes{100, 100, 100};
        std::vector<uint64_t> starts{0, 0, 10'000};
        std::vector<uint64_t> watch{100, 100, 100};
        RunView one = runStreams(sizes, starts, watch, 1, -1);
        EXPECT_EQ(one.finished[0], 10'000u);
        EXPECT_EQ(one.started[2], 10'000u);
        EXPECT_GT(one.started[1], one.started[2]);
        EXPECT_EQ(runStreams(sizes, starts, watch, 1, 2), one);
    }
    // Seeded random stream sets. Starts fall on a coarse grid, so
    // starts often coincide, and half the late starts land exactly on
    // another stream's completion.
    for (int limit : {1, 2, 4, -1}) {
        for (uint64_t seed = 1; seed <= 150; ++seed) {
            Rng rng(seed * 7919 + static_cast<uint64_t>(limit + 2));
            size_t n = 2 + rng.below(9);
            std::vector<uint64_t> sizes, starts, watch;
            for (size_t i = 0; i < n; ++i) {
                sizes.push_back(1 + rng.below(4'000));
                starts.push_back(rng.below(5) == 0
                                     ? UINT64_MAX
                                     : 20'000 * rng.below(8));
                watch.push_back(rng.below(sizes.back() + 1));
            }
            auto late = static_cast<int>(rng.below(n));
            auto li = static_cast<size_t>(late);
            if (rng.below(2) == 0) {
                std::vector<uint64_t> others = starts;
                others[li] = UINT64_MAX;
                RunView rest = runStreams(sizes, others, watch, limit, -1);
                size_t j = rng.below(n);
                starts[li] = others[j] != UINT64_MAX && j != li
                                 ? rest.finished[j]
                                 : 20'000 * rng.below(8);
            } else if (starts[li] == UINT64_MAX) {
                starts[li] = 20'000 * rng.below(8);
            }
            EXPECT_EQ(runStreams(sizes, starts, watch, limit, late),
                      runStreams(sizes, starts, watch, limit, -1))
                << "limit " << limit << ", seed " << seed;
        }
    }
}

TEST(Engine, IntegrateToRejectsThePast)
{
    TransferEngine e(kCpb, 1);
    int s = e.addStream("a", 100);
    e.scheduleStart(s, 0);
    e.advanceTo(500);
    e.integrateTo(500); // the clock itself: nothing to do
    EXPECT_EQ(e.time(), 500u);
    EXPECT_THROW(e.integrateTo(499), FatalError);
}

TEST(Engine, ReplanChurnKeepsStartsExact)
{
    // Thousands of deferrals leave stale entries in the start index
    // and force it to be rebuilt many times over. Re-planning every
    // idle stream back to its old cycle must leave the run exactly as
    // if none of it had happened.
    for (int limit : {1, 4, -1}) {
        Rng rng(static_cast<uint64_t>(limit + 7));
        TransferEngine churned(kCpb, limit), plain(kCpb, limit);
        const int n = 12;
        std::vector<uint64_t> plan;
        for (int i = 0; i < n; ++i) {
            uint64_t bytes = 1 + rng.below(2'000);
            plan.push_back(rng.below(400'000));
            for (TransferEngine *e : {&churned, &plain}) {
                e->addStream(cat("s", i), bytes);
                e->scheduleStart(i, plan.back());
            }
        }
        churned.advanceTo(100'000);
        plain.advanceTo(100'000);
        for (int k = 0; k < 5'000; ++k) {
            int s = static_cast<int>(rng.below(n));
            churned.reschedule(s, 100'001 + rng.below(500'000));
        }
        for (int i = 0; i < n; ++i)
            churned.reschedule(i, plan[static_cast<size_t>(i)]);
        EXPECT_EQ(churned.nextEventTime(), plain.nextEventTime());
        EXPECT_EQ(churned.finishAll(), plain.finishAll());
        for (int i = 0; i < n; ++i) {
            EXPECT_EQ(churned.stream(i).startedAt, plain.stream(i).startedAt)
                << "limit " << limit << ", stream " << i;
            EXPECT_EQ(churned.stream(i).finishedAt,
                      plain.stream(i).finishedAt);
        }
    }
}

TEST(Engine, SeededBehaviourDigestIsPinned)
{
    // Pins the engine's observable behaviour across limits {1, 2, 4,
    // unlimited} x {nominal, bursts, seeded drops, zero-rate outages}
    // x 16 seeds. Any change to an event, its cycle or order, a query
    // answer, a Stream field or a watch crossing moves the digest.
    Fnv1a h;
    for (int limit : {1, 2, 4, -1}) {
        for (SweepLink link : {SweepLink::Nominal, SweepLink::Bursts,
                               SweepLink::Drops, SweepLink::Outages}) {
            for (uint64_t seed = 1; seed <= 16; ++seed)
                digestSession(h, limit, link, seed);
        }
    }
    EXPECT_EQ(h.h, 0xf6fe008db37480d2ull);
}

} // namespace
} // namespace nse
