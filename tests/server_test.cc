/**
 * @file
 * Acceptance gate of the multi-client server simulation (src/server/):
 *
 *  - a one-client server run reproduces the solo runReplay SimResult
 *    cycle-for-cycle and event-for-event (the exactness contract the
 *    whole module is designed around);
 *  - a fleet whose uplink never saturates reproduces every client's
 *    solo result simultaneously;
 *  - at every allocation instant the rates conserve uplink capacity
 *    and respect per-client nominal caps;
 *  - allocator policies order outcomes the way they promise
 *    (weighted favors weight, deadline favors the earliest waiter);
 *  - per-client stall reports reconstruct, and their merge
 *    reconstructs the fleet;
 *  - the heap loop matches the linear-scan reference under every
 *    allocator, and its work counters are pinned per allocator.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <memory>

#include "obs/stall.h"
#include "obs/trace.h"
#include "server/server_sim.h"
#include "support/error.h"
#include "support/saturate.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

FaultPlan
faultyPlan()
{
    FaultPlan plan;
    plan.trace = BandwidthTrace::bursts(/*seed=*/7, 400'000, 0.7,
                                        200'000'000);
    plan.dropSeed = 7;
    plan.dropsPerMByte = 40.0;
    plan.maxAttempts = 2;
    plan.retryTimeoutCycles = 120'000;
    return plan;
}

SimConfig
baseConfig(SimConfig::Mode mode, LinkModel link)
{
    SimConfig cfg;
    cfg.mode = mode;
    cfg.ordering = OrderingSource::Train;
    cfg.link = link;
    cfg.parallelLimit = 2;
    return cfg;
}

/** Links no run can use: non-positive, non-finite, or so slow the
 *  whole program's cost overflows a cycle count. */
std::vector<LinkModel>
badLinks()
{
    return {{"negative", -1.0},
            {"zero", 0.0},
            {"overflowing", 1e30},
            {"infinite", std::numeric_limits<double>::infinity()},
            {"nan", std::numeric_limits<double>::quiet_NaN()}};
}

/** The shared test workload context (expensive: built once). */
const SimContext &
zipperCtx()
{
    static Workload wl = makeZipper();
    static SimContext ctx(wl.program, wl.natives, wl.trainInput,
                          wl.testInput);
    return ctx;
}

const SimContext &
ruleEngineCtx()
{
    static Workload wl = makeRuleEngine();
    static SimContext ctx(wl.program, wl.natives, wl.trainInput,
                          wl.testInput);
    return ctx;
}

const SimContext &
hanoiCtx()
{
    static Workload wl = makeHanoi();
    static SimContext ctx(wl.program, wl.natives, wl.trainInput,
                          wl.testInput);
    return ctx;
}

void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.invocationLatency, b.invocationLatency) << what;
    EXPECT_EQ(a.totalCycles, b.totalCycles) << what;
    EXPECT_EQ(a.execCycles, b.execCycles) << what;
    EXPECT_EQ(a.transferCycles, b.transferCycles) << what;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << what;
    EXPECT_EQ(a.mispredictions, b.mispredictions) << what;
    EXPECT_EQ(a.bytecodes, b.bytecodes) << what;
    EXPECT_EQ(a.cpi, b.cpi) << what;
    EXPECT_EQ(a.retryCount, b.retryCount) << what;
    EXPECT_EQ(a.degradedCycles, b.degradedCycles) << what;
}

void
expectSameEvents(const EventTrace &a, const EventTrace &b,
                 const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        const ObsEvent &x = a.events()[i];
        const ObsEvent &y = b.events()[i];
        EXPECT_EQ(x.cycle, y.cycle) << what << " event " << i;
        EXPECT_EQ(x.kind, y.kind) << what << " event " << i;
        EXPECT_EQ(x.stream, y.stream) << what << " event " << i;
        EXPECT_EQ(x.cls, y.cls) << what << " event " << i;
        EXPECT_EQ(x.method, y.method) << what << " event " << i;
        EXPECT_EQ(x.a, y.a) << what << " event " << i;
        EXPECT_EQ(x.b, y.b) << what << " event " << i;
    }
}

/** Run a fleet with one EventTrace per client. */
ServerResult
runObserved(const std::vector<ClientSpec> &clients,
            ServerOptions opts,
            std::vector<std::unique_ptr<EventTrace>> &sinks)
{
    sinks.clear();
    for (size_t i = 0; i < clients.size(); ++i)
        sinks.push_back(std::make_unique<EventTrace>());
    opts.sinkFor = [&](size_t i) { return sinks[i].get(); };
    return runServer(clients, opts);
}

TEST(ServerSim, OneClientMatchesSoloReplayExactly)
{
    EqualShareAllocator equal;
    struct Case
    {
        const char *name;
        const SimContext *ctx;
        SimConfig cfg;
    };
    std::vector<Case> cases;
    for (SimConfig::Mode mode :
         {SimConfig::Mode::Parallel, SimConfig::Mode::Interleaved}) {
        SimConfig nominal = baseConfig(mode, kT1Link);
        SimConfig faulted = baseConfig(mode, kModemLink);
        faulted.faults = faultyPlan();
        cases.push_back({"nominal", &zipperCtx(), nominal});
        cases.push_back({"faulted", &zipperCtx(), faulted});
        // SCG and RTA mispredict on RuleEngine, so the demand-fetch
        // half of the first-use rule runs too.
        for (OrderingSource ord :
             {OrderingSource::Static, OrderingSource::RtaStatic,
              OrderingSource::MustUse}) {
            const SimContext *ctx = &ruleEngineCtx();
            for (bool partition : {false, true}) {
                for (bool classStrict : {false, true}) {
                    for (Case c : {Case{"nominal", ctx, nominal},
                                   Case{"faulted", ctx, faulted}}) {
                        c.cfg.ordering = ord;
                        c.cfg.dataPartition = partition;
                        c.cfg.classStrict = classStrict;
                        cases.push_back(c);
                    }
                }
            }
        }
    }
    uint64_t mispredictions = 0;
    for (const Case &c : cases) {
        const SimContext &ctx = *c.ctx;
        EventTrace solo;
        SimResult ref = runReplay(ctx, c.cfg, &solo);

        ServerOptions opts;
        opts.uplinkBytesPerCycle = linkRate(c.cfg.link);
        opts.allocator = &equal;
        std::vector<std::unique_ptr<EventTrace>> sinks;
        ServerResult sr =
            runObserved({{&ctx, c.cfg, 1.0, "only"}}, opts, sinks);

        std::string what =
            cat(c.name, " mode=", static_cast<int>(c.cfg.mode), " ord=",
                orderingName(c.cfg.ordering), " part=",
                c.cfg.dataPartition, " classStrict=", c.cfg.classStrict);
        ASSERT_EQ(sr.clients.size(), 1u);
        expectSameResult(sr.clients[0].sim, ref, what);
        EXPECT_EQ(sr.clients[0].arrival, 0u) << what;
        EXPECT_EQ(sr.clients[0].finished, ref.totalCycles) << what;
        EXPECT_EQ(sr.makespan, ref.totalCycles) << what;
        expectSameEvents(*sinks[0], solo, what);
        mispredictions += ref.mispredictions;
    }
    EXPECT_GT(mispredictions, 0u);

    // A link no run can use is rejected, solo and served alike, in
    // every mode.
    const SimContext &ctx = zipperCtx();
    for (const LinkModel &bad : badLinks()) {
        for (SimConfig::Mode mode :
             {SimConfig::Mode::Strict, SimConfig::Mode::Parallel,
              SimConfig::Mode::Interleaved}) {
            SimConfig cfg = baseConfig(mode, bad);
            std::string what =
                cat(bad.name, " mode=", static_cast<int>(mode));
            EXPECT_THROW(runReplay(ctx, cfg), FatalError) << what;
            EXPECT_THROW(runLiveReference(ctx, cfg), FatalError) << what;
            ServerOptions opts;
            opts.uplinkBytesPerCycle = linkRate(kT1Link);
            opts.allocator = &equal;
            EXPECT_THROW(runServer({{&ctx, cfg, 1.0, "bad"}}, opts),
                         FatalError)
                << what;
        }
    }
}

TEST(ServerSim, RejectsStrictClientsAndNonFiniteUplinks)
{
    // The server serves only overlapped clients (the strict baseline
    // is a solo runReplay): a Strict client anywhere in the fleet is
    // rejected at entry.
    const SimContext &ctx = zipperCtx();
    EqualShareAllocator equal;
    ServerOptions opts;
    opts.uplinkBytesPerCycle = linkRate(kT1Link);
    opts.allocator = &equal;
    SimConfig par = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    SimConfig strict = baseConfig(SimConfig::Mode::Strict, kT1Link);
    EXPECT_THROW(runServer({{&ctx, strict, 1.0, "s"}}, opts), FatalError);
    EXPECT_THROW(runServer({{&ctx, par, 1.0, "p"}, {&ctx, strict, 1.0, "s"}},
                           opts),
                 FatalError);
    EXPECT_NO_THROW(runServer({{&ctx, par, 1.0, "p"}}, opts));

    // The uplink capacity must be finite and positive.
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {inf, std::numeric_limits<double>::quiet_NaN(), 0.0,
                       -1.0}) {
        opts.uplinkBytesPerCycle = bad;
        EXPECT_THROW(runServer({{&ctx, par, 1.0, "p"}}, opts), FatalError)
            << bad;
    }
}

TEST(ServerSim, AmpleUplinkReproducesEverySoloResult)
{
    // Capacity = the sum of every client's nominal link rate: the
    // water-filling allocator caps everyone at nominal, the external
    // multiplier never leaves 1.0, and every client must match its
    // solo run exactly — even with staggered arrivals and faults.
    std::vector<ClientSpec> clients;
    SimConfig parT1 = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    SimConfig intModem =
        baseConfig(SimConfig::Mode::Interleaved, kModemLink);
    SimConfig faulted = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    faulted.faults = faultyPlan();
    clients.push_back({&zipperCtx(), parT1, 1.0, "zipper-par"});
    clients.push_back({&hanoiCtx(), intModem, 1.0, "hanoi-int"});
    clients.push_back({&zipperCtx(), faulted, 1.0, "zipper-faulted"});

    double capacity = 0.0;
    for (const ClientSpec &c : clients)
        capacity += linkRate(c.config.link);

    EqualShareAllocator equal;
    ServerOptions opts;
    opts.uplinkBytesPerCycle = capacity;
    opts.allocator = &equal;
    opts.arrivals.kind = ArrivalKind::Staggered;
    opts.arrivals.meanGapCycles = 250'000;
    ServerResult sr = runServer(clients, opts);

    std::vector<uint64_t> arrivals = opts.arrivals.cycles(3);
    for (size_t i = 0; i < clients.size(); ++i) {
        SimResult ref =
            runReplay(*clients[i].ctx, clients[i].config, nullptr);
        expectSameResult(sr.clients[i].sim, ref,
                         sr.clients[i].name);
        EXPECT_EQ(sr.clients[i].arrival, arrivals[i]);
        EXPECT_EQ(sr.clients[i].finished,
                  arrivals[i] + ref.totalCycles);
    }
}

TEST(ServerSim, AllocationsConserveCapacityAndRespectCaps)
{
    std::vector<ClientSpec> clients;
    SimConfig parallel = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    SimConfig faulted = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    faulted.faults = faultyPlan();
    SimConfig modem =
        baseConfig(SimConfig::Mode::Interleaved, kModemLink);
    clients.push_back({&zipperCtx(), parallel, 1.0, "a"});
    clients.push_back({&zipperCtx(), faulted, 3.0, "b"});
    clients.push_back({&hanoiCtx(), modem, 1.0, "c"});
    clients.push_back({&hanoiCtx(), parallel, 2.0, "d"});

    double capacity = 1.25 * linkRate(kT1Link);
    for (const char *name : {"equal", "weighted", "deadline"}) {
        auto alloc = makeAllocator(name);
        ServerOptions opts;
        opts.uplinkBytesPerCycle = capacity;
        opts.allocator = alloc.get();
        size_t instants = 0;
        opts.allocationProbe = [&](uint64_t,
                                   const std::vector<double> &rates) {
            ++instants;
            double sum = 0.0;
            for (size_t i = 0; i < rates.size(); ++i) {
                EXPECT_GE(rates[i], 0.0) << name;
                EXPECT_LE(rates[i],
                          linkRate(clients[i].config.link) + 1e-12)
                    << name << " client " << i;
                sum += rates[i];
            }
            EXPECT_LE(sum, capacity + 1e-9) << name;
        };
        ServerResult sr = runServer(clients, opts);
        EXPECT_GT(instants, 0u) << name;
        EXPECT_EQ(instants, sr.allocationIntervals) << name;
        for (const ServerClientResult &c : sr.clients)
            EXPECT_GT(c.sim.totalCycles, 0u) << name;
    }
}

TEST(ServerSim, ContentionNeverSpeedsAClientUp)
{
    const SimContext &ctx = zipperCtx();
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    SimResult solo = runReplay(ctx, cfg, nullptr);

    EqualShareAllocator equal;
    ServerOptions opts;
    opts.uplinkBytesPerCycle = linkRate(kT1Link); // one link, two users
    opts.allocator = &equal;
    std::vector<std::unique_ptr<EventTrace>> sinks;
    ServerResult sr = runObserved(
        {{&ctx, cfg, 1.0, "a"}, {&ctx, cfg, 1.0, "b"}}, opts, sinks);

    std::vector<StallReport> reports;
    for (size_t i = 0; i < sr.clients.size(); ++i) {
        const SimResult &got = sr.clients[i].sim;
        EXPECT_GE(got.totalCycles, solo.totalCycles);
        EXPECT_GE(got.stallCycles, solo.stallCycles);
        EXPECT_EQ(got.execCycles, solo.execCycles);
        // The paper's reference figure is capacity-independent.
        EXPECT_EQ(got.transferCycles, solo.transferCycles);
        // Per-client observability survives sharing: the stall
        // attribution identity holds for each client's own trace.
        StallReport rep = buildStallReport(*sinks[i], got);
        EXPECT_TRUE(rep.reconstructs()) << rep.render();
        reports.push_back(std::move(rep));
    }
    StallReport fleet = mergeStallReports(reports);
    EXPECT_TRUE(fleet.reconstructs()) << fleet.render();
    EXPECT_EQ(fleet.totalCycles, reports[0].totalCycles +
                                     reports[1].totalCycles);
    EXPECT_EQ(fleet.attributedStallCycles,
              reports[0].attributedStallCycles +
                  reports[1].attributedStallCycles);
}

TEST(ServerSim, WeightedAllocatorFavorsHeavierClient)
{
    const SimContext &ctx = zipperCtx();
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    WeightedShareAllocator weighted;
    ServerOptions opts;
    opts.uplinkBytesPerCycle = linkRate(kT1Link);
    opts.allocator = &weighted;
    ServerResult sr = runServer(
        {{&ctx, cfg, 3.0, "heavy"}, {&ctx, cfg, 1.0, "light"}}, opts);
    EXPECT_LT(sr.clients[0].sim.stallCycles,
              sr.clients[1].sim.stallCycles);
    EXPECT_LE(sr.clients[0].finished, sr.clients[1].finished);
}

TEST(ServerSim, DeadlineAllocatorServesEarliestWaiterFirst)
{
    // The policy's contract, on crafted demands: capacity flows in
    // ascending nextFirstUse order, each client capped at its own
    // nominal rate; non-demanding clients get nothing.
    DeadlineAllocator deadline;
    std::vector<ClientDemand> demands(3);
    demands[0] = {0, 4.0, 1.0, /*nextFirstUse=*/900, true};
    demands[1] = {1, 4.0, 1.0, /*nextFirstUse=*/100, true};
    demands[2] = {2, 4.0, 1.0, /*nextFirstUse=*/0, false};

    std::vector<double> rates(3, 0.0);
    deadline.allocate(6.0, /*now=*/200, demands, rates);
    EXPECT_DOUBLE_EQ(rates[1], 4.0); // earliest waiter: full nominal
    EXPECT_DOUBLE_EQ(rates[0], 2.0); // next: the residual
    EXPECT_DOUBLE_EQ(rates[2], 0.0); // not demanding

    // Ties resolve by client index (stable sort), keeping the
    // allocation deterministic.
    demands[0].nextFirstUse = 100;
    rates.assign(3, 0.0);
    deadline.allocate(5.0, /*now=*/200, demands, rates);
    EXPECT_DOUBLE_EQ(rates[0], 4.0);
    EXPECT_DOUBLE_EQ(rates[1], 1.0);

    // End to end, the policy is work-conserving and never degrades
    // the fleet below what its clients can absorb: with capacity for
    // one T1 client, somebody is always being served, so the earliest
    // waiter at every instant resumes as fast as a solo run would.
    const SimContext &ctx = zipperCtx();
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    SimResult solo = runReplay(ctx, cfg, nullptr);
    ServerOptions opts;
    opts.uplinkBytesPerCycle = linkRate(kT1Link);
    opts.allocator = &deadline;
    ServerResult sr = runServer(
        {{&ctx, cfg, 1.0, "first"}, {&ctx, cfg, 1.0, "second"}}, opts);
    for (const ServerClientResult &c : sr.clients) {
        EXPECT_GE(c.sim.totalCycles, solo.totalCycles) << c.name;
        EXPECT_EQ(c.sim.execCycles, solo.execCycles) << c.name;
    }
    EXPECT_GE(sr.makespan, solo.totalCycles);
}

TEST(ServerSim, ArrivalPlansAreDeterministicAndSorted)
{
    ArrivalPlan plan;
    plan.kind = ArrivalKind::Simultaneous;
    EXPECT_EQ(plan.cycles(3), (std::vector<uint64_t>{0, 0, 0}));

    plan.kind = ArrivalKind::Staggered;
    plan.meanGapCycles = 100;
    EXPECT_EQ(plan.cycles(3), (std::vector<uint64_t>{0, 100, 200}));

    plan.kind = ArrivalKind::Uniform;
    plan.seed = 42;
    plan.windowCycles = 10'000;
    std::vector<uint64_t> a = plan.cycles(8);
    EXPECT_EQ(a, plan.cycles(8));
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    plan.seed = 43;
    EXPECT_NE(a, plan.cycles(8));
}

TEST(ServerSim, AllocatorFactoryAndHelpers)
{
    EXPECT_STREQ(makeAllocator("equal")->name(), "equal");
    EXPECT_STREQ(makeAllocator("weighted")->name(), "weighted");
    EXPECT_STREQ(makeAllocator("deadline")->name(), "deadline");
    EXPECT_STREQ(makeAllocator("propfair")->name(), "propfair");
    EXPECT_THROW(makeAllocator("nope"), FatalError);

    EXPECT_DOUBLE_EQ(jainFairness({1.0, 1.0, 1.0, 1.0}), 1.0);
    EXPECT_NEAR(jainFairness({1.0, 0.0}), 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(jainFairness({}), 1.0);
    // All-zero input is degenerate (0/0), not perfectly fair: a fleet
    // that produced no signal must not report an ideal index.
    EXPECT_DOUBLE_EQ(jainFairness({0.0, 0.0, 0.0}), 0.0);

    EXPECT_EQ(percentile({}, 50), 0u);
    EXPECT_EQ(percentile({7}, 50), 7u);
    std::vector<uint64_t> xs{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
    EXPECT_EQ(percentile(xs, 50), 50u);
    EXPECT_EQ(percentile(xs, 95), 100u);
    EXPECT_EQ(percentile(xs, 100), 100u);
    EXPECT_EQ(percentile(xs, 0), 10u);
    EXPECT_THROW(percentile(xs, -1), FatalError);
    EXPECT_THROW(percentile(xs, 101), FatalError);
    EXPECT_THROW(percentile(xs, std::numeric_limits<double>::quiet_NaN()),
                 FatalError);
}

TEST(ServerSim, PropFairAllocatorAgesStarvedClients)
{
    // Contract on crafted demands: a client starved past its deadline
    // escalates one weight step per quantum (capped), so it outranks
    // a freshly-served peer of equal configured weight.
    PropFairAllocator pf(/*aging_quantum_cycles=*/1000,
                         /*max_quanta=*/4);
    std::vector<ClientDemand> demands(2);
    demands[0] = {0, 8.0, 1.0, /*nextFirstUse=*/10'000, true};
    demands[1] = {1, 8.0, 1.0, /*nextFirstUse=*/5'000, true};

    // Neither past its deadline: plain proportional split.
    std::vector<double> rates(2, 0.0);
    pf.allocate(4.0, /*now=*/4'000, demands, rates);
    EXPECT_NEAR(rates[0], 2.0, 1e-12);
    EXPECT_NEAR(rates[1], 2.0, 1e-12);

    // Client 1 is 2 quanta late: weight 1*(1+2)=3 vs 1 -> 3:1 split.
    rates.assign(2, 0.0);
    pf.allocate(4.0, /*now=*/7'000, demands, rates);
    EXPECT_NEAR(rates[0], 1.0, 1e-12);
    EXPECT_NEAR(rates[1], 3.0, 1e-12);
    // ... and the next output-changing instant is its next quantum
    // edge, 5000 + 3*1000.
    EXPECT_EQ(pf.nextRefresh(7'000, demands), 8'000u);

    // The boost saturates at max_quanta: at now=9500 client 1 is 4.5
    // quanta late -> capped at 4, so the split is 1:(1+4); with no
    // client below the cap and past its deadline, no refresh edge
    // remains.
    rates.assign(2, 0.0);
    pf.allocate(6.0, /*now=*/9'500, demands, rates);
    EXPECT_NEAR(rates[1], 5.0, 1e-12);
    EXPECT_NEAR(rates[0], 1.0, 1e-12);
    EXPECT_EQ(pf.nextRefresh(9'500, demands), UINT64_MAX);

    // End to end: a contended propfair fleet completes and conserves
    // capacity (the probe assertions live in the options contract).
    const SimContext &ctx = zipperCtx();
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    ServerOptions opts;
    opts.uplinkBytesPerCycle = linkRate(kT1Link);
    auto pfAlloc = makeAllocator("propfair");
    opts.allocator = pfAlloc.get();
    ServerResult sr = runServer(
        {{&ctx, cfg, 1.0, "a"}, {&ctx, cfg, 1.0, "b"}}, opts);
    SimResult solo = runReplay(ctx, cfg, nullptr);
    for (const ServerClientResult &c : sr.clients)
        EXPECT_GE(c.sim.totalCycles, solo.totalCycles) << c.name;
}

/**
 * An allocator that injects sub-tolerance FP jitter into an equal
 * split: the relative error (~3e-13) is below the loop's 1e-12
 * applied-rate tolerance, so a correct loop must treat the jittered
 * rates as unchanged — same allocation intervals, same per-client
 * results as the clean allocator. Before the epsilon compare, every
 * jittered call opened a new interval and retimed the whole fleet.
 */
class JitterEqualAllocator : public BandwidthAllocator
{
  public:
    const char *name() const override { return "jitter-equal"; }
    void allocate(double capacity, uint64_t now,
                  const std::vector<ClientDemand> &demands,
                  std::vector<double> &rates) const override
    {
        EqualShareAllocator equal;
        equal.allocate(capacity, now, demands, rates);
        ++calls_;
        double jitter = (calls_ % 2 == 0) ? 1.0 + 3e-13 : 1.0 - 3e-13;
        for (double &r : rates)
            r *= jitter;
    }

  private:
    mutable uint64_t calls_ = 0;
};

TEST(ServerSim, SubToleranceRateJitterOpensNoIntervals)
{
    const SimContext &ctx = zipperCtx();
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    std::vector<ClientSpec> clients = {{&ctx, cfg, 1.0, "a"},
                                       {&ctx, cfg, 1.0, "b"},
                                       {&ctx, cfg, 1.0, "c"}};
    ServerOptions opts;
    opts.uplinkBytesPerCycle = 1.5 * linkRate(kT1Link); // contended
    opts.arrivals.kind = ArrivalKind::Staggered;
    opts.arrivals.meanGapCycles = 300'000;

    EqualShareAllocator clean;
    opts.allocator = &clean;
    ServerResult ref = runServer(clients, opts);

    JitterEqualAllocator jitter;
    opts.allocator = &jitter;
    ServerResult got = runServer(clients, opts);

    // The regression claim: sub-tolerance jitter opens no extra
    // allocation intervals (before the epsilon compare, every
    // jittered call opened one and retimed the fleet). The jittered
    // rates that ARE applied at genuine change instants differ from
    // the clean ones by ~3e-13 relative, so absolute timings may
    // drift by a few cycles over the ~1e8-cycle run — but only that.
    EXPECT_EQ(got.allocationIntervals, ref.allocationIntervals);
    EXPECT_NEAR(static_cast<double>(got.events),
                static_cast<double>(ref.events), 4.0);
    EXPECT_NEAR(static_cast<double>(got.makespan),
                static_cast<double>(ref.makespan), 16.0);
    ASSERT_EQ(got.clients.size(), ref.clients.size());
    for (size_t i = 0; i < ref.clients.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(got.clients[i].finished),
                    static_cast<double>(ref.clients[i].finished), 16.0)
            << ref.clients[i].name;
        EXPECT_EQ(got.clients[i].sim.mispredictions,
                  ref.clients[i].sim.mispredictions);
        EXPECT_EQ(got.clients[i].sim.retryCount,
                  ref.clients[i].sim.retryCount);
    }
}

/**
 * A contended mixed fleet: parallel Zipper, interleaved Hanoi and
 * faulted parallel Zipper clients in rotation, every fourth at weight
 * 2, arriving uniformly (seed 1998) over 2M cycles.
 */
std::vector<ClientSpec>
mixedFleet(size_t n)
{
    std::vector<ClientSpec> clients;
    SimConfig par = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    SimConfig inter = baseConfig(SimConfig::Mode::Interleaved, kT1Link);
    SimConfig faulted = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    faulted.faults = faultyPlan();
    for (size_t i = 0; i < n; ++i) {
        const SimContext &ctx = (i % 3 == 1) ? hanoiCtx() : zipperCtx();
        const SimConfig &cfg =
            (i % 3 == 0) ? par : (i % 3 == 1) ? inter : faulted;
        clients.push_back(
            {&ctx, cfg, i % 4 == 0 ? 2.0 : 1.0, cat("c", i)});
    }
    return clients;
}

ServerOptions
mixedFleetOptions(const BandwidthAllocator &alloc, double uplinkClients)
{
    ServerOptions opts;
    opts.uplinkBytesPerCycle = uplinkClients * linkRate(kT1Link);
    opts.allocator = &alloc;
    opts.arrivals.kind = ArrivalKind::Uniform;
    opts.arrivals.seed = 1998;
    opts.arrivals.windowCycles = 2'000'000;
    return opts;
}

/** The two loops agree on the whole fleet's outcome: every counter
 *  but allocatorRuns, and every field of every client's result. */
void
expectSameFleet(const ServerResult &heap, const ServerResult &lin,
                const std::string &what)
{
    EXPECT_EQ(heap.events, lin.events) << what;
    EXPECT_EQ(heap.allocationIntervals, lin.allocationIntervals) << what;
    EXPECT_EQ(heap.enginesRetimed, lin.enginesRetimed) << what;
    EXPECT_EQ(heap.makespan, lin.makespan) << what;
    // Incrementality: the reference allocates every event; the heap
    // loop only when the allocator's output could change.
    EXPECT_EQ(lin.allocatorRuns, lin.events) << what;
    EXPECT_LT(heap.allocatorRuns, lin.allocatorRuns) << what;
    ASSERT_EQ(heap.clients.size(), lin.clients.size()) << what;
    for (size_t i = 0; i < lin.clients.size(); ++i) {
        const ServerClientResult &h = heap.clients[i];
        const ServerClientResult &l = lin.clients[i];
        std::string who = what + " " + l.name;
        EXPECT_EQ(h.name, l.name) << who;
        EXPECT_EQ(h.arrival, l.arrival) << who;
        EXPECT_EQ(h.admitted, l.admitted) << who;
        EXPECT_EQ(h.finished, l.finished) << who;
        EXPECT_EQ(h.cacheWait, l.cacheWait) << who;
        EXPECT_EQ(h.cacheHit, l.cacheHit) << who;
        expectSameResult(h.sim, l.sim, who);
    }
}

TEST(ServerSim, HeapLoopMatchesLinearScanOn512Clients)
{
    // The priority-queue loop against the exhaustive linear-scan
    // reference on a contended 512-client mixed fleet under equal
    // share: same events, intervals and retimes, identical per-client
    // results — while invoking the allocator strictly less often.
    std::vector<ClientSpec> clients = mixedFleet(512);
    EqualShareAllocator equal;
    ServerOptions opts = mixedFleetOptions(equal, 8.0);

    opts.loop = ServerLoop::PriorityQueue;
    ServerResult heap = runServer(clients, opts);
    opts.loop = ServerLoop::LinearScan;
    ServerResult lin = runServer(clients, opts);
    expectSameFleet(heap, lin, "equal");
}

/**
 * PropFairAllocator plus the aging edge its nextRefresh omits. A
 * demanding client whose nextFirstUse is still ahead (a
 * mispredict-opened block ranks on its next first use) starts aging
 * at nextFirstUse + quantum, and nothing else wakes the loop there.
 * With that edge declared the policy meets the nextRefresh contract
 * (server/allocator.h), which is what the heap loop's allocator skips
 * rest on.
 */
class EdgeCompletePropFair : public PropFairAllocator
{
  public:
    explicit EdgeCompletePropFair(uint64_t quantum)
        : PropFairAllocator(quantum), quantum_(quantum)
    {
    }
    uint64_t
    nextRefresh(uint64_t now,
                const std::vector<ClientDemand> &demands) const override
    {
        uint64_t next = PropFairAllocator::nextRefresh(now, demands);
        for (const ClientDemand &d : demands)
            if (d.demanding && d.nextFirstUse != UINT64_MAX &&
                d.nextFirstUse > now)
                next = std::min(next, satAdd(d.nextFirstUse, quantum_));
        return next;
    }

  private:
    uint64_t quantum_;
};

TEST(ServerSim, HeapLoopMatchesLinearScanUnderEveryAllocator)
{
    // The re-rank paths: weights, deadline order, and propfair aging
    // (a 1M-cycle quantum, so refresh edges fire throughout the run)
    // on a 32-client fleet whose uplink carries two clients' worth.
    std::vector<ClientSpec> clients = mixedFleet(32);
    auto compare = [&](const BandwidthAllocator &alloc) {
        ServerOptions opts = mixedFleetOptions(alloc, 2.0);
        opts.loop = ServerLoop::PriorityQueue;
        ServerResult heap = runServer(clients, opts);
        opts.loop = ServerLoop::LinearScan;
        return std::make_pair(heap, runServer(clients, opts));
    };
    WeightedShareAllocator weighted;
    DeadlineAllocator deadline;
    EdgeCompletePropFair propfair(/*quantum=*/1'000'000);
    for (const BandwidthAllocator *alloc :
         std::initializer_list<const BandwidthAllocator *>{
             &weighted, &deadline, &propfair}) {
        auto [heap, lin] = compare(*alloc);
        expectSameFleet(heap, lin, alloc->name());
    }

    // The shipped PropFairAllocator lacks that edge (ROADMAP item 3a):
    // a mispredicted block's first boost lands at whatever allocation
    // comes next, which is the next event under LinearScan but a later
    // one under the heap loop's skips, so here the two loops part.
    // Once nextRefresh declares the edge this becomes expectSameFleet.
    PropFairAllocator shipped(/*aging_quantum_cycles=*/1'000'000);
    auto [heap, lin] = compare(shipped);
    EXPECT_NE(heap.enginesRetimed, lin.enginesRetimed);
}

TEST(ServerSim, WorkCountersArePinnedPerAllocator)
{
    // Deterministic work counters of the heap loop on one fixed fleet
    // per allocator. They measure how much work the loop does, not
    // what it computes: a loop rewrite must leave all four unchanged.
    struct Pin
    {
        const char *allocator;
        uint64_t events, allocatorRuns, allocationIntervals,
            enginesRetimed;
    };
    const Pin pins[] = {
        {"equal", 17494, 128, 128, 4080},
        {"weighted", 17511, 128, 128, 4076},
        {"deadline", 17500, 4172, 2248, 4482},
        {"propfair", 20770, 7393, 5127, 291491},
    };
    std::vector<ClientSpec> clients = mixedFleet(64);
    for (const Pin &pin : pins) {
        std::unique_ptr<BandwidthAllocator> alloc =
            makeAllocator(pin.allocator);
        ServerResult sr =
            runServer(clients, mixedFleetOptions(*alloc, 4.0));
        EXPECT_EQ(sr.events, pin.events) << pin.allocator;
        EXPECT_EQ(sr.allocatorRuns, pin.allocatorRuns) << pin.allocator;
        EXPECT_EQ(sr.allocationIntervals, pin.allocationIntervals)
            << pin.allocator;
        EXPECT_EQ(sr.enginesRetimed, pin.enginesRetimed) << pin.allocator;
    }
}

TEST(ServerSim, AdmissionLimitSerializesAndStaysSoloExact)
{
    // admissionLimit = 1 with ample capacity turns the fleet into a
    // FIFO batch queue: each client is admitted exactly when its
    // predecessor finishes, and — since its replay clock starts at
    // admission and it then owns the uplink alone — its SimResult is
    // the solo result exactly.
    const SimContext &ctx = zipperCtx();
    SimConfig cfg = baseConfig(SimConfig::Mode::Parallel, kT1Link);
    SimResult solo = runReplay(ctx, cfg, nullptr);
    std::vector<ClientSpec> clients(4, {&ctx, cfg, 1.0, ""});

    EqualShareAllocator equal;
    ServerOptions opts;
    opts.uplinkBytesPerCycle = 4.0 * linkRate(kT1Link);
    opts.allocator = &equal;
    opts.admissionLimit = 1;
    ServerResult sr = runServer(clients, opts);

    uint64_t prevFinish = 0;
    for (size_t i = 0; i < sr.clients.size(); ++i) {
        const ServerClientResult &c = sr.clients[i];
        EXPECT_EQ(c.arrival, 0u);
        EXPECT_EQ(c.admitted, prevFinish) << c.name;
        expectSameResult(c.sim, solo, c.name);
        EXPECT_EQ(c.finished, c.admitted + solo.totalCycles);
        prevFinish = c.finished;
    }
    EXPECT_EQ(sr.makespan, 4 * solo.totalCycles);

    // Unlimited admission on the same ample uplink: everyone runs at
    // once and still matches solo (the no-door baseline), finishing
    // the fleet 4x sooner.
    opts.admissionLimit = 0;
    ServerResult open = runServer(clients, opts);
    EXPECT_EQ(open.makespan, solo.totalCycles);
    for (const ServerClientResult &c : open.clients) {
        EXPECT_EQ(c.admitted, c.arrival);
        expectSameResult(c.sim, solo, c.name);
    }
}

TEST(ServerSim, ArrivalPlansSaturateInsteadOfWrapping)
{
    // Absurd gaps must clamp to UINT64_MAX ("never"), not wrap to
    // small cycles: a wrapped arrival would silently reorder the
    // fleet. Staggered multiplies index * gap.
    ArrivalPlan plan;
    plan.kind = ArrivalKind::Staggered;
    plan.meanGapCycles = UINT64_MAX / 2;
    std::vector<uint64_t> a = plan.cycles(4);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_EQ(a[0], 0u);
    EXPECT_EQ(a[1], UINT64_MAX / 2);
    EXPECT_EQ(a[3], UINT64_MAX); // 3 * gap overflows -> saturates
}

} // namespace
} // namespace nse
