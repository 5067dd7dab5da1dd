/**
 * @file
 * Use-distance analysis tests.
 *
 * The load-bearing checks are the soundness pins against recorded
 * execution traces: for every first-use event the hook clock must sit
 * inside the analysis's [mayMin, mustMax] envelope, on the real
 * workloads and on randomized synthetic programs alike. These are the
 * facts the static stall prover's sandwich rests on
 * (analysis/stall_bounds.h).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/callgraph.h"
#include "analysis/dataflow.h"
#include "analysis/first_use.h"
#include "program/builder.h"
#include "sim/context.h"
#include "support/error.h"
#include "support/fnv1a.h"
#include "support/rng.h"
#include "vm/decoded.h"
#include "vm/natives.h"
#include "workloads/synthetic.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

/** Shared soundness pins for one analyzed, traced program. */
void
checkAnalysisAgainstTrace(const Program &prog, const CallGraph &cg,
                          const UseAnalysis &ua, const ExecTrace &trace)
{
    // First hook clock per method, from the recorded run.
    std::map<MethodId, uint64_t> first_clock;
    for (const TraceEvent &ev : trace.events)
        first_clock.emplace(ev.method, ev.execClock);

    // may is a subset of RTA-reachable; must is a subset of may (a
    // must fact lives inside a may entry, so the containment is
    // structural — what we check is that its bounds are coherent).
    for (const auto &[id, f] : ua.global()) {
        EXPECT_TRUE(cg.rtaReachable(id))
            << "may-used method not RTA-reachable: "
            << prog.methodLabel(id);
        if (f.must && f.mustMax != kDistInf) {
            EXPECT_LE(f.mayMin, f.mustMax)
                << prog.methodLabel(id);
        }
    }

    // Every traced first use is predicted possible, no earlier than
    // its mayMin lower bound.
    for (const auto &[id, clk] : first_clock) {
        auto it = ua.global().find(id);
        ASSERT_NE(it, ua.global().end())
            << "traced method missing from the may set: "
            << prog.methodLabel(id);
        EXPECT_LE(it->second.mayMin, clk) << prog.methodLabel(id);
    }

    // Every must fact is realized: the method executed, and within
    // its proved deadline when the bound is finite.
    for (const auto &[id, f] : ua.global()) {
        if (!f.must)
            continue;
        auto it = first_clock.find(id);
        ASSERT_NE(it, first_clock.end())
            << "must-used method never executed: "
            << prog.methodLabel(id);
        if (f.mustMax != kDistInf) {
            EXPECT_LE(it->second, f.mustMax) << prog.methodLabel(id);
        }
    }

    // The entry method anchors the lattice.
    UseFact entry = ua.globalOf(prog.entry());
    EXPECT_TRUE(entry.must);
    EXPECT_EQ(entry.mayMin, 0u);
    EXPECT_EQ(entry.mustMax, 0u);
}

TEST(UseAnalysis, SoundAgainstEveryWorkloadTrace)
{
    for (Workload &w : allWorkloads()) {
        SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
        SCOPED_TRACE(w.name);
        checkAnalysisAgainstTrace(w.program, ctx.callGraph(),
                                  ctx.useAnalysis(), ctx.trace());
    }
}

/** One randomized program of the synthetic sweep, with its input. */
struct SweepCase
{
    SyntheticSpec spec;
    std::vector<int64_t> input;
};

/** The sweep's five rounds for one seed. */
std::vector<SweepCase>
sweepCases(uint64_t seed)
{
    Rng rng(seed ^ 0xdf10);
    std::vector<SweepCase> cases;
    for (int round = 0; round < 5; ++round) {
        SweepCase c;
        c.spec.seed = rng.next();
        c.spec.classCount = 2 + static_cast<int>(rng.below(5));
        c.spec.methodsPerClass = 2 + static_cast<int>(rng.below(7));
        c.spec.reachablePct = 40 + static_cast<int>(rng.below(61));
        c.spec.workScale = 1 + static_cast<int>(rng.below(16));
        c.input.resize(rng.below(16));
        for (int64_t &v : c.input)
            v = static_cast<int64_t>(rng.below(2001)) - 1000;
        cases.push_back(std::move(c));
    }
    return cases;
}

constexpr uint64_t kSweepSeeds[] = {21, 22, 23, 24};

class SyntheticSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SyntheticSweep, MustWithinMayWithinRtaOnRandomPrograms)
{
    NativeRegistry natives = standardNatives();
    for (const SweepCase &c : sweepCases(GetParam())) {
        Program prog = makeSyntheticProgram(c.spec);
        SCOPED_TRACE("seed " + std::to_string(c.spec.seed));

        CallGraph cg = buildCallGraph(prog);
        DecodedCache dc(prog);
        UseAnalysis ua = analyzeUse(prog, cg, dc, &natives);

        ExecTrace trace =
            recordTrace(prog, natives, c.input, {}, &dc);
        checkAnalysisAgainstTrace(prog, cg, ua, trace);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticSweep,
                         ::testing::ValuesIn(kSweepSeeds));

/** Every RTA-reachable method, by class then method index. */
std::vector<MethodId>
rtaMethods(const Program &prog, const CallGraph &cg)
{
    std::vector<MethodId> ids;
    for (uint16_t c = 0; c < prog.classCount(); ++c)
        for (uint16_t m = 0; m < prog.classAt(c).methods.size(); ++m)
            if (cg.rtaReachable(MethodId{c, m}))
                ids.push_back(MethodId{c, m});
    return ids;
}

/** Fold one fact into the pin digest. */
void
foldFact(Fnv1a &h, MethodId id, const UseFact &f)
{
    h.u64(id.classIdx);
    h.u64(id.methodIdx);
    h.u64(f.mayMin);
    h.u64(f.must);
    h.u64(f.mustMax);
}

/** Fold every RTA-reachable method's summary and the global view. */
void
foldAnalysis(Fnv1a &h, const Program &prog, const CallGraph &cg,
             const UseAnalysis &ua)
{
    for (MethodId id : rtaMethods(prog, cg)) {
        const MethodUseSummary &s = ua.summary(id);
        h.u64(id.classIdx);
        h.u64(id.methodIdx);
        h.u64(s.uses.size());
        for (const auto &[t, f] : s.uses)
            foldFact(h, t, f);
        h.u64(s.minExec);
        h.u64(s.maxExec);
    }
    h.u64(ua.global().size());
    for (const auto &[t, f] : ua.global())
        foldFact(h, t, f);
}

/** Does some RTA call cycle run through two or more methods? */
bool
hasMultiMethodCycle(const Program &prog, const CallGraph &cg)
{
    std::vector<MethodId> ids = rtaMethods(prog, cg);
    std::map<MethodId, size_t> index;
    for (size_t i = 0; i < ids.size(); ++i)
        index.emplace(ids[i], i);
    // reach[a][b]: b is reachable from a over one or more RTA edges.
    size_t n = ids.size();
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n));
    for (size_t a = 0; a < n; ++a) {
        std::vector<size_t> stack{a};
        while (!stack.empty()) {
            size_t v = stack.back();
            stack.pop_back();
            for (const CallSite &s : cg.node(ids[v]).sites)
                for (MethodId t : s.rtaTargets) {
                    size_t w = index.at(t);
                    if (!reach[a][w]) {
                        reach[a][w] = true;
                        stack.push_back(w);
                    }
                }
        }
    }
    for (size_t a = 0; a < n; ++a)
        for (size_t b = a + 1; b < n; ++b)
            if (reach[a][b] && reach[b][a])
                return true;
    return false;
}

TEST(UseAnalysis, SummariesArePinned)
{
    // Every summary and global fact over the six workloads and the
    // synthetic sweep. The value is order-independent by construction
    // (DESIGN.md §14): any change to the interprocedural solver that
    // moves it has changed the fixpoint, not just the work to reach it.
    Fnv1a h;
    bool multi_method_scc = false;
    for (Workload &w : allWorkloads()) {
        CallGraph cg = buildCallGraph(w.program);
        DecodedCache dc(w.program);
        UseAnalysis ua = analyzeUse(w.program, cg, dc, &w.natives);
        h.str(w.name);
        foldAnalysis(h, w.program, cg, ua);
        multi_method_scc |= hasMultiMethodCycle(w.program, cg);
    }
    NativeRegistry natives = standardNatives();
    for (uint64_t seed : kSweepSeeds) {
        for (const SweepCase &c : sweepCases(seed)) {
            Program prog = makeSyntheticProgram(c.spec);
            CallGraph cg = buildCallGraph(prog);
            DecodedCache dc(prog);
            UseAnalysis ua = analyzeUse(prog, cg, dc, &natives);
            h.u64(c.spec.seed);
            foldAnalysis(h, prog, cg, ua);
            multi_method_scc |= hasMultiMethodCycle(prog, cg);
        }
    }
    // The corpus must exercise iteration inside a recursive cycle.
    EXPECT_TRUE(multi_method_scc);
    EXPECT_EQ(h.h, 0x23d5f1c907daefdbull);
}

TEST(UseAnalysis, SolveCountIsPinned)
{
    // Method solves over the six workloads: one per non-recursive
    // bytecode method plus the re-solves inside recursive cycles. A
    // deterministic work counter, so a solver-order regression shows
    // without timing noise.
    size_t solves = 0, bytecode = 0;
    for (Workload &w : allWorkloads()) {
        CallGraph cg = buildCallGraph(w.program);
        DecodedCache dc(w.program);
        solves += analyzeUse(w.program, cg, dc, &w.natives).iterations();
        for (MethodId id : rtaMethods(w.program, cg))
            bytecode += !cg.node(id).native;
    }
    EXPECT_EQ(bytecode, 1551u);
    EXPECT_EQ(solves, 1559u);
}

TEST(UseAnalysis, DeepCallChainSolvesEachMethodOnce)
{
    // main -> f1 -> f2 -> ... -> fN, each callee declared after its
    // caller, so a solver that sweeps methods in declaration order
    // needs one sweep per link. The callees-first order solves each
    // method once, and the component search must not recurse per link.
    constexpr int kChain = 2000;
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    auto name = [](int i) { return cat("f", i); };
    MethodBuilder &m = t.addMethod("main", "()V");
    m.invokeStatic("T", name(1), "()V");
    m.emit(Opcode::RETURN);
    for (int i = 1; i <= kChain; ++i) {
        MethodBuilder &f = t.addMethod(name(i), "()V");
        if (i < kChain)
            f.invokeStatic("T", name(i + 1), "()V");
        f.emit(Opcode::RETURN);
    }
    Program prog = pb.build("T");

    CallGraph cg = buildCallGraph(prog);
    ASSERT_EQ(cg.rtaReachableCount(), size_t{kChain} + 1);
    DecodedCache dc(prog);
    UseAnalysis ua = analyzeUse(prog, cg, dc);
    EXPECT_EQ(ua.iterations(), size_t{kChain} + 1);

    // Every link is must-used, in declaration order, at a finite
    // deadline; the deepest callee returns last.
    uint64_t last = 0;
    for (int i = 1; i <= kChain; ++i) {
        UseFact f = ua.globalOf(prog.resolveStatic("T", name(i), "()V"));
        ASSERT_TRUE(f.must) << name(i);
        ASSERT_NE(f.mustMax, kDistInf) << name(i);
        EXPECT_GT(f.mayMin, last) << name(i);
        last = f.mayMin;
    }
}

TEST(MustUseOrdering, PermutesRtaSlotsOnly)
{
    for (Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
        const FirstUseOrder &rta =
            ctx.ordering(OrderingSource::RtaStatic);
        const FirstUseOrder &mu = ctx.ordering(OrderingSource::MustUse);
        const UseAnalysis &ua = ctx.useAnalysis();

        ASSERT_EQ(mu.order.size(), rta.order.size());
        EXPECT_EQ(mu.usedCount, rta.usedCount);
        // Same methods overall; the cold/dead tail is untouched.
        std::set<MethodId> a(mu.order.begin(), mu.order.end());
        std::set<MethodId> b(rta.order.begin(), rta.order.end());
        EXPECT_EQ(a, b);
        for (size_t i = mu.usedCount; i < mu.order.size(); ++i)
            EXPECT_EQ(mu.order[i], rta.order[i]);
        // Slots not holding a proved-deadline method are untouched;
        // the proved ones appear in ascending deadline order.
        uint64_t last = 0;
        for (size_t i = 0; i < mu.usedCount; ++i) {
            UseFact f = ua.globalOf(mu.order[i]);
            if (f.must && f.mustMax != kDistInf) {
                EXPECT_GE(f.mustMax, last);
                last = f.mustMax;
            } else {
                EXPECT_EQ(mu.order[i], rta.order[i]);
            }
        }
    }
}

} // namespace
} // namespace nse
