/**
 * @file
 * Use-distance analysis: the backward per-method UseDistanceProblem
 * and its worklist solver, plus the interprocedural RTA fixpoint.
 *
 * Soundness shape (full derivation in DESIGN.md §14):
 *
 *  - The replay clock charges each decoded instruction's cost at
 *    dispatch, before its handler runs, so the first-use hook of a
 *    callee fires at exactly (cycles before the invoke) + (invoke
 *    instruction cost) — for bytecode and native callees alike. Path
 *    sums over the `plain` stream therefore *are* hook clocks.
 *  - mayMin is a shortest-distance fixpoint over the full CFG
 *    (back edges included): any concrete execution walk costs at
 *    least the min-fixpoint distance, loops or not.
 *  - must facts are killed across back edges and their mustMax
 *    bounds saturate to infinity through loops and recursion: a
 *    finite mustMax survives only along loop-free guaranteed
 *    prefixes, which is exactly where a bound is provable (loop trip
 *    counts are statically unbounded).
 *  - The interprocedural fixpoint starts pessimistic (no facts,
 *    maxExec = inf) and is monotone per component — may memberships
 *    grow and min distances only fall; must memberships grow only as
 *    callee maxExec bounds become finite, and every intermediate
 *    max-side value over-approximates the truth — so the fixpoint is
 *    sound and iteration terminates.
 *  - The solver visits the call graph's strongly connected components
 *    callees-first and iterates only inside a recursive component.
 *    Every fair order of a monotone system reaches the same fixpoint
 *    from the same start, so the order changes the work, never the
 *    summaries.
 */

#include "analysis/dataflow.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "analysis/cfg.h"
#include "support/error.h"
#include "vm/decoded.h"
#include "vm/natives.h"

namespace nse
{

namespace
{

const MethodUseSummary &
pessimisticSummary()
{
    // No uses, exec interval [0, inf): the sound "know nothing"
    // placeholder for methods not yet solved (or RTA-unreachable
    // dispatch leftovers).
    static const MethodUseSummary kUnknown = [] {
        MethodUseSummary s;
        s.minExec = 0;
        s.maxExec = kDistInf;
        return s;
    }();
    return kUnknown;
}

/**
 * Backward use-distance problem for one method body. State at a
 * program point = facts about everything used from that point to the
 * method's return, plus the exec-cost interval of getting to the
 * return. solveBackward drives it through:
 *
 *   boundary()        the state at a return (a block without
 *                     successors);
 *   init()            the seed of every block not yet solved;
 *   meet(into, from)  the join over a block's successors;
 *   acrossBackEdge()  the value a back edge carries;
 *   transfer()        block-exit state -> block-entry state.
 */
struct UseDistanceProblem
{
    struct State
    {
        std::map<MethodId, UseFact> uses;
        uint64_t minExit = 0;
        uint64_t maxExit = 0;

        bool
        operator==(const State &o) const
        {
            return uses == o.uses && minExit == o.minExit &&
                   maxExit == o.maxExit;
        }
    };

    /** The fixpoint's current (pessimistic-side) view of every
     *  method's summary. */
    const UseAnalysis &current;
    const std::vector<DInst> &plain;
    /** Call sites of this method keyed by instruction index. */
    std::map<uint32_t, const CallSite *> siteAt;

    UseDistanceProblem(const UseAnalysis &ua, const MethodNode &node,
                       const std::vector<DInst> &plain_stream)
        : current(ua), plain(plain_stream)
    {
        for (const CallSite &s : node.sites)
            siteAt.emplace(s.instIndex, &s);
    }

    const MethodUseSummary &
    summaryOf(MethodId id) const
    {
        return current.summary(id);
    }

    State
    boundary() const
    {
        return State{}; // at a return: nothing more used, zero cost
    }

    State
    init() const
    {
        // Pre-fixpoint seed read only through back edges before the
        // source block settles: must claim nothing (no facts) and
        // keep the min side at infinity so it cannot leak a
        // too-small distance into an early meet.
        State s;
        s.minExit = kDistInf;
        s.maxExit = kDistInf;
        return s;
    }

    void
    meet(State &into, const State &from) const
    {
        // Path join: may = union/min, must = intersection/max.
        for (auto &[id, f] : from.uses) {
            auto [it, fresh] = into.uses.emplace(id, f);
            if (fresh)
                it->second.must = false; // absent on the other branch
            else {
                UseFact &g = it->second;
                g.mayMin = std::min(g.mayMin, f.mayMin);
                if (g.must && f.must)
                    g.mustMax = std::max(g.mustMax, f.mustMax);
                else
                    g.must = false;
            }
        }
        for (auto &[id, f] : into.uses)
            if (f.must && from.uses.find(id) == from.uses.end())
                f.must = false;
        into.minExit = std::min(into.minExit, from.minExit);
        into.maxExit = std::max(into.maxExit, from.maxExit);
    }

    State
    acrossBackEdge(const State &from) const
    {
        // Loops: the min side flows (shortest-distance fixpoint over
        // the cyclic graph — sound for every walk); the must side is
        // killed and the exit upper bound saturates (trip counts are
        // statically unbounded).
        State s;
        for (auto &[id, f] : from.uses) {
            UseFact g;
            g.mayMin = f.mayMin;
            s.uses.emplace(id, g);
        }
        s.minExit = from.minExit;
        s.maxExit = kDistInf;
        return s;
    }

    /** Fold one call site (invoke cost already handled by caller:
     *  the hook fires `cost` cycles after the pre-call point). */
    void
    applyCall(State &state, const CallSite &site, uint64_t cost) const
    {
        const std::vector<MethodId> &cands = site.rtaTargets;
        if (cands.empty()) {
            // RTA-impossible dispatch: site can never execute a call;
            // treat as a plain instruction.
            shift(state, cost);
            return;
        }
        uint64_t min_exec = kDistInf, max_exec = 0;
        for (MethodId c : cands) {
            const MethodUseSummary &s = summaryOf(c);
            min_exec = std::min(min_exec, s.minExec);
            max_exec = std::max(max_exec, s.maxExec);
        }

        State out; // state at the pre-call point
        out.minExit = distAdd(cost, distAdd(min_exec, state.minExit));
        out.maxExit = distAdd(cost, distAdd(max_exec, state.maxExit));

        // Everything reachable at or through the call, plus the
        // continuation shifted by the call's exec interval.
        auto &uses = out.uses;
        auto mergeMay = [&](MethodId id, uint64_t may_min) {
            auto [it, fresh] = uses.emplace(id, UseFact{});
            if (fresh || may_min < it->second.mayMin)
                it->second.mayMin = may_min;
        };
        for (MethodId c : cands) {
            mergeMay(c, cost); // the callee's own hook
            for (auto &[id, f] : summaryOf(c).uses)
                mergeMay(id, distAdd(cost, f.mayMin));
        }
        for (auto &[id, f] : state.uses)
            mergeMay(id, distAdd(cost, distAdd(min_exec, f.mayMin)));

        // Must side: a target is guaranteed here if every dispatch
        // candidate guarantees it (being the candidate counts), or if
        // the continuation guarantees it and every candidate provably
        // returns. Take the tighter of the two bounds when both hold.
        auto considerMust = [&](MethodId id, uint64_t must_max) {
            auto it = uses.find(id);
            NSE_ASSERT(it != uses.end(),
                       "must fact without matching may fact");
            UseFact &g = it->second;
            if (!g.must || must_max < g.mustMax) {
                g.must = true;
                g.mustMax = std::min(g.mustMax, must_max);
            }
        };
        // ... via the callee(s):
        {
            std::map<MethodId, uint64_t> by_all;
            bool first = true;
            for (MethodId c : cands) {
                const MethodUseSummary &s = summaryOf(c);
                std::map<MethodId, uint64_t> mine;
                mine.emplace(c, 0);
                for (auto &[id, f] : s.uses)
                    if (f.must)
                        mine.emplace(id, f.mustMax);
                if (first) {
                    by_all = std::move(mine);
                    first = false;
                } else {
                    for (auto it = by_all.begin();
                         it != by_all.end();) {
                        auto jt = mine.find(it->first);
                        if (jt == mine.end()) {
                            it = by_all.erase(it);
                        } else {
                            it->second =
                                std::max(it->second, jt->second);
                            ++it;
                        }
                    }
                }
            }
            for (auto &[id, m] : by_all)
                considerMust(id, distAdd(cost, m));
        }
        // ... via the continuation:
        for (auto &[id, f] : state.uses)
            if (f.must)
                considerMust(
                    id, distAdd(cost, distAdd(max_exec, f.mustMax)));

        state = std::move(out);
    }

    void
    shift(State &state, uint64_t cost) const
    {
        state.minExit = distAdd(state.minExit, cost);
        state.maxExit = distAdd(state.maxExit, cost);
        for (auto &[id, f] : state.uses) {
            f.mayMin = distAdd(f.mayMin, cost);
            if (f.must)
                f.mustMax = distAdd(f.mustMax, cost);
        }
    }

    State
    transfer(const Cfg &cfg, uint32_t block, const State &flow_in) const
    {
        State state = flow_in;
        const BasicBlock &b = cfg.blocks[block];
        for (uint32_t i = b.last + 1; i-- > b.first;) {
            uint64_t cost = plain[i].cost;
            auto site = siteAt.find(i);
            if (site != siteAt.end())
                applyCall(state, *site->second, cost);
            else
                shift(state, cost);
        }
        return state;
    }
};

/**
 * Worklist solve of one method body; returns the state at the entry
 * of block 0, the method's entry. Blocks are visited in post order of the forward CFG
 * (reverse post order of the reversed graph for the loop-free core),
 * so an acyclic body settles in one pass; a block whose entry or exit
 * state moved re-dirties its predecessors until the fixpoint.
 * Termination is the problem's contract: meet/transfer are monotone
 * on a chain-finite lattice.
 */
UseDistanceProblem::State
solveBackward(const Cfg &cfg, const UseDistanceProblem &prob)
{
    using State = UseDistanceProblem::State;
    size_t n = cfg.blocks.size();
    std::vector<State> in(n, prob.init()), out(n, prob.init());

    // Post order of the forward CFG via iterative DFS from the entry.
    std::vector<uint32_t> post;
    post.reserve(n);
    {
        std::vector<uint8_t> seen(n, 0);
        std::vector<std::pair<uint32_t, size_t>> stack;
        stack.emplace_back(0, 0);
        seen[0] = 1;
        while (!stack.empty()) {
            auto &[b, next] = stack.back();
            if (next < cfg.blocks[b].succs.size()) {
                uint32_t s = cfg.blocks[b].succs[next++];
                if (!seen[s]) {
                    seen[s] = 1;
                    stack.emplace_back(s, 0);
                }
            } else {
                post.push_back(b);
                stack.pop_back();
            }
        }
    }

    std::vector<uint8_t> dirty(n, 1);
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : post) {
            if (!dirty[b])
                continue;
            dirty[b] = 0;
            std::optional<State> acc;
            for (uint32_t s : cfg.blocks[b].succs) {
                State v = cfg.isBackEdge(b, s) ? prob.acrossBackEdge(in[s])
                                               : in[s];
                if (!acc)
                    acc = std::move(v);
                else
                    prob.meet(*acc, v);
            }
            State exit = acc ? std::move(*acc) : prob.boundary();
            State entry = prob.transfer(cfg, b, exit);
            bool moved = !(out[b] == exit) || !(in[b] == entry);
            out[b] = std::move(exit);
            in[b] = std::move(entry);
            if (moved) {
                changed = true;
                for (uint32_t p : cfg.blocks[b].preds)
                    dirty[p] = 1;
            }
        }
    }
    return std::move(in[0]);
}

MethodUseSummary
solveMethod(const UseAnalysis &current, const MethodNode &node,
            const Cfg &cfg, const DecodedMethod &dm)
{
    NSE_ASSERT(dm.plain.size() == cfg.insts.size(),
               "decoded plain stream out of step with the CFG");
    UseDistanceProblem prob(current, node, dm.plain);
    UseDistanceProblem::State entry = solveBackward(cfg, prob);
    MethodUseSummary s;
    s.uses = std::move(entry.uses);
    s.minExec = entry.minExit;
    s.maxExec = entry.maxExit;
    return s;
}

MethodUseSummary
nativeSummary(const Program &prog, MethodId id,
              const NativeRegistry *natives)
{
    MethodUseSummary s;
    if (!natives) {
        s.minExec = 0;
        s.maxExec = kDistInf;
        return s;
    }
    const ClassFile &cf = prog.classAt(id.classIdx);
    std::string qualified =
        cf.name() + "." + cf.methodName(prog.method(id));
    if (!natives->has(qualified)) {
        s.minExec = 0;
        s.maxExec = kDistInf;
        return s;
    }
    uint64_t cost = natives->lookup(qualified).cycleCost;
    s.minExec = cost;
    s.maxExec = cost;
    return s;
}

/**
 * Strongly connected components of a dense graph by Tarjan's
 * algorithm, with an explicit DFS stack so chain depth cannot
 * overflow the call stack. Components come out callees-first: every
 * edge leaving a component points into one emitted before it.
 */
struct Condensation
{
    /** Nodes grouped by component, components in emission order. */
    std::vector<uint32_t> nodes;
    /** Component c holds nodes[begin[c] .. begin[c + 1]). */
    std::vector<uint32_t> begin;
    /** Component of every node. */
    std::vector<uint32_t> compOf;
};

Condensation
condense(const std::vector<std::vector<uint32_t>> &succs)
{
    constexpr uint32_t kUnseen = UINT32_MAX;
    uint32_t n = static_cast<uint32_t>(succs.size());
    Condensation out;
    out.compOf.assign(n, kUnseen);
    out.nodes.reserve(n);
    std::vector<uint32_t> order(n, kUnseen), low(n, 0);
    std::vector<uint32_t> open; // Tarjan's stack of unassigned nodes
    std::vector<std::pair<uint32_t, size_t>> dfs;
    uint32_t next = 0;
    auto discover = [&](uint32_t v) {
        order[v] = low[v] = next++;
        open.push_back(v);
        dfs.emplace_back(v, 0);
    };
    for (uint32_t root = 0; root < n; ++root) {
        if (order[root] != kUnseen)
            continue;
        discover(root);
        while (!dfs.empty()) {
            auto [v, i] = dfs.back();
            if (i < succs[v].size()) {
                ++dfs.back().second;
                uint32_t w = succs[v][i];
                if (order[w] == kUnseen)
                    discover(w);
                else if (out.compOf[w] == kUnseen) // still open
                    low[v] = std::min(low[v], order[w]);
                continue;
            }
            dfs.pop_back();
            if (!dfs.empty()) {
                uint32_t parent = dfs.back().first;
                low[parent] = std::min(low[parent], low[v]);
            }
            if (low[v] != order[v])
                continue;
            uint32_t comp = static_cast<uint32_t>(out.begin.size());
            out.begin.push_back(static_cast<uint32_t>(out.nodes.size()));
            uint32_t w;
            do {
                w = open.back();
                open.pop_back();
                out.compOf[w] = comp;
                out.nodes.push_back(w);
            } while (w != v);
        }
    }
    out.begin.push_back(static_cast<uint32_t>(out.nodes.size()));
    return out;
}

} // namespace

const MethodUseSummary &
UseAnalysis::summary(MethodId id) const
{
    if (id.classIdx >= slot_.size() ||
        id.methodIdx >= slot_[id.classIdx].size() ||
        slot_[id.classIdx][id.methodIdx] == kNoSlot)
        return pessimisticSummary();
    return summaries_[slot_[id.classIdx][id.methodIdx]];
}

UseFact
UseAnalysis::globalOf(MethodId id) const
{
    auto it = global_.find(id);
    return it == global_.end() ? UseFact{} : it->second;
}

UseAnalysis
analyzeUse(const Program &prog, const CallGraph &cg,
           const DecodedCache &decoded, const NativeRegistry *natives)
{
    UseAnalysis ua;

    // RTA-reachable methods only, densely numbered: everything else
    // can never fire a first-use hook in any run, so it needs no
    // summary (and the property `may subset-of RTA-reachable` holds by
    // construction). Bytecode methods start from the pessimistic
    // summary the solver refines; natives are constant.
    std::vector<MethodId> methods;
    ua.slot_.resize(prog.classCount());
    for (uint16_t c = 0; c < prog.classCount(); ++c) {
        uint16_t mcount =
            static_cast<uint16_t>(prog.classAt(c).methods.size());
        ua.slot_[c].assign(mcount, UseAnalysis::kNoSlot);
        for (uint16_t m = 0; m < mcount; ++m) {
            MethodId id{c, m};
            if (!cg.rtaReachable(id))
                continue;
            ua.slot_[c][m] = static_cast<uint32_t>(methods.size());
            methods.push_back(id);
            ua.summaries_.push_back(cg.node(id).native
                                        ? nativeSummary(prog, id, natives)
                                        : pessimisticSummary());
        }
    }

    // Caller -> callee edges over the RTA dispatch candidates, and
    // their reverse for re-queueing callers inside a component.
    size_t n = methods.size();
    std::vector<std::vector<uint32_t>> callees(n), callers(n);
    for (uint32_t v = 0; v < n; ++v) {
        for (const CallSite &site : cg.node(methods[v]).sites)
            for (MethodId t : site.rtaTargets)
                callees[v].push_back(ua.slot_[t.classIdx][t.methodIdx]);
        std::sort(callees[v].begin(), callees[v].end());
        callees[v].erase(
            std::unique(callees[v].begin(), callees[v].end()),
            callees[v].end());
        for (uint32_t w : callees[v])
            callers[w].push_back(v);
    }

    // Solve components callees-first, so every call out of a
    // component reads a final summary. Inside one, re-solve a method
    // only when an in-component callee's summary moved; a
    // non-recursive method is solved exactly once.
    Condensation sccs = condense(callees);
    std::vector<Cfg> cfgs(n);
    std::vector<uint8_t> queued(n, 0);
    std::deque<uint32_t> work;
    for (size_t c = 0; c + 1 < sccs.begin.size(); ++c) {
        for (uint32_t k = sccs.begin[c]; k < sccs.begin[c + 1]; ++k) {
            uint32_t v = sccs.nodes[k];
            if (cg.node(methods[v]).native)
                continue; // summary is constant
            cfgs[v] = buildCfg(prog, methods[v]);
            work.push_back(v);
            queued[v] = 1;
        }
        while (!work.empty()) {
            uint32_t v = work.front();
            work.pop_front();
            queued[v] = 0;
            ++ua.iterations_;
            MethodUseSummary next =
                solveMethod(ua, cg.node(methods[v]), cfgs[v],
                            decoded.get(methods[v]));
            if (ua.summaries_[v] == next)
                continue;
            ua.summaries_[v] = std::move(next);
            for (uint32_t u : callers[v])
                if (sccs.compOf[u] == c && !queued[u]) {
                    work.push_back(u);
                    queued[u] = 1;
                }
        }
    }

    // Global view: the entry method's summary, plus the entry itself
    // (its hook fires at clock 0 before any instruction runs).
    MethodId entry = prog.entry();
    ua.global_ = ua.summary(entry).uses;
    UseFact self;
    self.mayMin = 0;
    self.must = true;
    self.mustMax = 0;
    auto [it, fresh] = ua.global_.emplace(entry, self);
    if (!fresh)
        it->second = self;
    return ua;
}

} // namespace nse
