/**
 * @file
 * Reusable dataflow framework over the decoded-IR CFG, plus the
 * use-distance analysis the static stall prover is built on.
 *
 * Two layers:
 *
 *  1. A generic intraprocedural solver (`solveDataflow`): forward or
 *     backward, problem-defined meet and transfer, worklist iteration
 *     in (reverse) post order. Problems see back edges explicitly and
 *     choose what flows across them, so a single engine serves both
 *     cyclic fixpoints (shortest-distance style) and acyclic
 *     must-style approximations that deliberately kill facts across
 *     loops.
 *
 *  2. `UseAnalysis`: per-method summaries of which callees each
 *     method *may* use (on some path) and *must* use (on every
 *     terminating path), with execution-cycle distances accumulated
 *     from the baked `DInst` per-opcode costs, composed
 *     interprocedurally over the RTA call graph to a fixpoint, one
 *     strongly connected component at a time, callees first. The
 *     distances speak the replay clock's language exactly: a first-use
 *     hook for callee `t` fires at `execClock(use)`, and the analysis
 *     guarantees
 *
 *         gMayMin(t)  <=  execClock(use of t)          (any run)
 *         execClock(first use of t) <= gMustMax(t)     (must-used t,
 *                                                       finite bound)
 *
 *     which is what turns a byte-arrival schedule into provable stall
 *     bounds (stall_bounds.h). See DESIGN.md §14 for the lattices and
 *     the soundness argument.
 */

#ifndef NSE_ANALYSIS_DATAFLOW_H
#define NSE_ANALYSIS_DATAFLOW_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/cfg.h"
#include "program/program.h"
#include "support/saturate.h"

namespace nse
{

class NativeRegistry;
class DecodedCache;

/** Which way facts flow through the CFG. */
enum class DataflowDir : uint8_t
{
    Forward,  ///< facts flow entry -> exit (join over predecessors)
    Backward, ///< facts flow exit -> entry (join over successors)
};

/**
 * Solved per-block states. For a Forward problem `in[b]` is the state
 * before the block and `out[b]` after it; for a Backward problem
 * `in[b]` is the state *at block entry* (the fact the block's first
 * instruction sees looking toward the exit) and `out[b]` the state at
 * block exit — i.e. `in = transfer(out)` in both namings.
 */
template <typename State>
struct DataflowResult
{
    std::vector<State> in;
    std::vector<State> out;
    /** Worklist passes until the fixpoint (diagnostics/tests). */
    size_t iterations = 0;
};

/**
 * Generic worklist solver. The Problem type supplies:
 *
 *   using State = ...;                 // value with operator==
 *   static constexpr DataflowDir dir;
 *   State boundary() const;            // entry (Forward) / exit
 *                                      // (Backward) boundary value
 *   State init() const;                // pre-meet seed for every
 *                                      // other block
 *   void meet(State &into, const State &from) const;
 *   std::optional<State> acrossBackEdge(const State &from) const;
 *                                      // value carried by a back
 *                                      // edge; nullopt drops the edge
 *   State transfer(const Cfg &cfg, uint32_t block,
 *                  const State &flow_in) const;
 *
 * Blocks are iterated in reverse post order (Forward) or post order
 * (Backward) so acyclic graphs settle in one pass; edges the problem
 * maps across `acrossBackEdge` re-enqueue their targets until the
 * fixpoint. Termination is the problem's contract: meet/transfer must
 * be monotone on a chain-finite lattice.
 */
template <typename Problem>
DataflowResult<typename Problem::State>
solveDataflow(const Cfg &cfg, const Problem &prob)
{
    using State = typename Problem::State;
    constexpr bool forward = Problem::dir == DataflowDir::Forward;
    size_t n = cfg.blocks.size();
    DataflowResult<State> r;
    r.in.assign(n, prob.init());
    r.out.assign(n, prob.init());

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
    // Iteration order: reverse post order for Forward, post order for
    // Backward (which is reverse post order of the reversed graph for
    // the loop-free core).
    std::vector<uint32_t> order(post);
    if (forward)
        std::reverse(order.begin(), order.end());

    std::vector<uint8_t> dirty(n, 1);
    bool changed = true;
    while (changed) {
        changed = false;
        ++r.iterations;
        for (uint32_t b : order) {
            if (!dirty[b])
                continue;
            dirty[b] = 0;
            const std::vector<uint32_t> &edges =
                forward ? cfg.blocks[b].preds : cfg.blocks[b].succs;
            std::optional<State> acc;
            for (uint32_t e : edges) {
                // Edge direction in the *forward* graph, for back-edge
                // classification.
                uint32_t from = forward ? e : b;
                uint32_t to = forward ? b : e;
                const State &neighbor = forward ? r.out[e] : r.in[e];
                std::optional<State> v =
                    cfg.isBackEdge(from, to)
                        ? prob.acrossBackEdge(neighbor)
                        : std::optional<State>(neighbor);
                if (!v)
                    continue;
                if (!acc)
                    acc = std::move(*v);
                else
                    prob.meet(*acc, *v);
            }
            State flow_in = acc ? std::move(*acc) : prob.boundary();
            State flow_out = prob.transfer(cfg, b, flow_in);
            State &slot_in = forward ? r.in[b] : r.out[b];
            State &slot_out = forward ? r.out[b] : r.in[b];
            bool moved =
                !(slot_in == flow_in) || !(slot_out == flow_out);
            slot_in = std::move(flow_in);
            slot_out = std::move(flow_out);
            if (moved) {
                changed = true;
                const std::vector<uint32_t> &next =
                    forward ? cfg.blocks[b].succs : cfg.blocks[b].preds;
                for (uint32_t s : next)
                    dirty[s] = 1;
            }
        }
    }
    return r;
}

/** Distance sentinel: unreachable / unbounded. */
constexpr uint64_t kDistInf = UINT64_MAX;

/** Saturating add over the distance domain. */
inline uint64_t
distAdd(uint64_t a, uint64_t b)
{
    if (a == kDistInf || b == kDistInf)
        return kDistInf;
    return satAdd(a, b);
}

/**
 * What one method (or the whole program, in the global view) knows
 * about its eventual use of a target method. Distances are execution
 * cycles from the owning scope's entry, in the decoded `DInst` cost
 * model — the same units the replay clock ticks in.
 */
struct UseFact
{
    /** Minimum execution cycles before the target's first-use hook
     *  can possibly fire (exact shortest path, loops included). */
    uint64_t mayMin = kDistInf;
    /** Guaranteed on every terminating path from the scope entry? */
    bool must = false;
    /** Upper bound on the first-use hook's cycle when `must`;
     *  kDistInf when the bound runs through a loop or recursion. */
    uint64_t mustMax = kDistInf;

    bool
    operator==(const UseFact &o) const
    {
        return mayMin == o.mayMin && must == o.must &&
               mustMax == o.mustMax;
    }
};

/** Per-method interprocedural summary. */
struct MethodUseSummary
{
    /** Facts about every target this method can reach, keyed by
     *  callee; distances relative to this method's entry. */
    std::map<MethodId, UseFact> uses;
    /** Execution-cost interval of running the method to its return:
     *  minExec is an exact lower bound; maxExec saturates to kDistInf
     *  when any path loops or recurses. */
    uint64_t minExec = 0;
    uint64_t maxExec = 0;

    bool
    operator==(const MethodUseSummary &o) const
    {
        return uses == o.uses && minExec == o.minExec &&
               maxExec == o.maxExec;
    }
};

/**
 * Must-use / may-use distance analysis: intraprocedural solve per
 * method through `solveDataflow`, composed over the RTA call graph to
 * a fixpoint. The call graph's strongly connected components are
 * solved callees-first, so a non-recursive method is solved exactly
 * once and only a recursive cycle iterates. Build once per (program,
 * call graph) via `analyzeUse()`; all accessors are const.
 */
class UseAnalysis
{
  public:
    /** Summary of one RTA-reachable bytecode or native method.
     *  Querying an unreachable method returns an empty summary. */
    const MethodUseSummary &summary(MethodId id) const;

    /**
     * The global view from the program entry: a fact per RTA-reachable
     * method, distances in execution cycles from program start. The
     * entry method itself is must-used at distance 0. Methods outside
     * the map are RTA-unreachable (never used, no transfer urgency).
     */
    const std::map<MethodId, UseFact> &global() const { return global_; }

    /** Global fact for one method; empty/never fact if unreachable. */
    UseFact globalOf(MethodId id) const;

    /**
     * Method solves the fixpoint ran: one per RTA-reachable bytecode
     * method, plus every re-solve inside a recursive cycle. A
     * deterministic work counter (diagnostics/tests).
     */
    size_t iterations() const { return iterations_; }

    /** Human-readable dump of the global view (debugging). */
    std::string render(const Program &prog) const;

  private:
    friend UseAnalysis analyzeUse(const Program &prog,
                                  const CallGraph &cg,
                                  const DecodedCache &decoded,
                                  const NativeRegistry *natives);

    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /** Dense index of every RTA-reachable method, by class then
     *  method index; kNoSlot for the unreachable. */
    std::vector<std::vector<uint32_t>> slot_;
    /** Summaries by dense index. */
    std::vector<MethodUseSummary> summaries_;
    std::map<MethodId, UseFact> global_;
    size_t iterations_ = 0;
};

/**
 * Run the analysis. `decoded` supplies the per-instruction cycle
 * costs (its `plain` stream is 1:1 with the verified instructions the
 * CFG is built over). `natives` prices native callees; pass nullptr
 * to treat native execution cost as the fully conservative [0, inf)
 * interval (sound, but kills must-facts scheduled after native
 * calls).
 */
UseAnalysis analyzeUse(const Program &prog, const CallGraph &cg,
                       const DecodedCache &decoded,
                       const NativeRegistry *natives = nullptr);

} // namespace nse

#endif // NSE_ANALYSIS_DATAFLOW_H
