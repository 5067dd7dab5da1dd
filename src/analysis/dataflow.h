/**
 * @file
 * Use-distance analysis over the decoded-IR CFG, the analysis the
 * static stall prover is built on.
 *
 * `UseAnalysis` holds per-method summaries of which callees each
 * method *may* use (on some path) and *must* use (on every
 * terminating path), with execution-cycle distances accumulated from
 * the baked `DInst` per-opcode costs. Each method body is solved by a
 * backward worklist pass over its CFG (dataflow.cc); the summaries
 * are composed interprocedurally over the RTA call graph to a
 * fixpoint, one strongly connected component at a time, callees
 * first. The distances speak the replay clock's language exactly: a
 * first-use hook for callee `t` fires at `execClock(use)`, and the
 * analysis guarantees
 *
 *     gMayMin(t)  <=  execClock(use of t)          (any run)
 *     execClock(first use of t) <= gMustMax(t)     (must-used t,
 *                                                   finite bound)
 *
 * which is what turns a byte-arrival schedule into provable stall
 * bounds (stall_bounds.h). See DESIGN.md §14 for the lattices and
 * the soundness argument.
 */

#ifndef NSE_ANALYSIS_DATAFLOW_H
#define NSE_ANALYSIS_DATAFLOW_H

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/callgraph.h"
#include "program/program.h"
#include "support/saturate.h"

namespace nse
{

class NativeRegistry;
class DecodedCache;

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
 * method, composed over the RTA call graph to
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
