/**
 * @file
 * Static first-use estimation (paper §4.1).
 *
 * Predicts the order in which a program's methods will execute for the
 * first time, using only static structure: a modified DFS over the
 * interprocedural control-flow graph that
 *   - prioritises successor paths containing the most static loops
 *     (looping implies reuse, hence overlap opportunity);
 *   - when traversing conditional branches inside a loop, defers
 *     loop-exit edges on a placeholder stack until the blocks inside
 *     the loop have been searched for calls (the paper's (block,
 *     loop-header) pair stack);
 *   - recurses into callees at call sites, so the order methods are
 *     first *encountered* is the predicted first-use order.
 *
 * Methods never reached from the entry are appended afterwards in
 * program order — they are predicted never to execute, so they transfer
 * last (the paper gives unexecuted procedures their placement "using
 * the static approach").
 */

#ifndef NSE_ANALYSIS_FIRST_USE_H
#define NSE_ANALYSIS_FIRST_USE_H

#include <vector>

#include "program/program.h"

namespace nse
{

class CallGraph;
class UseAnalysis;

/** A predicted or measured first-use ordering over methods. */
struct FirstUseOrder
{
    /** Methods in predicted first-invocation order; entry comes first. */
    std::vector<MethodId> order;
    /** How many entries were actually predicted/observed; the rest are
     *  appended placements for never-used methods. */
    size_t usedCount = 0;

    /** Per-class method order induced by the global order. */
    std::vector<std::vector<uint16_t>> perClassOrder(
        const Program &prog) const;

    /** Position of each method in `order` (ranks; lower = earlier). */
    std::vector<std::vector<size_t>> ranks(const Program &prog) const;
};

/** Run the static estimator over the whole program. */
FirstUseOrder staticFirstUse(const Program &prog);

/**
 * RTA-pruned static estimate: the same modified DFS, but virtual call
 * sites follow the call graph's rtaTargets — dispatch candidates whose
 * receiver class is never instantiated do not pull their target
 * forward. Methods the traversal never reaches are demoted to the
 * tail: cold (CHA-reachable only) methods first, then dead ones, each
 * in program order. usedCount covers the traversal-reached (hot)
 * prefix.
 */
FirstUseOrder staticFirstUse(const Program &prog, const CallGraph &cg);

/**
 * The `mustuse` predictor: the RTA-pruned static estimate refined by
 * the use-distance analysis (dataflow.h). Hot methods with a proved
 * guaranteed-use deadline (must-used, finite mustMax) are re-sorted
 * among the slots they already occupy, ascending by that deadline;
 * may-only methods keep their RTA positions, so the DFS encounter
 * heuristic stays authoritative wherever the analysis proves nothing
 * (it "breaks RTA ties by guaranteed-use distance", never overrules
 * RTA with a weaker fact). The RTA estimate walks the CFGs `use`
 * already built, so no method is verified again.
 */
FirstUseOrder mustUseFirstUse(const Program &prog, const CallGraph &cg,
                              const UseAnalysis &use);

/**
 * Complete a partial (e.g. profiled) ordering: methods missing from
 * `partial` are appended following the static estimate, then any
 * remaining ones in program order.
 */
FirstUseOrder completeWithStatic(const Program &prog,
                                 std::vector<MethodId> partial);

} // namespace nse

#endif // NSE_ANALYSIS_FIRST_USE_H
