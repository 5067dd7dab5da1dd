#include "analysis/first_use.h"

#include <algorithm>
#include <set>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/reach.h"
#include "support/error.h"

namespace nse
{

namespace
{

/** Interprocedural modified-DFS driver. Callee resolution goes
 *  through the call graph: the legacy static estimate follows each
 *  site's single staticTarget; the RTA-pruned estimate follows
 *  rtaTargets (statically-resolved target first, so the orders agree
 *  wherever pruning removes nothing). A method's CFG comes from
 *  `built` when it holds one, else it is built here. */
class StaticEstimator
{
  public:
    StaticEstimator(const Program &prog, const CallGraph &cg,
                    bool use_rta, const UseAnalysis *built = nullptr)
        : prog_(prog), cg_(cg), useRta_(use_rta), built_(built)
    {
    }

    std::vector<MethodId>
    run()
    {
        visitMethod(prog_.entry());
        return std::move(order_);
    }

  private:
    void
    visitMethod(MethodId id)
    {
        if (!visited_.insert(id).second)
            return;
        order_.push_back(id);
        if (prog_.method(id).isNative())
            return;
        if (const Cfg *cfg = built_ ? built_->cfg(id) : nullptr)
            traverse(*cfg);
        else
            traverse(buildCfg(prog_, id));
    }

    void
    visitCallsIn(const Cfg &cfg, const BasicBlock &blk)
    {
        // The order calls are first encountered is the predicted
        // first-use order: descend into callees immediately, in
        // instruction order.
        for (const CallSite &site : cg_.node(cfg.method).sites) {
            if (site.instIndex < blk.first || site.instIndex > blk.last)
                continue;
            if (!useRta_) {
                visitMethod(site.staticTarget);
                continue;
            }
            for (const MethodId &target : site.rtaTargets)
                visitMethod(target);
        }
    }

    void
    traverse(const Cfg &cfg)
    {
        // Explicit DFS stack plus the paper's placeholder stack of
        // (loop-exit block, loop header) pairs: an exit is deferred
        // until control returns to its loop's header via the back
        // edge — i.e. until the blocks inside the loop have been
        // searched for calls.
        std::vector<uint32_t> stack{0};
        std::vector<std::pair<uint32_t, uint32_t>> deferred;
        std::vector<bool> seen(cfg.blocks.size(), false);

        auto release = [&](uint32_t header) {
            // Move exits of this loop onto the DFS stack.
            for (size_t i = deferred.size(); i-- > 0;) {
                if (deferred[i].second == header) {
                    stack.push_back(deferred[i].first);
                    deferred.erase(deferred.begin() +
                                   static_cast<long>(i));
                }
            }
        };

        while (!stack.empty() || !deferred.empty()) {
            uint32_t blk;
            if (!stack.empty()) {
                blk = stack.back();
                stack.pop_back();
            } else {
                blk = deferred.back().first;
                deferred.pop_back();
            }
            if (seen[blk])
                continue;
            seen[blk] = true;

            visitCallsIn(cfg, cfg.blocks[blk]);

            // Partition successors: a back edge completes its loop and
            // releases the loop's deferred exits; loop-exit edges are
            // deferred with their header; forward edges are prioritised
            // by the number of static loops below them.
            std::vector<uint32_t> forward;
            for (uint32_t succ : cfg.blocks[blk].succs) {
                if (cfg.isBackEdge(blk, succ)) {
                    release(succ);
                    continue;
                }
                if (seen[succ])
                    continue;
                if (cfg.loopDepth[succ] < cfg.loopDepth[blk]) {
                    deferred.emplace_back(succ, cfg.innerHeader[blk]);
                } else {
                    forward.push_back(succ);
                }
            }
            // Push lowest-priority first so the loop-richest path pops
            // first (the paper's forward-branch heuristic).
            std::stable_sort(forward.begin(), forward.end(),
                             [&](uint32_t a, uint32_t b) {
                                 return cfg.loopsBelow[a] <
                                        cfg.loopsBelow[b];
                             });
            for (uint32_t succ : forward)
                stack.push_back(succ);
        }
    }

    const Program &prog_;
    const CallGraph &cg_;
    bool useRta_;
    const UseAnalysis *built_;
    std::set<MethodId> visited_;
    std::vector<MethodId> order_;
};

} // namespace

std::vector<std::vector<uint16_t>>
FirstUseOrder::perClassOrder(const Program &prog) const
{
    std::vector<std::vector<uint16_t>> per_class(prog.classCount());
    for (const MethodId &id : order)
        per_class[id.classIdx].push_back(id.methodIdx);
    return per_class;
}

std::vector<std::vector<size_t>>
FirstUseOrder::ranks(const Program &prog) const
{
    std::vector<std::vector<size_t>> rank(prog.classCount());
    for (uint16_t c = 0; c < prog.classCount(); ++c)
        rank[c].assign(prog.classAt(c).methods.size(), SIZE_MAX);
    for (size_t i = 0; i < order.size(); ++i)
        rank[order[i].classIdx][order[i].methodIdx] = i;
    return rank;
}

FirstUseOrder
staticFirstUse(const Program &prog)
{
    CallGraph cg = buildCallGraph(prog);
    StaticEstimator estimator(prog, cg, /*use_rta=*/false);
    FirstUseOrder out;
    out.order = estimator.run();
    out.usedCount = out.order.size();

    // Methods unreachable from the entry transfer last, program order.
    std::set<MethodId> placed(out.order.begin(), out.order.end());
    prog.forEachMethod([&](MethodId id, const ClassFile &,
                           const MethodInfo &) {
        if (!placed.count(id))
            out.order.push_back(id);
    });
    return out;
}

namespace
{

/** The RTA estimate; CFGs come from `built` where it holds them. */
FirstUseOrder
rtaFirstUse(const Program &prog, const CallGraph &cg,
            const UseAnalysis *built)
{
    StaticEstimator estimator(prog, cg, /*use_rta=*/true, built);
    FirstUseOrder out;
    out.order = estimator.run();
    out.usedCount = out.order.size();

    // Demote unvisited methods by temperature: cold (CHA-only
    // reachable) ahead of dead (unreachable even under CHA), each
    // group in program order.
    ReachClassification reach = classifyReach(prog, cg);
    std::set<MethodId> placed(out.order.begin(), out.order.end());
    for (MethodTemp want :
         {MethodTemp::Hot, MethodTemp::Cold, MethodTemp::Dead}) {
        prog.forEachMethod([&](MethodId id, const ClassFile &,
                               const MethodInfo &) {
            if (reach.of(id) == want && !placed.count(id))
                out.order.push_back(id);
        });
    }
    NSE_ASSERT(out.order.size() == prog.methodCount(),
               "RTA first-use order does not cover the program");
    return out;
}

} // namespace

FirstUseOrder
staticFirstUse(const Program &prog, const CallGraph &cg)
{
    return rtaFirstUse(prog, cg, nullptr);
}

FirstUseOrder
mustUseFirstUse(const Program &prog, const CallGraph &cg,
                const UseAnalysis &use)
{
    // The RTA estimate over the CFGs the analysis already built.
    FirstUseOrder out = rtaFirstUse(prog, cg, &use);
    // Collect the hot-prefix slots holding a method with a proved
    // guaranteed-use deadline and re-sort just those methods among
    // just those slots. The permutation is deliberately minimal:
    // everything the analysis cannot bound keeps its RTA position.
    std::vector<size_t> slots;
    std::vector<MethodId> proved;
    for (size_t i = 0; i < out.usedCount; ++i) {
        UseFact f = use.globalOf(out.order[i]);
        if (f.must && f.mustMax != kDistInf) {
            slots.push_back(i);
            proved.push_back(out.order[i]);
        }
    }
    std::stable_sort(proved.begin(), proved.end(),
                     [&](const MethodId &a, const MethodId &b) {
                         return use.globalOf(a).mustMax <
                                use.globalOf(b).mustMax;
                     });
    for (size_t k = 0; k < slots.size(); ++k)
        out.order[slots[k]] = proved[k];
    return out;
}

FirstUseOrder
completeWithStatic(const Program &prog, std::vector<MethodId> partial)
{
    FirstUseOrder out;
    out.order = std::move(partial);
    out.usedCount = out.order.size();
    std::set<MethodId> placed(out.order.begin(), out.order.end());
    FirstUseOrder fallback = staticFirstUse(prog);
    for (const MethodId &id : fallback.order) {
        if (!placed.count(id)) {
            out.order.push_back(id);
            placed.insert(id);
        }
    }
    NSE_ASSERT(out.order.size() == prog.methodCount(),
               "first-use order does not cover the program");
    return out;
}

} // namespace nse
