/**
 * @file
 * Extension: ordering-quality comparison of the first-use predictors.
 *
 * The paper evaluates predictors end-to-end (wait time); this bench
 * measures them directly. Ground truth is the test-input first-use
 * profile. For each predictor — plain static estimation (SCG, §4.1),
 * the RTA-pruned static estimate (interprocedural call graph with
 * rapid-type-analysis dispatch and cold/dead demotion), and the
 * train-input profile — we report Spearman rank correlation over the
 * methods that actually execute, plus the call graph's hot/cold/dead
 * split. RTA must dominate (>=) plain SCG on every workload: pruning
 * impossible dispatch targets can only remove never-executed methods
 * from the predicted prefix, and demoted methods are exactly the ones
 * the ground truth never uses.
 */

#include <algorithm>
#include <cmath>

#include "analysis/reach.h"
#include "bench/bench_env.h"
#include "profile/first_use_profile.h"

namespace nse
{
namespace
{

/**
 * Spearman rank correlation between a predicted ordering and the
 * ground-truth (test profile) first-use sequence, over the executed
 * methods only: both orders are reduced to permutations of the
 * executed set, so unexecuted-method placement does not dilute the
 * statistic.
 */
double
spearman(const Program &prog, const FirstUseOrder &predicted,
         const std::vector<MethodId> &truth)
{
    auto rank = predicted.ranks(prog);
    // Executed methods in predicted order = sort truth by rank.
    std::vector<size_t> pred_pos(truth.size());
    std::vector<size_t> idx(truth.size());
    for (size_t i = 0; i < truth.size(); ++i)
        idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
        return rank[truth[a].classIdx][truth[a].methodIdx] <
               rank[truth[b].classIdx][truth[b].methodIdx];
    });
    for (size_t pos = 0; pos < idx.size(); ++pos)
        pred_pos[idx[pos]] = pos;

    double n = static_cast<double>(truth.size());
    if (truth.size() < 2)
        return 1.0;
    double sum_d2 = 0;
    for (size_t i = 0; i < truth.size(); ++i) {
        double d = static_cast<double>(i) -
                   static_cast<double>(pred_pos[i]);
        sum_d2 += d * d;
    }
    return 1.0 - 6.0 * sum_d2 / (n * (n * n - 1.0));
}

} // namespace

BenchJson
runExtOrdering(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Ordering quality (extension)",
                "Spearman rank correlation of each predictor against "
                "the test-input first-use profile, over executed "
                "methods; call-graph hot/cold/dead split per RTA");

    Table t({"Program", "Methods", "Executed", "Hot", "Cold", "Dead",
             "rho SCG", "rho RTA", "rho Train"});
    BenchJson json("ext_ordering");

    bool rta_dominates = true;
    for (const BenchWorkload &e : env.workloads()) {
        const SimContext &ctx = *e.ctx;
        const Program &prog = ctx.program();
        const std::vector<MethodId> &truth = ctx.testProfile().order;

        double rho_scg = spearman(
            prog, ctx.ordering(OrderingSource::Static), truth);
        double rho_rta = spearman(
            prog, ctx.ordering(OrderingSource::RtaStatic), truth);
        double rho_train = spearman(
            prog, ctx.ordering(OrderingSource::Train), truth);
        rta_dominates = rta_dominates && rho_rta >= rho_scg;

        ReachClassification reach =
            classifyReach(prog, ctx.callGraph());
        t.addRow({
            e.workload.name,
            std::to_string(prog.methodCount()),
            std::to_string(truth.size()),
            std::to_string(reach.hotCount),
            std::to_string(reach.coldCount),
            std::to_string(reach.deadCount),
            fmtF(rho_scg, 4),
            fmtF(rho_rta, 4),
            fmtF(rho_train, 4),
        });
    }

    os << t.render() << "\n"
       << (rta_dominates ? "RTA >= SCG on every workload\n"
                         : "WARNING: RTA below SCG on some workload\n");

    json.addTable("Ordering quality", t);
    json.setMetric("rtaDominates", rta_dominates ? 1.0 : 0.0);
    json.check("rtaDominates", CheckOp::Eq, 1.0);
    return json;
}

} // namespace nse
