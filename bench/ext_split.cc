/**
 * @file
 * Extension — procedure splitting (paper §4's unimplemented option).
 *
 * TestDes is the paper's cautionary tale: its first procedure is most
 * of its first class file, so method-level non-strictness barely
 * improves its invocation latency (Table 4: 1%). The paper notes the
 * fix — "large procedures can still benefit by using the compiler to
 * break the procedure up into smaller procedures" — without building
 * it. This bench runs our splitting pass (restructure/split) at a 2 KB
 * method threshold and reports, per workload, invocation latency and
 * normalized total time before and after splitting (interleaved
 * transfer, Test ordering, modem link).
 *
 * Expected shape: TestDes's invocation latency collapses once its
 * giant main is fragmented; already-small-method programs are
 * unchanged.
 */

#include "bench/bench_env.h"
#include "restructure/split.h"

namespace nse
{
namespace
{

struct Row
{
    uint64_t invocation;
    double normalized;
};

Row
measure(const SimContext &ctx)
{
    SimResult base = runReplay(ctx, strictConfig(kModemLink));

    Row row;
    row.invocation = nonStrictInvocationLatency(ctx, kModemLink, false);
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Interleaved;
    cfg.ordering = OrderingSource::Test;
    cfg.link = kModemLink;
    row.normalized = normalizedPct(runReplay(ctx, cfg), base);
    return row;
}

} // namespace

BenchJson
runExtSplit(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Extension (paper section 4)",
                "Procedure splitting at a 2KB method threshold: "
                "non-strict invocation latency (Mcycles, modem) and "
                "normalized time (interleaved, Test ordering)");

    auto rowOf = [](const BenchWorkload &e) -> std::vector<std::string> {
        Row before = measure(*e.ctx);

        Workload split_wl = makeWorkload(e.workload.name);
        SplitStats stats = splitLargeMethods(split_wl.program, 2'048);
        Row after = measure(SimContext(split_wl.program, split_wl.natives,
                                       split_wl.trainInput,
                                       split_wl.testInput));

        return {e.workload.name, std::to_string(stats.tailsCreated),
                fmtMillions(before.invocation),
                fmtMillions(after.invocation), fmtF(before.normalized, 1),
                fmtF(after.normalized, 1)};
    };
    Table t = workloadTable(env,
                            {"Program", "Tails Added", "Latency Before M",
                             "Latency After M", "Norm Before",
                             "Norm After"},
                            rowOf);
    os << t.render();

    BenchJson json("ext_split");
    json.addTable("Procedure splitting", t);
    return json;
}

} // namespace nse
