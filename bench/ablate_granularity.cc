/**
 * @file
 * Ablation A — non-strictness granularity (paper §4).
 *
 * The paper enforces non-strictness at the *method* level, reporting
 * that basic-block-level delimiters "incur additional overhead with
 * little added benefit". We quantify that trade-off: block-level
 * delimiters let a method begin once its first basic block has
 * arrived (smaller stall on first use) but charge a delimiter check
 * at every executed block boundary. Reproduced shape: the execution
 * overhead outweighs the small transfer win, so block-level
 * granularity is a net loss — on both links.
 *
 * The method-level column replays the context's recorded trace; the
 * block-level column replays a second trace recorded with the
 * per-block delimiter charge.
 */

#include "analysis/cfg.h"
#include "bench/bench_env.h"
#include "transfer/engine.h"

namespace nse
{
namespace
{

/**
 * Replay `trace` against an interleaved single-stream transfer with a
 * configurable availability reduction (bytes of the method's tail we
 * need not wait for).
 */
uint64_t
replayInterleaved(const BenchWorkload &e, const ExecTrace &trace,
                  const LinkModel &link,
                  const std::map<MethodId, uint64_t> &avail_reduction)
{
    LayoutKey key;
    key.parallel = false;
    key.ordering = OrderingSource::Test;
    const TransferLayout &layout = e.ctx->layout(key);

    TransferEngine engine(link.cyclesPerByte, 1);
    engine.addStream(layout.streams[0].name,
                     layout.streams[0].totalBytes);
    engine.scheduleStart(0, 0);

    return replayTrace(trace, [&](MethodId id, uint64_t clock) {
        uint64_t avail = layout.of(id).availOffset;
        auto it = avail_reduction.find(id);
        if (it != avail_reduction.end())
            avail -= std::min(avail, it->second);
        return engine.waitFor(0, avail, clock);
    });
}

} // namespace

BenchJson
runAblateGranularity(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Ablation A (paper section 4)",
                "Method-level vs basic-block-level non-strictness: "
                "normalized time (% of strict), interleaved transfer, "
                "Test ordering");

    auto rowOf = [](const BenchWorkload &e) {
        // Block-level availability: only the method's first basic
        // block (plus header/local data) must have arrived.
        std::map<MethodId, uint64_t> reduction;
        e.workload.program.forEachMethod(
            [&](MethodId id, const ClassFile &, const MethodInfo &m) {
                if (m.isNative())
                    return;
                Cfg cfg = buildCfg(e.workload.program, id);
                uint64_t code_after_first_block =
                    m.code.size() - cfg.blocks[0].byteSize;
                reduction[id] = code_after_first_block;
            });

        // The block-level run pays ~12 extra cycles per executed
        // block boundary for the delimiter-arrival check; that charge
        // changes execution totals, so it needs its own trace.
        VmOptions block_opts;
        block_opts.blockDelimiterCost = 12;
        ExecTrace block_trace =
            recordTrace(e.workload.program, e.workload.natives,
                        e.workload.testInput, block_opts);

        std::vector<std::string> row{e.workload.name};
        for (const LinkModel &link : {kT1Link, kModemLink}) {
            double base = static_cast<double>(
                runReplay(*e.ctx, strictConfig(link)).totalCycles);

            uint64_t method_level =
                replayInterleaved(e, e.ctx->trace(), link, {});
            uint64_t block_level =
                replayInterleaved(e, block_trace, link, reduction);

            row.push_back(
                fmtF(100.0 * static_cast<double>(method_level) / base,
                     1));
            row.push_back(
                fmtF(100.0 * static_cast<double>(block_level) / base,
                     1));
        }
        return row;
    };
    Table t = workloadTable(env,
                            {"Program", "T1 Method", "T1 Block",
                             "Modem Method", "Modem Block"},
                            rowOf);
    os << t.render();

    BenchJson json("ablate_granularity");
    json.addTable("Ablation A", t);
    return json;
}

} // namespace nse
