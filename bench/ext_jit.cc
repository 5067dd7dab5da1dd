/**
 * @file
 * Extension — the paper's future work (§8): overlapping *compilation*
 * with transfer. "If compilation can take place as the class files are
 * being transferred, then the latency of transfer and compilation can
 * overlap."
 *
 * We model a JIT whose compile cost is proportional to method code
 * size and compare three policies on each benchmark:
 *
 *   strict+JIT     transfer everything, then compile each method at
 *                  its first use (classic JIT on a strict loader);
 *   lazy JIT       non-strict interleaved transfer; compile at first
 *                  use (stall = arrival wait + compile);
 *   eager JIT      non-strict transfer with a background compiler
 *                  that compiles each method the moment it arrives —
 *                  first use waits only for max(arrival, compile
 *                  completion), so compilation hides under transfer
 *                  and execution.
 *
 * Expected shape: eager JIT recovers most of the compile time on slow
 * links (compilation fully hidden under the modem transfer), while on
 * fast links it degenerates toward lazy JIT.
 *
 * Every policy's first-use hook only moves the clock forward, so all
 * three replay the context's recorded trace instead of re-running the
 * interpreter.
 */

#include <algorithm>
#include <cmath>

#include "bench/bench_env.h"
#include "transfer/engine.h"

namespace nse
{
namespace
{

/** Cycles to JIT-compile a method (cost per code byte). */
constexpr uint64_t kCompilePerByte = 2'000;

uint64_t
compileCost(const MethodInfo &m)
{
    return kCompilePerByte * m.code.size();
}

enum class JitPolicy
{
    StrictLazy,
    NonStrictLazy,
    NonStrictEager,
};

uint64_t
runJit(const BenchWorkload &e, const LinkModel &link, JitPolicy policy)
{
    LayoutKey lkey;
    lkey.parallel = false;
    lkey.ordering = OrderingSource::Test;
    const TransferLayout &layout = e.ctx->layout(lkey);
    const ExecTrace &trace = e.ctx->trace();

    if (policy == JitPolicy::StrictLazy) {
        // Full transfer, then execution with compile-at-first-use.
        uint64_t transfer = static_cast<uint64_t>(
            std::ceil(static_cast<double>(layout.totalBytes) *
                      link.cyclesPerByte));
        uint64_t exec =
            replayTrace(trace, [&](MethodId id, uint64_t clock) {
                return clock +
                       compileCost(e.workload.program.method(id));
            });
        return transfer + exec;
    }

    TransferEngine engine(link.cyclesPerByte, 1);
    engine.addStream(layout.streams[0].name,
                     layout.streams[0].totalBytes);
    engine.scheduleStart(0, 0);

    // Background compiler state for the eager policy: methods compile
    // in arrival order on one compiler thread.
    // compileDone[m] = max(arrival_m, compiler-free time) + cost.
    std::map<MethodId, uint64_t> compile_done;
    if (policy == JitPolicy::NonStrictEager) {
        const FirstUseOrder &order =
            e.ctx->ordering(OrderingSource::Test);
        uint64_t compiler_free = 0;
        for (const MethodId &id : order.order) {
            uint64_t arrival = static_cast<uint64_t>(
                std::ceil(static_cast<double>(
                              layout.of(id).availOffset) *
                          link.cyclesPerByte));
            uint64_t begin = std::max(arrival, compiler_free);
            compiler_free =
                begin + compileCost(e.workload.program.method(id));
            compile_done[id] = compiler_free;
        }
    }

    return replayTrace(trace, [&](MethodId id, uint64_t clock) {
        uint64_t ready =
            engine.waitFor(0, layout.of(id).availOffset, clock);
        if (policy == JitPolicy::NonStrictLazy)
            return ready + compileCost(e.workload.program.method(id));
        // Eager: the background compiler may already be done.
        return std::max(ready, compile_done[id]);
    });
}

} // namespace

BenchJson
runExtJit(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Extension (paper section 8)",
                "Overlapping JIT compilation with transfer: total "
                "cycles normalized to strict+JIT (interleaved "
                "transfer, Test ordering)");

    Table t({"Program", "T1 Lazy", "T1 Eager", "Modem Lazy",
             "Modem Eager"});

    const std::vector<BenchWorkload> &entries = env.workloads();
    std::vector<std::vector<double>> pcts(entries.size());
    env.runner().parallelFor(entries.size(), [&](size_t i) {
        const BenchWorkload &e = entries[i];
        for (const LinkModel &link : {kT1Link, kModemLink}) {
            double base = static_cast<double>(
                runJit(e, link, JitPolicy::StrictLazy));
            for (JitPolicy p : {JitPolicy::NonStrictLazy,
                                JitPolicy::NonStrictEager}) {
                pcts[i].push_back(
                    100.0 * static_cast<double>(runJit(e, link, p)) /
                    base);
            }
        }
    });

    std::vector<double> sums(4, 0.0);
    for (size_t i = 0; i < entries.size(); ++i) {
        std::vector<std::string> row{entries[i].workload.name};
        for (size_t c = 0; c < 4; ++c) {
            sums[c] += pcts[i][c];
            row.push_back(fmtF(pcts[i][c], 1));
        }
        t.addRow(std::move(row));
    }
    std::vector<std::string> avg{"AVG"};
    for (double s : sums)
        avg.push_back(fmtF(s / static_cast<double>(entries.size()), 1));
    t.addRow(std::move(avg));

    os << t.render();

    BenchJson json("ext_jit");
    json.addTable("JIT overlap", t);
    return json;
}

} // namespace nse
