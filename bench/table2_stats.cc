/**
 * @file
 * Reproduces paper Table 1 (benchmark descriptions) and Table 2
 * (general program statistics): files, size, dynamic instruction
 * counts for the test (train) inputs, static instructions, percent of
 * static code executed, method counts, and instructions per method.
 */

#include "bench/bench_env.h"
#include "profile/first_use_profile.h"

namespace nse
{

BenchJson
runTable2Stats(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Table 1 + Table 2",
                "Benchmarks and their general statistics "
                "(dynamic columns: test input, train in parentheses)");

    Table desc({"Program", "Description"});
    Table stats({"Program", "Total Files", "Size KB",
                 "Dyn Instrs K Test(Train)", "Static Instrs K",
                 "% Executed", "Total Methods", "Instrs/Method"});

    for (const BenchWorkload &e : env.workloads()) {
        desc.addRow({e.workload.name, e.workload.description});

        ProgramStatics st = collectStatics(e.workload.program);
        const FirstUseProfile &test = e.ctx->testProfile();
        const FirstUseProfile &train = e.ctx->trainProfile();

        stats.addRow({
            e.workload.name,
            std::to_string(st.classFiles),
            fmtKb(st.totalBytes),
            cat(fmtF(static_cast<double>(test.result.bytecodes) / 1e3, 0),
                " (",
                fmtF(static_cast<double>(train.result.bytecodes) / 1e3,
                     0),
                ")"),
            fmtF(static_cast<double>(st.staticInstrs) / 1e3, 1),
            fmtF(100.0 * test.executedInstrFraction(e.workload.program),
                 0),
            std::to_string(st.methods),
            fmtF(st.instrsPerMethod(), 0),
        });
    }

    os << desc.render() << "\n" << stats.render();

    BenchJson json("table2_stats");
    json.addTable("Table 1", desc);
    json.addTable("Table 2", stats);
    return json;
}

} // namespace nse
