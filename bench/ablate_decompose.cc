/**
 * @file
 * Ablation D — where does the win come from?
 *
 * Decomposes the non-strict improvement into its ingredients on the
 * Test ordering at limit 4:
 *   strict        full transfer, then execute (the Table 3 baseline);
 *   class-strict  scheduled, pipelined class transfer but methods wait
 *                 for their *whole class* (classic dynamic loading
 *                 done well — no method-level non-strictness);
 *   non-strict    the paper's method-delimiter model;
 *   + partition   plus global-data partitioning.
 * Expected shape: class pipelining alone already recovers a sizeable
 * share (classes overlap each other and execution), method-level
 * non-strictness adds the rest, and partitioning a little more —
 * confirming the paper's framing that the method-delimiter mechanism,
 * not mere pipelining, is what earns the headline numbers.
 */

#include "bench/bench_env.h"

namespace nse
{

BenchJson
runAblateDecompose(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Ablation D",
                "Decomposition of the win (normalized % of strict; "
                "parallel limit 4, Test ordering)");

    std::vector<GridCell> cells;
    for (const LinkModel &link : {kT1Link, kModemLink}) {
        struct Step
        {
            const char *name;
            bool classStrict;
            bool partition;
        };
        for (const Step &st : {Step{"ClassStrict", true, false},
                               Step{"NonStrict", false, false},
                               Step{"+Part", false, true}}) {
            GridCell c;
            c.label = cat(link.name, " ", st.name);
            c.config = headlineConfig(OrderingSource::Test, link);
            c.config.classStrict = st.classStrict;
            c.config.dataPartition = st.partition;
            cells.push_back(std::move(c));
        }
    }

    std::vector<GridRow> grid =
        env.runner().runGrid(env.gridWorkloads(), cells);
    Table t = pctTable({"Program", "T1 ClassStrict", "T1 NonStrict",
                        "T1 +Part", "Mod ClassStrict", "Mod NonStrict",
                        "Mod +Part"},
                       grid, 1);
    os << t.render();

    BenchJson json("ablate_decompose");
    setBenchMetrics(json, summarizeGrid(grid));
    json.addTable("Ablation D", t);
    return json;
}

} // namespace nse
