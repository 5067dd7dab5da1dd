/**
 * @file
 * Ablation C — bandwidth sensitivity.
 *
 * The paper evaluates two points (T1 and 28.8K modem). This ablation
 * sweeps the link cost between (and beyond) them to expose the full
 * shape: on fast links programs are execution-bound and non-strict
 * execution saves little; as the link slows the win grows toward the
 * transfer-dominated asymptote where total time approaches the
 * transfer of just the *needed* first-use prefix instead of the whole
 * program.
 */

#include "bench/bench_env.h"

namespace nse
{

BenchJson
runAblateBandwidth(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Ablation C",
                "Normalized execution time (% of strict) vs link cost "
                "(cycles/byte); parallel limit 4, Test ordering, data "
                "partitioning on");

    const double sweeps[] = {500,   1'500,  3'815,   12'000,
                             40'000, 134'698, 400'000};

    std::vector<GridCell> cells;
    for (double cpb : sweeps) {
        GridCell c;
        c.label = cat("cpb ", cpb);
        c.config = headlineConfig(OrderingSource::Test, {"sweep", cpb});
        c.config.dataPartition = true;
        cells.push_back(std::move(c));
    }

    std::vector<GridRow> grid =
        env.runner().runGrid(env.gridWorkloads(), cells);
    Table t = pctTable({"Program", "cpb 500", "cpb 1.5K", "cpb 3815 (T1)",
                        "cpb 12K", "cpb 40K", "cpb 134698 (modem)",
                        "cpb 400K"},
                       grid, 1);
    os << t.render();

    BenchJson json("ablate_bandwidth");
    setBenchMetrics(json, summarizeGrid(grid));
    json.addTable("Ablation C", t);
    return json;
}

} // namespace nse
