/**
 * @file
 * Reproduces paper Table 10: normalized execution time with global
 * data partitioned into per-method GMDs, for parallel file transfer
 * (limit four, as the paper fixes) and interleaved file transfer, on
 * both links and all three orderings.
 */

#include "bench/bench_env.h"

namespace nse
{

BenchJson
runTable10Datapart(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Table 10",
                "Normalized execution time (% of strict) with global "
                "data partitioning; parallel transfer uses limit 4");

    const OrderingSource orders[] = {OrderingSource::Static,
                                     OrderingSource::Train,
                                     OrderingSource::Test};
    const LinkModel links[] = {kT1Link, kModemLink};
    const SimConfig::Mode modes[] = {SimConfig::Mode::Parallel,
                                     SimConfig::Mode::Interleaved};

    std::vector<GridCell> cells;
    for (SimConfig::Mode mode : modes) {
        for (const LinkModel &link : links) {
            for (OrderingSource ord : orders) {
                GridCell c;
                c.label = cat(mode == SimConfig::Mode::Parallel
                                  ? "PFT"
                                  : "IFT",
                              " ", link.name, " ", orderingName(ord));
                c.config.mode = mode;
                c.config.ordering = ord;
                c.config.link = link;
                c.config.parallelLimit = 4;
                c.config.dataPartition = true;
                cells.push_back(std::move(c));
            }
        }
    }

    std::vector<GridRow> grid =
        env.runner().runGrid(env.gridWorkloads(), cells);
    Table t = pctTable(
        {"Program", "PFT T1 SCG", "PFT T1 Train", "PFT T1 Test",
         "PFT Mod SCG", "PFT Mod Train", "PFT Mod Test", "IFT T1 SCG",
         "IFT T1 Train", "IFT T1 Test", "IFT Mod SCG", "IFT Mod Train",
         "IFT Mod Test"},
        grid, 0);
    os << t.render();

    BenchJson json("table10_datapart");
    setBenchMetrics(json, summarizeGrid(grid));
    json.addTable("Table 10", t);
    return json;
}

} // namespace nse
