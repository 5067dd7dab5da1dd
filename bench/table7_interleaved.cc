/**
 * @file
 * Reproduces paper Table 7: normalized execution time for interleaved
 * file transfer (the single virtual file), for both links and the
 * three orderings.
 */

#include "bench/bench_env.h"

namespace nse
{

BenchJson
runTable7Interleaved(BenchEnv &env, std::ostream &os)
{
    const OrderingSource orders[] = {OrderingSource::Static,
                                     OrderingSource::Train,
                                     OrderingSource::Test};
    std::vector<GridCell> cells;
    for (const LinkModel &link : {kT1Link, kModemLink}) {
        for (OrderingSource ord : orders) {
            GridCell c;
            c.label = cat(link.name, " ", orderingName(ord));
            c.config.mode = SimConfig::Mode::Interleaved;
            c.config.ordering = ord;
            c.config.link = link;
            cells.push_back(std::move(c));
        }
    }

    benchHeader(os, "Table 7",
                "Normalized execution time (% of strict) for interleaved "
                "file transfer");
    std::vector<GridRow> grid =
        env.runner().runGrid(env.gridWorkloads(), cells);
    Table t = pctTable({"Program", "T1 SCG", "T1 Train", "T1 Test",
                        "Modem SCG", "Modem Train", "Modem Test"},
                       grid, 0);
    os << t.render();

    BenchJson json("table7_interleaved");
    setBenchMetrics(json, summarizeGrid(grid));
    json.addTable("Table 7", t);
    return json;
}

} // namespace nse
