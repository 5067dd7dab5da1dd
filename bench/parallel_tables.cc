/**
 * @file
 * Reproduces paper Tables 5 and 6: normalized execution time for
 * parallel file transfer on the T1 and the 28.8K modem link, for
 * orderings {SCG, Train, Test} x concurrent-transfer limits {1, 2, 4,
 * unlimited}.
 */

#include "bench/bench_env.h"

namespace nse
{
namespace
{

BenchJson
runParallelTable(BenchEnv &env, std::ostream &os, const LinkModel &link,
                 const std::string &bench_name)
{
    const int limits[] = {1, 2, 4, -1};
    const char *limit_names[] = {"1", "2", "4", "Inf"};
    const OrderingSource orders[] = {OrderingSource::Static,
                                     OrderingSource::Train,
                                     OrderingSource::Test};
    const char *order_names[] = {"SCG", "Train", "Test"};

    std::vector<GridCell> cells;
    std::vector<std::string> headers{"Program"};
    for (size_t o = 0; o < 3; ++o) {
        for (size_t l = 0; l < 4; ++l) {
            GridCell c;
            c.label = cat(order_names[o], " ", limit_names[l]);
            c.config.mode = SimConfig::Mode::Parallel;
            c.config.ordering = orders[o];
            c.config.link = link;
            c.config.parallelLimit = limits[l];
            headers.push_back(c.label);
            cells.push_back(std::move(c));
        }
    }

    std::string table = cat("Table ", link.cyclesPerByte < 10000 ? 5 : 6);
    benchHeader(os, table,
                cat("Normalized execution time (% of strict) for "
                    "parallel file transfer on the ",
                    link.name,
                    " link; orderings SCG/Train/Test, limits "
                    "1/2/4/unlimited"));
    std::vector<GridRow> grid =
        env.runner().runGrid(env.gridWorkloads(), cells);
    Table t = pctTable(std::move(headers), grid, 0);
    os << t.render();

    BenchJson json(bench_name);
    setBenchMetrics(json, summarizeGrid(grid));
    json.addTable(table, t);
    return json;
}

} // namespace

BenchJson
runTable5ParallelT1(BenchEnv &env, std::ostream &os)
{
    return runParallelTable(env, os, kT1Link, "table5_parallel_t1");
}

BenchJson
runTable6ParallelModem(BenchEnv &env, std::ostream &os)
{
    return runParallelTable(env, os, kModemLink, "table6_parallel_modem");
}

} // namespace nse
