/**
 * @file
 * Reproduces paper Figure 6: summary of average normalized execution
 * time across the six programs. Bars: parallel file transfer (limit
 * 4), parallel + data partitioning, interleaved transfer, interleaved
 * + data partitioning; grouped by ordering (SCG/Train/Test) for each
 * link. Printed as the data series behind the figure plus an ASCII
 * rendition.
 */

#include <map>

#include "bench/bench_env.h"

namespace nse
{

BenchJson
runFig6Summary(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Figure 6",
                "Average normalized execution time (% of strict) — "
                "the paper's summary bar chart as data + ASCII bars");

    const OrderingSource orders[] = {OrderingSource::Static,
                                     OrderingSource::Train,
                                     OrderingSource::Test};
    const LinkModel links[] = {kT1Link, kModemLink};
    struct Series
    {
        const char *name;
        SimConfig::Mode mode;
        bool partition;
    };
    const Series series[] = {
        {"Parallel File Transfer", SimConfig::Mode::Parallel, false},
        {"PFT Data Partitioned", SimConfig::Mode::Parallel, true},
        {"Interleaved File Transfer", SimConfig::Mode::Interleaved,
         false},
        {"IFT Data Partitioned", SimConfig::Mode::Interleaved, true},
    };

    // One grid cell per (series, link, ordering) bar of the figure.
    std::vector<GridCell> cells;
    for (const Series &sr : series) {
        for (const LinkModel &link : links) {
            for (OrderingSource ord : orders) {
                GridCell c;
                c.label =
                    cat(sr.name, " ", link.name, " ", orderingName(ord));
                c.config.mode = sr.mode;
                c.config.ordering = ord;
                c.config.link = link;
                c.config.parallelLimit = 4;
                c.config.dataPartition = sr.partition;
                cells.push_back(std::move(c));
            }
        }
    }

    std::vector<GridRow> grid =
        env.runner().runGrid(env.gridWorkloads(), cells);

    Table t({"Series", "T1 SCG", "T1 Train", "T1 Test", "Modem SCG",
             "Modem Train", "Modem Test"});
    std::map<std::string, std::vector<double>> values;

    for (size_t s = 0; s < 4; ++s) {
        std::vector<std::string> row{series[s].name};
        for (size_t c = 0; c < 6; ++c) {
            double sum = 0;
            for (const GridRow &gr : grid)
                sum += gr.cells[s * 6 + c].pct;
            double avg = sum / static_cast<double>(grid.size());
            values[series[s].name].push_back(avg);
            row.push_back(fmtF(avg, 1));
        }
        t.addRow(std::move(row));
    }

    os << t.render() << "\n";

    // ASCII bars, grouped like the paper's figure.
    const char *group_names[] = {"T1 SCG",    "T1 Train",   "T1 Test",
                                 "Modem SCG", "Modem Train", "Modem Test"};
    for (int g = 0; g < 6; ++g) {
        os << group_names[g] << "\n";
        for (const Series &sr : series) {
            double v = values[sr.name][static_cast<size_t>(g)];
            int width = static_cast<int>(v / 2.0 + 0.5);
            os << "  " << std::string(static_cast<size_t>(width), '#')
               << " " << fmtF(v, 1) << "  " << sr.name << "\n";
        }
    }

    BenchJson json("fig6_summary");
    setBenchMetrics(json, summarizeGrid(grid));
    json.addTable("Figure 6", t);
    return json;
}

} // namespace nse
