#include "bench/bench_env.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "obs/chrome_trace.h"
#include "obs/stall.h"
#include "support/error.h"

namespace nse
{

BenchEnv::BenchEnv(unsigned threads, size_t max_fleet)
    : runner_(threads), maxFleet_(max_fleet)
{
    for (Workload &w : allWorkloads())
        workloads_.push_back({std::move(w), nullptr});
    // Contexts reference their workload's program and natives, so
    // they are built only once the vector no longer moves.
    for (BenchWorkload &b : workloads_)
        b.ctx = std::make_unique<SimContext>(
            b.workload.program, b.workload.natives,
            b.workload.trainInput, b.workload.testInput);
}

std::vector<GridWorkload>
BenchEnv::gridWorkloads() const
{
    std::vector<GridWorkload> out;
    out.reserve(workloads_.size());
    for (const BenchWorkload &b : workloads_)
        out.push_back({b.workload.name, b.ctx.get()});
    return out;
}

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> registry{
        {"table2_stats", runTable2Stats},
        {"table3_basecase", runTable3Basecase},
        {"table4_invocation", runTable4Invocation},
        {"table5_parallel_t1", runTable5ParallelT1},
        {"table6_parallel_modem", runTable6ParallelModem},
        {"table7_interleaved", runTable7Interleaved},
        {"table8_globaldata", runTable8Globaldata},
        {"table9_partition", runTable9Partition},
        {"table10_datapart", runTable10Datapart},
        {"fig6_summary", runFig6Summary},
        {"ablate_granularity", runAblateGranularity},
        {"ablate_schedule", runAblateSchedule},
        {"ablate_bandwidth", runAblateBandwidth},
        {"ablate_decompose", runAblateDecompose},
        {"ext_jit", runExtJit},
        {"ext_split", runExtSplit},
        {"ext_adaptive", runExtAdaptive},
        {"ext_faults", runExtFaults},
        {"ext_server", runExtServer, /*wallClock=*/true},
        {"ext_ordering", runExtOrdering},
        {"ext_vm", runExtVm, /*wallClock=*/true},
        {"ext_runahead", runExtRunahead},
        {"ext_cache", runExtCache},
        {"ext_stallproof", runExtStallproof},
    };
    return registry;
}

std::string
benchUsage()
{
    std::string names;
    for (const Experiment &e : experiments())
        names += cat("\n  ", e.name);
    return cat(
        "usage: nse_bench [--only=<name>[,<name>...]]... "
        "[--trace-out=<file>]\n"
        "environment:\n"
        "  NSE_BENCH_THREADS=<n>     runner threads (0 = all cores)\n"
        "  NSE_SERVER_MAX_FLEET=<n>  largest server fleet (0 = no cap)\n"
        "  NSE_BENCH_JSON_DIR=<dir>  where BENCH_<name>.json goes "
        "(off = nowhere)\n"
        "experiments (run in this order):",
        names, "\n");
}

namespace
{

[[noreturn]] void
usageError(const std::string &what)
{
    fatal(what, "\n", benchUsage());
}

/** A decimal count from the environment; 0 when unset or empty.
 *  Anything but digits — a sign included — is rejected. */
uint64_t
parseCount(const char *var, const char *text, uint64_t max)
{
    if (!text || !*text)
        return 0;
    std::string s = text;
    bool digits = std::all_of(s.begin(), s.end(), [](char c) {
        return c >= '0' && c <= '9';
    });
    errno = 0;
    unsigned long long v = digits ? std::strtoull(text, nullptr, 10) : 0;
    if (!digits || errno == ERANGE || v > max)
        usageError(cat(var, " must be an integer in [0, ", max,
                       "] (got \"", s, "\")"));
    return v;
}

} // namespace

BenchOptions
parseBenchOptions(const std::vector<std::string> &args,
                  const char *threads_env, const char *max_fleet_env)
{
    constexpr unsigned kMaxThreads = 1024;
    BenchOptions opts;
    opts.threads = static_cast<unsigned>(
        parseCount("NSE_BENCH_THREADS", threads_env, kMaxThreads));
    uint64_t fleet =
        parseCount("NSE_SERVER_MAX_FLEET", max_fleet_env, SIZE_MAX);
    opts.maxFleet = fleet == 0 ? SIZE_MAX : static_cast<size_t>(fleet);

    const std::string kOnly = "--only=";
    const std::string kTraceOut = "--trace-out=";
    std::vector<std::string> wanted;
    for (const std::string &arg : args) {
        if (arg.rfind(kTraceOut, 0) == 0) {
            opts.traceOut = arg.substr(kTraceOut.size());
            if (opts.traceOut.empty())
                usageError("--trace-out needs a file name");
        } else if (arg.rfind(kOnly, 0) == 0) {
            std::string list = arg.substr(kOnly.size());
            for (size_t at = 0;;) {
                size_t comma = list.find(',', at);
                wanted.push_back(list.substr(at, comma - at));
                if (comma == std::string::npos)
                    break;
                at = comma + 1;
            }
        } else {
            usageError(cat("unknown argument \"", arg, "\""));
        }
    }
    for (const std::string &name : wanted) {
        bool known = std::any_of(
            experiments().begin(), experiments().end(),
            [&](const Experiment &e) { return name == e.name; });
        if (!known)
            usageError(cat("unknown experiment \"", name, "\""));
    }
    for (const Experiment &e : experiments())
        if (std::find(wanted.begin(), wanted.end(), e.name) !=
            wanted.end())
            opts.only.push_back(e.name);
    return opts;
}

void
writeBenchTrace(const BenchEnv &env, const std::string &path,
                std::ostream &os)
{
    const BenchWorkload &first = env.workloads().front();
    EventTrace trace;
    SimResult r = runReplay(*first.ctx, headlineConfig(), &trace);
    if (writeChromeTraceFile(trace, path)) {
        std::cerr << "trace (" << first.workload.name
                  << ", Parallel/Train/T1): " << path << "\n";
    }
    os << "\n" << buildStallReport(trace, r).render();
}

void
benchHeader(std::ostream &os, const std::string &artifact,
            const std::string &caption)
{
    os << "==== " << artifact << " ====\n" << caption << "\n\n";
}

Table
pctTable(std::vector<std::string> headers,
         const std::vector<GridRow> &grid, int decimals)
{
    Table t(std::move(headers));
    std::vector<double> sums;
    for (const GridRow &row : grid) {
        sums.resize(row.cells.size(), 0.0);
        std::vector<std::string> out{row.workload};
        for (size_t i = 0; i < row.cells.size(); ++i) {
            sums[i] += row.cells[i].pct;
            out.push_back(fmtF(row.cells[i].pct, decimals));
        }
        t.addRow(std::move(out));
    }
    std::vector<std::string> avg{"AVG"};
    for (double s : sums)
        avg.push_back(fmtF(s / static_cast<double>(grid.size()), decimals));
    t.addRow(std::move(avg));
    return t;
}

Table
workloadTable(
    const BenchEnv &env, std::vector<std::string> headers,
    const std::function<std::vector<std::string>(const BenchWorkload &)>
        &row)
{
    const std::vector<BenchWorkload> &ws = env.workloads();
    std::vector<std::vector<std::string>> rows(ws.size());
    env.runner().parallelFor(ws.size(),
                             [&](size_t i) { rows[i] = row(ws[i]); });
    Table t(std::move(headers));
    for (std::vector<std::string> &r : rows)
        t.addRow(std::move(r));
    return t;
}

SimConfig
strictConfig(const LinkModel &link)
{
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Strict;
    cfg.link = link;
    return cfg;
}

SimConfig
headlineConfig(OrderingSource ordering, const LinkModel &link)
{
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = ordering;
    cfg.link = link;
    cfg.parallelLimit = 4;
    return cfg;
}

} // namespace nse
