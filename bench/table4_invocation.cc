/**
 * @file
 * Reproduces paper Table 4: the effect of non-strict execution and
 * program restructuring on invocation latency. For each link: cycles
 * (millions) until execution begins under strict execution (first
 * class file fully transferred), non-strict execution (global data +
 * first procedure transferred), and non-strict with global-data
 * partitioning (needed-first chunk + main's GMD + main transferred),
 * with percent decreases in parentheses.
 */

#include "bench/bench_env.h"

namespace nse
{
namespace
{

std::string
withPct(uint64_t cycles, uint64_t strict)
{
    double pct = 100.0 *
                 (static_cast<double>(strict) -
                  static_cast<double>(cycles)) /
                 static_cast<double>(strict);
    return cat(fmtMillions(cycles), " (", fmtF(pct, 0), ")");
}

Table
linkTable(const BenchEnv &env, const LinkModel &link)
{
    Table t({"Program", "Strict M", "NonStrict M (%dec)",
             "Data Part. M (%dec)"});

    struct Latencies
    {
        uint64_t strict = 0, ns = 0, dp = 0;
    };
    const std::vector<BenchWorkload> &entries = env.workloads();
    std::vector<Latencies> lat(entries.size());
    env.runner().parallelFor(entries.size(), [&](size_t i) {
        const SimContext &ctx = *entries[i].ctx;
        lat[i].strict = strictInvocationLatency(ctx, link);
        lat[i].ns = nonStrictInvocationLatency(ctx, link, false);
        lat[i].dp = nonStrictInvocationLatency(ctx, link, true);
    });

    uint64_t sum_strict = 0;
    double sum_ns_pct = 0, sum_dp_pct = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        t.addRow({entries[i].workload.name, fmtMillions(lat[i].strict),
                  withPct(lat[i].ns, lat[i].strict),
                  withPct(lat[i].dp, lat[i].strict)});
        sum_strict += lat[i].strict;
        sum_ns_pct +=
            100.0 * (1.0 - static_cast<double>(lat[i].ns) /
                               static_cast<double>(lat[i].strict));
        sum_dp_pct +=
            100.0 * (1.0 - static_cast<double>(lat[i].dp) /
                               static_cast<double>(lat[i].strict));
    }
    double n = static_cast<double>(entries.size());
    t.addRow({"AVG", fmtMillions(sum_strict / entries.size()),
              cat("(", fmtF(sum_ns_pct / n, 0), ")"),
              cat("(", fmtF(sum_dp_pct / n, 0), ")")});
    return t;
}

} // namespace

BenchJson
runTable4Invocation(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Table 4",
                "Invocation latency: strict vs non-strict vs "
                "non-strict + data partitioning");

    BenchJson json("table4_invocation");
    for (const LinkModel &link : {kT1Link, kModemLink}) {
        Table t = linkTable(env, link);
        os << "--- " << link.name << " link ---\n" << t.render() << "\n";
        json.addTable(cat(link.name, " link"), t);
    }
    return json;
}

} // namespace nse
