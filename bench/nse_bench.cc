/**
 * @file
 * nse_bench: the one experiment driver. Runs every registered
 * experiment (bench_env.h) in registry order — or only those named by
 * --only — in one process over one shared BenchEnv, prints each
 * report to stdout, writes each BENCH_<name>.json, and exits non-zero
 * when any experiment's declared check fails. --trace-out records the
 * canonical observed run once, after the reports.
 *
 *   nse_bench [--only=<name>[,<name>...]]... [--trace-out=<file>]
 *
 * Exit status: 0 all checks pass, 1 a check failed, 2 usage error.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "bench/bench_env.h"
#include "support/error.h"

using namespace nse;

int
main(int argc, char **argv)
{
    BenchOptions opts;
    try {
        opts = parseBenchOptions({argv + 1, argv + argc},
                                 std::getenv("NSE_BENCH_THREADS"),
                                 std::getenv("NSE_SERVER_MAX_FLEET"));
    } catch (const FatalError &e) {
        std::cerr << "nse_bench: " << e.what();
        return 2;
    }

    BenchEnv env(opts.threads, opts.maxFleet);
    std::vector<std::string> failed;
    for (const Experiment &exp : experiments()) {
        if (!opts.only.empty() &&
            std::find(opts.only.begin(), opts.only.end(), exp.name) ==
                opts.only.end())
            continue;
        BenchJson json = exp.run(env, std::cout);
        std::cout.flush();
        if (json.name() != exp.name)
            failed.push_back(cat(exp.name, ": its JSON is named \"",
                                 json.name(), "\""));
        std::string path = json.write();
        if (!path.empty())
            std::cerr << "bench JSON: " << path << "\n";
        for (std::string &f : json.failedChecks())
            failed.push_back(std::move(f));
    }
    if (!opts.traceOut.empty())
        writeBenchTrace(env, opts.traceOut, std::cout);

    for (const std::string &f : failed)
        std::cerr << "check failed: " << f << "\n";
    return failed.empty() ? 0 : 1;
}
