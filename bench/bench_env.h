/**
 * @file
 * The experiment registry behind `nse_bench`: each experiment
 * regenerates one of the paper's tables or figures (or an ablation or
 * extension) and prints it in the paper's row/column shape (absolute
 * numbers reflect our substrate; the shapes are what reproduce).
 *
 * An experiment is a function of a BenchEnv — the six workloads with
 * one shared SimContext each (record-once) and the ExperimentRunner
 * pool (replay-many), built once per process — that writes its report
 * to a stream and returns its BenchJson: tables, observability
 * counters under "metrics", and the pass/fail "checks" the driver
 * gates its exit status on.
 */

#ifndef NSE_BENCH_BENCH_ENV_H
#define NSE_BENCH_BENCH_ENV_H

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "report/json.h"
#include "report/table.h"
#include "sim/runner.h"
#include "workloads/workload.h"

namespace nse
{

/** A workload together with its shared context. */
struct BenchWorkload
{
    Workload workload;
    std::unique_ptr<SimContext> ctx;
};

/** Shared per-process state of every experiment. */
class BenchEnv
{
  public:
    /**
     * @param threads   runner pool size; 0 = hardware concurrency
     * @param max_fleet largest server fleet the fleet experiments run
     *                  (ext_server, ext_cache, ext_runahead);
     *                  SIZE_MAX = uncapped
     */
    explicit BenchEnv(unsigned threads = 0, size_t max_fleet = SIZE_MAX);

    /** All six workloads, in the paper's table order. */
    const std::vector<BenchWorkload> &workloads() const { return workloads_; }
    /** The workloads as grid rows for ExperimentRunner::runGrid. */
    std::vector<GridWorkload> gridWorkloads() const;
    const ExperimentRunner &runner() const { return runner_; }
    size_t maxFleet() const { return maxFleet_; }

  private:
    std::vector<BenchWorkload> workloads_;
    ExperimentRunner runner_;
    size_t maxFleet_;
};

/** One registered experiment. */
struct Experiment
{
    /** `--only` name; the JSON goes to BENCH_<name>.json. */
    const char *name;
    BenchJson (*run)(BenchEnv &env, std::ostream &os);
    /** Prints wall-clock measurements, so its text has no golden. */
    bool wallClock = false;
};

/** Every experiment, in the fixed order a full run executes them. */
const std::vector<Experiment> &experiments();

/** Validated driver settings: command-line flags plus environment. */
struct BenchOptions
{
    /** Experiments to run (registry order); empty = all. */
    std::vector<std::string> only;
    /** Destination of the canonical Chrome trace; "" = none. */
    std::string traceOut;
    /** NSE_BENCH_THREADS: worker count, 0 = hardware concurrency. */
    unsigned threads = 0;
    /** NSE_SERVER_MAX_FLEET: fleet cap; unset, empty or 0 = none. */
    size_t maxFleet = SIZE_MAX;
};

/**
 * Parse `nse_bench [--only=<name>[,<name>...]]... [--trace-out=<file>]`
 * plus the two environment values (null = unset). Raises FatalError
 * carrying a usage message for an unknown flag or experiment name and
 * for a non-numeric, negative or out-of-range environment value.
 */
BenchOptions parseBenchOptions(const std::vector<std::string> &args,
                               const char *threads_env,
                               const char *max_fleet_env);

/** The usage text, naming every valid experiment. */
std::string benchUsage();

/**
 * Observe one canonical run of the first workload (Parallel / Train
 * ordering / T1 link / limit 4, the paper's headline configuration),
 * write it to `path` as Chrome trace-event JSON, and print its stall
 * attribution to `os`.
 */
void writeBenchTrace(const BenchEnv &env, const std::string &path,
                     std::ostream &os);

/** Print a report header naming the paper artifact reproduced. */
void benchHeader(std::ostream &os, const std::string &artifact,
                 const std::string &caption);

/** A Program-per-row table of each cell's normalized time (% of
 *  strict) with a trailing AVG row, `decimals` digits per value. */
Table pctTable(std::vector<std::string> headers,
               const std::vector<GridRow> &grid, int decimals);

/** A table with one row per workload, each computed by `row` on the
 *  runner pool and kept in workload order. */
Table workloadTable(
    const BenchEnv &env, std::vector<std::string> headers,
    const std::function<std::vector<std::string>(const BenchWorkload &)>
        &row);

/** The strict baseline configuration on `link`. */
SimConfig strictConfig(const LinkModel &link);

/** The paper's headline non-strict configuration: parallel streams at
 *  concurrency limit 4, by default Train-ordered on the T1 link. */
SimConfig headlineConfig(OrderingSource ordering = OrderingSource::Train,
                         const LinkModel &link = kT1Link);

// The experiments, in registry order.
BenchJson runTable2Stats(BenchEnv &env, std::ostream &os);
BenchJson runTable3Basecase(BenchEnv &env, std::ostream &os);
BenchJson runTable4Invocation(BenchEnv &env, std::ostream &os);
BenchJson runTable5ParallelT1(BenchEnv &env, std::ostream &os);
BenchJson runTable6ParallelModem(BenchEnv &env, std::ostream &os);
BenchJson runTable7Interleaved(BenchEnv &env, std::ostream &os);
BenchJson runTable8Globaldata(BenchEnv &env, std::ostream &os);
BenchJson runTable9Partition(BenchEnv &env, std::ostream &os);
BenchJson runTable10Datapart(BenchEnv &env, std::ostream &os);
BenchJson runFig6Summary(BenchEnv &env, std::ostream &os);
BenchJson runAblateGranularity(BenchEnv &env, std::ostream &os);
BenchJson runAblateSchedule(BenchEnv &env, std::ostream &os);
BenchJson runAblateBandwidth(BenchEnv &env, std::ostream &os);
BenchJson runAblateDecompose(BenchEnv &env, std::ostream &os);
BenchJson runExtJit(BenchEnv &env, std::ostream &os);
BenchJson runExtSplit(BenchEnv &env, std::ostream &os);
BenchJson runExtAdaptive(BenchEnv &env, std::ostream &os);
BenchJson runExtFaults(BenchEnv &env, std::ostream &os);
BenchJson runExtServer(BenchEnv &env, std::ostream &os);
BenchJson runExtOrdering(BenchEnv &env, std::ostream &os);
BenchJson runExtVm(BenchEnv &env, std::ostream &os);
BenchJson runExtRunahead(BenchEnv &env, std::ostream &os);
BenchJson runExtCache(BenchEnv &env, std::ostream &os);
BenchJson runExtStallproof(BenchEnv &env, std::ostream &os);

} // namespace nse

#endif // NSE_BENCH_BENCH_ENV_H
