/**
 * @file
 * Extension — transfer faults and variable bandwidth.
 *
 * The paper's evaluation assumes a perfectly constant link; real
 * mobile links dip and drop. This bench evaluates the same programs
 * under a seeded FaultPlan (transfer/faults.h): burst windows of
 * degraded bandwidth plus per-stream connection drops with
 * retry-after-timeout, exponential backoff, and resume-from-offset.
 * Schedules are still built against the nominal link — the server
 * cannot foresee faults — so all recovery happens through the
 * paper's own mechanisms (stalls, demand fetches).
 *
 * Reported per link and fault level: the *degradation* of strict and
 * of non-strict (parallel, Train ordering, limit 4) execution — extra
 * cycles as a percent of the nominal strict total, so both columns
 * share a denominator. Expected shape: non-strict degrades strictly
 * less at every level on both links. Strict transfer is one
 * connection with nothing overlapped, so every retry timeout and
 * every degraded window lands on the critical path; non-strict
 * reallocates bandwidth to other streams while one is down, keeps
 * executing through windows whose bytes already arrived, and simply
 * never pays for faults on bytes the run does not need — overlap buys
 * fault tolerance as well as latency.
 */

#include <cstdint>

#include "bench/bench_env.h"
#include "transfer/faults.h"

namespace nse
{
namespace
{

struct FaultLevel
{
    const char *name;
    double expectedDrops;     ///< mean drops per whole-program volume
    double degradedMultiplier; ///< burst-window bandwidth multiplier
    int maxAttempts;
    uint64_t timeoutDivisor;  ///< retry timeout = strictNom / divisor
};

constexpr FaultLevel kLevels[] = {
    {"mild", 2.0, 0.9, 1, 64},
    {"moderate", 6.0, 0.75, 2, 48},
    {"severe", 12.0, 0.6, 2, 32},
};

FaultPlan
makePlan(const FaultLevel &lvl, uint64_t strict_nom_cycles,
         uint64_t total_bytes, uint64_t seed)
{
    FaultPlan plan;
    plan.trace = BandwidthTrace::bursts(
        seed, std::max<uint64_t>(strict_nom_cycles / 16, 1),
        lvl.degradedMultiplier, 4 * strict_nom_cycles);
    plan.dropSeed = seed;
    plan.dropsPerMByte = lvl.expectedDrops * 1048576.0 /
                         static_cast<double>(total_bytes);
    plan.maxAttempts = lvl.maxAttempts;
    plan.retryTimeoutCycles =
        std::max<uint64_t>(strict_nom_cycles / lvl.timeoutDivisor, 1);
    return plan;
}

} // namespace

BenchJson
runExtFaults(BenchEnv &env, std::ostream &os)
{
    benchHeader(
        os, "Extension — faults & variable bandwidth",
        "Degradation under seeded bandwidth bursts + connection drops\n"
        "(extra cycles as % of nominal strict; schedules stay nominal;\n"
        "S = strict, NS = parallel Train limit 4; NS must degrade less)");

    BenchJson json("ext_faults");
    for (const LinkModel &link : {kT1Link, kModemLink}) {
        std::vector<std::string> headers{"Program (" +
                                         std::string(link.name) + ")"};
        for (const FaultLevel &lvl : kLevels) {
            headers.push_back(std::string("S+% ") + lvl.name);
            headers.push_back(std::string("NS+% ") + lvl.name);
        }
        headers.push_back("Retries S/NS sev");
        headers.push_back("Degr Mcyc NS sev");

        auto rowOf = [&](const BenchWorkload &e) {
            SimConfig strict = strictConfig(link);
            SimConfig ns = headlineConfig(OrderingSource::Train, link);

            SimResult strict_nom = runReplay(*e.ctx, strict);
            SimResult ns_nom = runReplay(*e.ctx, ns);
            uint64_t bytes = e.ctx->totalBytes();
            auto base = static_cast<double>(strict_nom.totalCycles);

            std::vector<std::string> row{e.workload.name};
            uint64_t sev_retries_s = 0, sev_retries_ns = 0;
            uint64_t sev_degraded_ns = 0;
            for (const FaultLevel &lvl : kLevels) {
                FaultPlan plan = makePlan(lvl, strict_nom.totalCycles,
                                          bytes, /*seed=*/1998);
                strict.faults = plan;
                ns.faults = plan;
                SimResult strict_f = runReplay(*e.ctx, strict);
                SimResult ns_f = runReplay(*e.ctx, ns);
                // Signed: a fault-shifted demand fetch can nudge a
                // compute-bound run marginally below its nominal time.
                double s_deg =
                    100.0 *
                    (static_cast<double>(strict_f.totalCycles) -
                     static_cast<double>(strict_nom.totalCycles)) /
                    base;
                double ns_deg =
                    100.0 *
                    (static_cast<double>(ns_f.totalCycles) -
                     static_cast<double>(ns_nom.totalCycles)) /
                    base;
                row.push_back(fmtF(s_deg, 1));
                row.push_back(fmtF(ns_deg, 1));
                if (&lvl == &kLevels[2]) {
                    sev_retries_s = strict_f.retryCount;
                    sev_retries_ns = ns_f.retryCount;
                    sev_degraded_ns = ns_f.degradedCycles;
                }
            }
            row.push_back(std::to_string(sev_retries_s) + "/" +
                          std::to_string(sev_retries_ns));
            row.push_back(fmtMillions(sev_degraded_ns, 1));
            return row;
        };
        Table t = workloadTable(env, std::move(headers), rowOf);
        os << t.render() << "\n";
        json.addTable(cat(link.name, " link"), t);
    }
    return json;
}

} // namespace nse
