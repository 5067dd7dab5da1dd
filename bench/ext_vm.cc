/**
 * @file
 * Extension — the execution core itself: how fast is the simulator's
 * substrate? Three dispatch strategies execute identical semantics
 * (vm/interpreter.h): the classic one-Instruction-at-a-time switch,
 * a portable switch over the pre-decoded IR, and computed-goto direct
 * threading over the same IR (vm/decoded.h). This bench pins their
 * relative throughput, plus the trace-replay executor's throughput
 * and its equality with the interpreter-in-the-loop oracle.
 *
 * Three tables:
 *
 *   live dispatch    every workload interpreted end-to-end under each
 *                    dispatch mode, in ns per executed bytecode (the
 *                    decoded modes share SimContext's decode cache,
 *                    so verify+decode is paid once, as in real use);
 *   synthetic loop   a generated arithmetic-loop program
 *                    (workloads/synthetic.h) that isolates dispatch
 *                    from native/invoke overhead — the stable number
 *                    the declared floor check asserts on (threaded
 *                    must stay >= 5x classic). The modes are timed in
 *                    interleaved rounds and each speedup is the
 *                    median of the per-round ratios, so a slow patch
 *                    of a shared machine slows both sides of a ratio
 *                    instead of one;
 *   replay           runReplay on every workload's headline
 *                    configuration, in us per run and replayed
 *                    first-use events per second, each result checked
 *                    field for field against runLiveReference.
 *
 * Timing tables vary run to run; this bench has no golden. The
 * BENCH_ext_vm.json metrics carry the speedups and replay events/s,
 * and its checks hold the threaded-dispatch floor and replay
 * equality.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "bench/bench_env.h"
#include "sim/replay.h"
#include "vm/interpreter.h"
#include "workloads/synthetic.h"

namespace nse
{
namespace
{

/** One full interpretation; returns ns/bytecode. */
double
interpretOnce(const Program &prog, const NativeRegistry &natives,
              const std::vector<int64_t> &input, DispatchMode mode,
              const DecodedCache *decoded, uint64_t *bytecodes)
{
    VmOptions opts;
    opts.dispatch = mode;
    Vm vm(prog, natives, input, opts, decoded);
    auto t0 = std::chrono::steady_clock::now();
    VmResult r = vm.run();
    auto t1 = std::chrono::steady_clock::now();
    if (bytecodes)
        *bytecodes = r.bytecodes;
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(r.bytecodes ? r.bytecodes : 1);
}

/** Time `fn` (ns per call): one warm-up call, then repeat until 25 ms
 *  of samples (>= 5 calls) and keep the minimum. */
template <typename Fn>
double
bestNs(Fn &&fn)
{
    fn();
    double best = 0.0;
    double total = 0.0;
    int reps = 0;
    while (reps < 5 || total < 25e6) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        best = reps == 0 ? ns : std::min(best, ns);
        total += ns;
        ++reps;
    }
    return best;
}

/** Rounds of the interleaved synthetic-loop measurement. */
constexpr int kSyntheticRounds = 21;

double
median(std::vector<double> v)
{
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    return a.invocationLatency == b.invocationLatency &&
           a.totalCycles == b.totalCycles &&
           a.execCycles == b.execCycles &&
           a.transferCycles == b.transferCycles &&
           a.stallCycles == b.stallCycles &&
           a.mispredictions == b.mispredictions &&
           a.bytecodes == b.bytecodes && a.cpi == b.cpi &&
           a.retryCount == b.retryCount &&
           a.degradedCycles == b.degradedCycles;
}

} // namespace

BenchJson
runExtVm(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Extension (execution core)",
                "Dispatch throughput (classic switch vs decoded switch "
                "vs direct threading) and trace replay");

    const std::vector<BenchWorkload> &entries = env.workloads();
    BenchJson json("ext_vm");

    // ---- Live dispatch: full workloads, end to end. -----------------
    Table live({"Program", "Bytecodes", "Classic ns/bc", "Switch ns/bc",
                "Threaded ns/bc", "Thr/Classic", "Thr/Switch"});
    double log_thr = 0.0, log_sw = 0.0;
    for (const BenchWorkload &e : entries) {
        const Program &prog = e.workload.program;
        const NativeRegistry &nat = e.workload.natives;
        const std::vector<int64_t> &in = e.workload.testInput;
        const DecodedCache *dc = &e.ctx->decoded();
        uint64_t bc = 0;
        // Warm the shared decode cache so every timed decoded run
        // measures execution, not one-time verify+decode (real use
        // amortizes it across a whole experiment grid).
        interpretOnce(prog, nat, in, DispatchMode::Threaded, dc, &bc);
        double thr = interpretOnce(prog, nat, in,
                                   DispatchMode::Threaded, dc, &bc);
        double sw = interpretOnce(prog, nat, in, DispatchMode::Switch,
                                  dc, nullptr);
        double cl = interpretOnce(prog, nat, in, DispatchMode::Classic,
                                  nullptr, nullptr);
        log_thr += std::log(cl / thr);
        log_sw += std::log(cl / sw);
        live.addRow({e.workload.name, std::to_string(bc), fmtF(cl, 2),
                     fmtF(sw, 2), fmtF(thr, 2), fmtF(cl / thr, 2),
                     fmtF(sw / thr, 2)});
    }
    double n = static_cast<double>(entries.size());
    double geo_thr = std::exp(log_thr / n);
    double geo_sw = std::exp(log_sw / n);
    live.addRow({"GEOMEAN", "", "", "", "", fmtF(geo_thr, 2), ""});
    os << live.render() << "\n";
    json.addTable("live dispatch", live);
    json.setMetric("workload_threaded_speedup", geo_thr);
    json.setMetric("workload_switch_speedup", geo_sw);

    // ---- Synthetic loop: the checked dispatch number. ---------------
    // A generated arithmetic-loop program with almost no native or
    // invoke time, so the measurement is dispatch plus fused-operator
    // work and stays stable across runs and machines.
    SyntheticSpec spec;
    spec.seed = 7;
    spec.classCount = 8;
    spec.methodsPerClass = 10;
    spec.reachablePct = 90;
    spec.workScale = 256;
    Program syn = makeSyntheticProgram(spec);
    NativeRegistry syn_nat = standardNatives();
    std::vector<int64_t> syn_in;
    for (int i = 0; i < 2000; ++i)
        syn_in.push_back(static_cast<int64_t>(i * 2654435761ull % 1000));
    DecodedCache syn_dc(syn);

    // Each round runs every mode once, starting with a different one
    // each round, so no mode always runs first.
    const DispatchMode modes[] = {DispatchMode::Classic,
                                  DispatchMode::Switch,
                                  DispatchMode::Threaded};
    auto syn_ns = [&](DispatchMode mode) {
        return interpretOnce(syn, syn_nat, syn_in, mode,
                             mode == DispatchMode::Classic ? nullptr
                                                           : &syn_dc,
                             nullptr);
    };
    for (DispatchMode mode : modes)
        syn_ns(mode); // warm-up
    std::vector<double> ns[3], thr_ratio, sw_ratio;
    for (int r = 0; r < kSyntheticRounds; ++r) {
        double t[3];
        for (int k = 0; k < 3; ++k) {
            int m = (r + k) % 3;
            t[m] = syn_ns(modes[m]);
            ns[m].push_back(t[m]);
        }
        sw_ratio.push_back(t[0] / t[1]);
        thr_ratio.push_back(t[0] / t[2]);
    }
    double syn_thr_speedup = median(thr_ratio);
    double syn_sw_speedup = median(sw_ratio);

    Table synth({"Mode", "ns/bc", "Speedup vs classic"});
    synth.addRow({"Classic", fmtF(median(ns[0]), 2), fmtF(1.0, 2)});
    synth.addRow({"Switch", fmtF(median(ns[1]), 2),
                  fmtF(syn_sw_speedup, 2)});
    synth.addRow({"Threaded", fmtF(median(ns[2]), 2),
                  fmtF(syn_thr_speedup, 2)});
    os << synth.render() << "\n";
    json.addTable("synthetic dispatch", synth);
    json.setMetric("synthetic_threaded_speedup", syn_thr_speedup);
    json.setMetric("synthetic_switch_speedup", syn_sw_speedup);

    // ---- Replay: runReplay timed and checked against the oracle. ----
    SimConfig cfg = headlineConfig();

    Table rep({"Program", "Events", "Replay us", "Replay events/s",
               "Equal"});
    double log_eps = 0.0;
    uint64_t mismatches = 0;
    for (const BenchWorkload &e : entries) {
        const SimContext &ctx = *e.ctx;
        double events =
            static_cast<double>(ctx.trace().events.size());
        bool equal = sameResult(runReplay(ctx, cfg),
                                runLiveReference(ctx, cfg));
        if (!equal)
            ++mismatches;
        double ns = bestNs([&] { runReplay(ctx, cfg); });
        double eps = events * 1e9 / ns;
        log_eps += std::log(eps);
        rep.addRow({e.workload.name,
                    std::to_string(ctx.trace().events.size()),
                    fmtF(ns / 1e3, 1),
                    std::to_string(static_cast<uint64_t>(eps)),
                    equal ? "yes" : "NO"});
    }
    double geo_eps = std::exp(log_eps / n);
    rep.addRow({"GEOMEAN", "", "",
                std::to_string(static_cast<uint64_t>(geo_eps)), ""});
    os << rep.render();
    json.addTable("replay integrator", rep);
    json.setMetric("replay_events_per_sec", geo_eps);
    json.setMetric("replay_mismatches", mismatches);

    for (const char *label :
         {"live dispatch", "synthetic dispatch", "replay integrator"})
        json.checkTable(label);
    json.check("synthetic_threaded_speedup", CheckOp::Ge, 5.0);
    json.check("replay_mismatches", CheckOp::Eq, 0);
    json.check("replay_events_per_sec", CheckOp::Gt, 0);
    return json;
}

} // namespace nse
