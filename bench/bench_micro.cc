/**
 * @file
 * Google-benchmark microbenchmarks of the substrate itself: bytecode
 * interpretation throughput, verification speed, class-file
 * serialization round trips, the shared-bandwidth transfer engine,
 * and static first-use estimation. These guard the simulator's own
 * performance (the experiments run thousands of co-simulated
 * executions).
 */

#include <benchmark/benchmark.h>

#include "analysis/first_use.h"
#include "classfile/parser.h"
#include "classfile/writer.h"
#include "profile/first_use_profile.h"
#include "transfer/engine.h"
#include "vm/interpreter.h"
#include "vm/verifier.h"
#include "workloads/synthetic.h"
#include "workloads/workload.h"

using namespace nse;

namespace
{

const Program &
syntheticProgram()
{
    static Program prog = [] {
        SyntheticSpec spec;
        spec.seed = 7;
        spec.classCount = 10;
        spec.methodsPerClass = 10;
        return makeSyntheticProgram(spec);
    }();
    return prog;
}

void
BM_InterpreterThroughput(benchmark::State &state)
{
    Workload w = makeZipper();
    uint64_t bytecodes = 0;
    for (auto _ : state) {
        Vm vm(w.program, w.natives, w.trainInput);
        VmResult r = vm.run();
        bytecodes += r.bytecodes;
        benchmark::DoNotOptimize(r.execCycles);
    }
    state.counters["bytecodes/s"] = benchmark::Counter(
        static_cast<double>(bytecodes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput)->Unit(benchmark::kMillisecond);

void
BM_VerifyProgram(benchmark::State &state)
{
    const Program &prog = syntheticProgram();
    Verifier verifier(prog);
    for (auto _ : state)
        verifier.verifyAll();
}
BENCHMARK(BM_VerifyProgram)->Unit(benchmark::kMicrosecond);

void
BM_ClassFileRoundTrip(benchmark::State &state)
{
    const Program &prog = syntheticProgram();
    for (auto _ : state) {
        for (uint16_t c = 0; c < prog.classCount(); ++c) {
            SerializedClass sc = writeClassFile(prog.classAt(c));
            ClassFile parsed = parseClassFile(sc.bytes);
            benchmark::DoNotOptimize(parsed.methods.size());
        }
    }
}
BENCHMARK(BM_ClassFileRoundTrip)->Unit(benchmark::kMicrosecond);

void
BM_TransferEngine(benchmark::State &state)
{
    auto streams = static_cast<int>(state.range(0));
    for (auto _ : state) {
        TransferEngine engine(3815.0, 4);
        for (int i = 0; i < streams; ++i) {
            engine.addStream("s", 4096);
            engine.scheduleStart(i, static_cast<uint64_t>(i) * 1000);
        }
        benchmark::DoNotOptimize(engine.finishAll());
    }
}
BENCHMARK(BM_TransferEngine)->Arg(8)->Arg(32)->Arg(128)->Unit(
    benchmark::kMicrosecond);

void
BM_StaticFirstUse(benchmark::State &state)
{
    const Program &prog = syntheticProgram();
    for (auto _ : state) {
        FirstUseOrder order = staticFirstUse(prog);
        benchmark::DoNotOptimize(order.order.size());
    }
}
BENCHMARK(BM_StaticFirstUse)->Unit(benchmark::kMicrosecond);

void
BM_FirstUseProfile(benchmark::State &state)
{
    Workload w = makeHanoi();
    for (auto _ : state) {
        FirstUseProfile p =
            profileRun(w.program, w.natives, w.trainInput);
        benchmark::DoNotOptimize(p.order.size());
    }
}
BENCHMARK(BM_FirstUseProfile)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
