/**
 * @file
 * Streaming applet scenario: the paper's motivating use case — a user
 * on a 28.8K modem clicks an applet (our Hanoi workload) and waits.
 *
 * Prints the user-visible invocation latency in seconds on a 500 MHz
 * machine for strict transfer, non-strict transfer, and non-strict
 * with global-data partitioning, then traces the first ten transfer
 * stalls of the non-strict run so you can see execution overlapping
 * the download.
 *
 * Build and run:  ./build/examples/streaming_applet
 */

#include <iomanip>
#include <iostream>

#include "restructure/layout.h"
#include "sim/replay.h"
#include "transfer/engine.h"
#include "vm/interpreter.h"
#include "workloads/workload.h"

using namespace nse;

namespace
{

constexpr double kCpuHz = 500e6; // the paper's 500 MHz Alpha

double
seconds(uint64_t cycles)
{
    return static_cast<double>(cycles) / kCpuHz;
}

} // namespace

int
main()
{
    Workload applet = makeHanoi();
    SimContext ctx(applet.program, applet.natives, applet.trainInput,
                   applet.testInput);

    std::cout << std::fixed << std::setprecision(2);
    std::cout << "Applet: " << applet.name << " — "
              << applet.description << "\n"
              << "Link: 28.8K modem (134,698 cycles/byte at 500 MHz)\n\n";

    uint64_t strict = strictInvocationLatency(ctx, kModemLink);
    uint64_t ns = nonStrictInvocationLatency(ctx, kModemLink, false);
    uint64_t dp = nonStrictInvocationLatency(ctx, kModemLink, true);
    std::cout << "time until the applet starts drawing:\n"
              << "  strict (whole first class file): "
              << seconds(strict) << " s\n"
              << "  non-strict (global data + main): " << seconds(ns)
              << " s\n"
              << "  non-strict + data partitioning:  " << seconds(dp)
              << " s\n\n";

    // Trace the non-strict interleaved run: where does execution
    // actually wait on the network?
    const FirstUseOrder &order = ctx.ordering(OrderingSource::Train);
    TransferLayout layout =
        makeInterleavedLayout(applet.program, order, nullptr);
    TransferEngine engine(kModemLink.cyclesPerByte, 1);
    engine.addStream(layout.streams[0].name,
                     layout.streams[0].totalBytes);
    engine.scheduleStart(0, 0);

    int shown = 0;
    Vm vm(applet.program, applet.natives, applet.testInput);
    vm.setFirstUseHook([&](MethodId id, uint64_t clock) {
        uint64_t resume =
            engine.waitFor(0, layout.of(id).availOffset, clock);
        if (resume > clock && shown < 10) {
            ++shown;
            std::cout << "  t=" << std::setw(6) << seconds(clock)
                      << " s: stalled "
                      << seconds(resume - clock) << " s waiting for "
                      << applet.program.methodLabel(id) << "\n";
        }
        return resume;
    });
    std::cout << "first transfer stalls during the non-strict run:\n";
    VmResult result = vm.run();

    SimConfig strict_cfg;
    strict_cfg.mode = SimConfig::Mode::Strict;
    strict_cfg.link = kModemLink;
    SimResult strict_total = runReplay(ctx, strict_cfg);
    std::cout << "\ntotal time to finish the applet:\n"
              << "  strict:     " << seconds(strict_total.totalCycles)
              << " s\n"
              << "  non-strict: " << seconds(result.clock) << " s ("
              << std::setprecision(0)
              << 100.0 * static_cast<double>(result.clock) /
                     static_cast<double>(strict_total.totalCycles)
              << "% of strict)\n";
    return 0;
}
