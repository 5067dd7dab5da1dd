/**
 * @file
 * Transfer-schedule visualizer: renders the paper's Figure 4 for a
 * real workload — an ASCII Gantt chart of when each class file
 * transfers under the greedy parallel schedule, annotated with each
 * class's first-use deadline.
 *
 * Usage:  ./build/examples/schedule_viz [workload] [limit]
 *         workload in {BIT, Hanoi, JavaCup, Jess, JHLZip, TestDes}
 *         (default TestDes); limit = concurrent transfers, 0 =
 *         unlimited (default 4)
 *
 * An unknown workload, a limit that is not a plain decimal in range,
 * or an extra argument prints the reason and the usage and exits 2.
 */

#include <algorithm>
#include <charconv>
#include <climits>
#include <iomanip>
#include <iostream>
#include <string>

#include "restructure/layout.h"
#include "sim/replay.h"
#include "support/error.h"
#include "transfer/engine.h"
#include "transfer/schedule.h"
#include "workloads/workload.h"

using namespace nse;

namespace
{

int
usage(const std::string &error)
{
    std::cerr << "error: " << error << "\n"
              << "usage: schedule_viz [workload] [limit]\n"
                 "workloads: BIT Hanoi JavaCup Jess JHLZip TestDes\n"
                 "limit: concurrent transfers, 0 = unlimited "
                 "(default 4)\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 3)
        return usage("too many arguments");
    std::string name = argc > 1 ? argv[1] : "TestDes";
    int limit = 4;
    if (argc > 2) {
        std::string text = argv[2];
        const char *end = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), end, limit);
        if (ec != std::errc() || ptr != end || limit < 0)
            return usage("limit needs a count in [0, " +
                         std::to_string(INT_MAX) + "], got '" + text +
                         "'");
    }

    Workload w;
    try {
        w = makeWorkload(name);
    } catch (const FatalError &e) {
        return usage(e.what());
    }
    SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
    const FirstUseOrder &order = ctx.ordering(OrderingSource::Test);
    TransferLayout layout =
        makeParallelLayout(w.program, order, nullptr);

    std::vector<uint64_t> cycles;
    for (const MethodId &id : order.order)
        cycles.push_back(ctx.testProfile().of(id).firstUseClock);
    StreamDemand demand =
        deriveStreamDemand(w.program, order, layout, cycles);
    TransferSchedule sched =
        buildGreedySchedule(layout, demand, kT1Link, limit);

    // Replay the schedule to find each stream's span.
    TransferEngine engine(kT1Link.cyclesPerByte, limit);
    for (const StreamInfo &s : layout.streams)
        engine.addStream(s.name, s.totalBytes);
    for (size_t i = 0; i < sched.startCycle.size(); ++i)
        engine.scheduleStart(static_cast<int>(i), sched.startCycle[i]);
    uint64_t end = engine.finishAll();

    std::cout << "Transfer schedule: " << name << ", T1 link, limit "
              << (limit <= 0 ? std::string("inf")
                             : std::to_string(limit))
              << " (first 24 classes by first use)\n"
              << "columns = time; '=' transferring, '|' first-use "
                 "deadline\n\n";

    constexpr int kCols = 100;
    double per_col =
        static_cast<double>(end) / static_cast<double>(kCols);
    int shown = 0;
    for (int s : demand.streamOrder) {
        if (shown++ >= 24)
            break;
        const Stream &st = engine.stream(s);
        auto col = [&](uint64_t cycle) {
            return std::min<int>(
                kCols - 1,
                static_cast<int>(static_cast<double>(cycle) / per_col));
        };
        std::string bar(kCols, ' ');
        int from = col(st.startedAt);
        int to = col(st.finishedAt);
        for (int c = from; c <= to; ++c)
            bar[static_cast<size_t>(c)] = '=';
        uint64_t deadline = demand.deadline[static_cast<size_t>(s)];
        if (deadline != UINT64_MAX && deadline <= end)
            bar[static_cast<size_t>(col(deadline))] = '|';
        std::cout << std::left << std::setw(14)
                  << st.name.substr(0, 13) << bar << "\n";
    }
    std::cout << "\ntotal transfer span: " << end << " cycles ("
              << static_cast<double>(end) / 500e6 << " s at 500 MHz)\n";
    return 0;
}
