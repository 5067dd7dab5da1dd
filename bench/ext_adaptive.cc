/**
 * @file
 * Extension — adaptive interleaved transfer.
 *
 * The paper's interleaved transfer sends method units in a fixed
 * predicted order; on a misprediction "execution is stalled until the
 * necessary transfer completes" — potentially waiting for every unit
 * queued ahead of the needed one. A natural improvement the paper
 * leaves on the table: let the server *reorder the remaining units* on
 * demand, promoting the mispredicted method's unit (and its class's
 * global data, if still unsent) to the front of the queue.
 *
 * This bench compares fixed vs adaptive interleaving under the
 * *static* (SCG) ordering, where mispredictions actually happen, and
 * under the perfect Test ordering as a control (adaptive must change
 * nothing). Expected shape: adaptive trims the SCG column toward the
 * Test column; the control columns match exactly.
 */

#include <unordered_map>

#include "bench/bench_env.h"
#include "classfile/writer.h"
#include "transfer/engine.h"

namespace nse
{
namespace
{

/**
 * The interleaved transfer as reorderable units on a one-connection
 * TransferEngine: per class a global-data stream ahead of its first
 * method, then one stream per method, in first-use order (exactly the
 * interleaved layout's composition). Every stream starts at cycle 0,
 * so the link sends them back to back in that order; on demand, a
 * unit and its class's global data jump the queue behind the unit in
 * flight (TransferEngine::demandStart).
 */
class AdaptiveInterleaver
{
  public:
    AdaptiveInterleaver(const Program &prog, const FirstUseOrder &order,
                        double cycles_per_byte, bool adaptive)
        : engine_(cycles_per_byte, 1), adaptive_(adaptive),
          globalStream_(prog.classCount(), -1)
    {
        for (const MethodId &id : order.order) {
            int &g = globalStream_[id.classIdx];
            if (g < 0)
                g = addUnit(layoutOf(prog.classAt(id.classIdx))
                                .globalDataEnd);
            methodStream_[id] = addUnit(prog.method(id).transferSize());
        }
    }

    /** Waits in which a demand moved a unit ahead in the queue. */
    uint64_t promotions() const { return promotions_; }

    /** Cycle at which method `id` is fully available, given `now`. */
    uint64_t
    waitFor(MethodId id, uint64_t now)
    {
        // The network keeps sending while execution runs: everything
        // that completed by `now` is already on the client.
        engine_.advanceTo(now);
        int m = methodStream_.at(id);
        uint64_t bytes =
            static_cast<uint64_t>(engine_.stream(m).totalBytes);
        if (adaptive_ && !engine_.hasArrived(m, bytes)) {
            // Demand the method, then its class's global data, so the
            // global data goes first.
            bool moved = engine_.demandStart(m, now);
            moved |= engine_.demandStart(globalStream_[id.classIdx], now);
            promotions_ += moved;
        }
        return engine_.waitFor(m, bytes, now);
    }

  private:
    int
    addUnit(uint64_t bytes)
    {
        int s = engine_.addStream("", bytes);
        engine_.scheduleStart(s, 0);
        return s;
    }

    TransferEngine engine_;
    bool adaptive_;
    std::vector<int> globalStream_;
    std::unordered_map<MethodId, int> methodStream_;
    uint64_t promotions_ = 0;
};

struct RunStats
{
    double normalized = 0;
    uint64_t maxStall = 0;
    uint64_t promotions = 0;
};

RunStats
runOnce(const BenchWorkload &e, OrderingSource src, const LinkModel &link,
        bool adaptive, double strict_total)
{
    const FirstUseOrder &order = e.ctx->ordering(src);
    AdaptiveInterleaver net(e.workload.program, order,
                            link.cyclesPerByte, adaptive);
    RunStats stats;
    uint64_t total = replayTrace(
        e.ctx->trace(), [&](MethodId id, uint64_t clock) {
            uint64_t resume = net.waitFor(id, clock);
            stats.maxStall = std::max(stats.maxStall, resume - clock);
            return resume;
        });
    stats.normalized =
        100.0 * static_cast<double>(total) / strict_total;
    stats.promotions = net.promotions();
    return stats;
}

} // namespace

BenchJson
runExtAdaptive(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Extension — adaptive interleaving",
                "Fixed vs demand-reordered interleaved transfer "
                "(normalized % of strict); Test ordering is the "
                "no-misprediction control");

    auto rowOf = [](const BenchWorkload &e) -> std::vector<std::string> {
        double base = static_cast<double>(
            runReplay(*e.ctx, strictConfig(kModemLink)).totalCycles);

        RunStats f = runOnce(e, OrderingSource::Static, kModemLink,
                             false, base);
        RunStats a = runOnce(e, OrderingSource::Static, kModemLink,
                             true, base);
        RunStats cf = runOnce(e, OrderingSource::Test, kModemLink,
                              false, base);
        RunStats ca = runOnce(e, OrderingSource::Test, kModemLink,
                              true, base);
        return {e.workload.name, fmtF(f.normalized, 1),
                fmtF(a.normalized, 1), fmtMillions(f.maxStall, 1),
                fmtMillions(a.maxStall, 1), std::to_string(a.promotions),
                fmtF(cf.normalized, 1), fmtF(ca.normalized, 1)};
    };
    Table t = workloadTable(env,
                            {"Program", "Mod SCG Fixed %",
                             "Mod SCG Adapt %", "Fixed MaxStall M",
                             "Adapt MaxStall M", "Promotions",
                             "Mod Test Fixed %", "Mod Test Adapt %"},
                            rowOf);
    os << t.render();

    BenchJson json("ext_adaptive");
    json.addTable("Adaptive interleaving", t);
    return json;
}

} // namespace nse
