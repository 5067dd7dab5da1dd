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

#include <cmath>
#include <map>
#include <set>

#include "bench/bench_env.h"
#include "classfile/writer.h"

namespace nse
{
namespace
{

/**
 * A hand-rolled sequential transfer of reorderable units. Units send
 * back to back at the link rate; on demand, a unit (plus any of its
 * predecessors that carry its class prefix) jumps the queue after the
 * unit currently in flight.
 */
class AdaptiveInterleaver
{
  public:
    AdaptiveInterleaver(const Program &prog, const FirstUseOrder &order,
                        double cycles_per_byte, bool adaptive)
        : cyclesPerByte_(cycles_per_byte), adaptive_(adaptive)
    {
        // Build units: per class a global-data unit inserted before
        // its first method unit, then method units in first-use order
        // (exactly the interleaved layout's composition).
        std::vector<bool> class_seen(prog.classCount(), false);
        for (const MethodId &id : order.order) {
            if (!class_seen[id.classIdx]) {
                class_seen[id.classIdx] = true;
                Unit g;
                g.bytes = layoutOf(prog.classAt(id.classIdx))
                              .globalDataEnd;
                g.classIdx = id.classIdx;
                g.isGlobal = true;
                queue_.push_back(g);
            }
            Unit u;
            u.bytes = prog.method(id).transferSize();
            u.classIdx = id.classIdx;
            u.method = id;
            queue_.push_back(u);
        }
    }

    /** Cycle at which method `id` is fully available, given `now`. */
    uint64_t promotions() const { return promotions_; }

    uint64_t
    waitFor(MethodId id, uint64_t now)
    {
        // The network keeps sending while execution runs: everything
        // that completed by `now` is already on the client.
        advanceTo(now);
        if (!done_.count(id)) {
            if (adaptive_)
                promote(id, now);
            // Stall: drain until the needed unit has arrived.
            while (!done_.count(id) && cursor_ < queue_.size())
                sendNext();
        }
        return std::max(now, done_[id]);
    }

  private:
    struct Unit
    {
        uint64_t bytes = 0;
        uint16_t classIdx = 0;
        bool isGlobal = false;
        /** Sent, or tombstoned after being promoted to a new slot. */
        bool sentAtSet = false;
        MethodId method{};
    };

    uint64_t
    cost(const Unit &u) const
    {
        return static_cast<uint64_t>(
            std::ceil(static_cast<double>(u.bytes) * cyclesPerByte_));
    }

    void
    sendNext()
    {
        Unit &u = queue_[cursor_++];
        if (u.sentAtSet)
            return; // promoted earlier; skip its old slot
        clock_ += cost(u);
        u.sentAtSet = true;
        if (u.isGlobal)
            globalSent_.insert(u.classIdx);
        else
            done_[u.method] = clock_;
    }

    /** Skip tombstones, then send every unit completing by `now`. */
    void
    advanceTo(uint64_t now)
    {
        while (cursor_ < queue_.size()) {
            Unit &u = queue_[cursor_];
            if (u.sentAtSet) {
                ++cursor_; // tombstone
                continue;
            }
            if (clock_ + cost(u) > now)
                break;
            sendNext();
        }
    }

    /** Move `id`'s unit (and its class global, if unsent) up next,
     *  behind whatever unit is currently on the wire. */
    void
    promote(MethodId id, uint64_t now)
    {
        // Find the pending (un-tombstoned) unit for this method.
        // Indices shift on every insertion, so search rather than
        // cache.
        size_t idx_found = queue_.size();
        for (size_t i = cursor_; i < queue_.size(); ++i) {
            if (!queue_[i].isGlobal && !queue_[i].sentAtSet &&
                queue_[i].method == id) {
                idx_found = i;
                break;
            }
        }
        if (idx_found == queue_.size())
            return;
        // The unit at the cursor may be mid-flight; the promoted units
        // slot in right behind it.
        size_t insert_at = cursor_;
        if (cursor_ < queue_.size() && clock_ < now)
            insert_at = cursor_ + 1;
        if (insert_at >= idx_found)
            return; // already next in line
        ++promotions_;
        std::vector<Unit> promoted;
        // Class global first, when still pending.
        if (!globalSent_.count(id.classIdx)) {
            for (size_t i = cursor_; i < queue_.size(); ++i) {
                if (queue_[i].isGlobal &&
                    queue_[i].classIdx == id.classIdx &&
                    !queue_[i].sentAtSet) {
                    promoted.push_back(queue_[i]);
                    queue_[i].sentAtSet = true; // tombstone old slot
                    break;
                }
            }
        }
        promoted.push_back(queue_[idx_found]);
        queue_[idx_found].sentAtSet = true; // tombstone old slot
        queue_.insert(queue_.begin() + static_cast<long>(insert_at),
                      promoted.begin(), promoted.end());
        // Clear the tombstone flag on the fresh copies.
        for (size_t k = 0; k < promoted.size(); ++k)
            queue_[insert_at + k].sentAtSet = false;
    }

    double cyclesPerByte_;
    bool adaptive_;
    uint64_t clock_ = 0;
    size_t cursor_ = 0;
    std::vector<Unit> queue_;
    std::map<MethodId, uint64_t> done_;
    std::set<uint16_t> globalSent_;
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
