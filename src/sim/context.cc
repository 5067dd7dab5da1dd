#include "sim/context.h"

#include <algorithm>

#include "classfile/writer.h"
#include "support/error.h"
#include "support/fnv1a.h"
#include "vm/interpreter.h"

namespace nse
{

const char *
orderingName(OrderingSource src)
{
    switch (src) {
      case OrderingSource::Static: return "SCG";
      case OrderingSource::RtaStatic: return "RTA";
      case OrderingSource::Train: return "Train";
      case OrderingSource::Test: return "Test";
      case OrderingSource::MustUse: return "MustUse";
    }
    return "?";
}

ExecTrace
recordTrace(const Program &prog, const NativeRegistry &natives,
            const std::vector<int64_t> &input, const VmOptions &opts,
            const DecodedCache *decoded)
{
    ExecTrace trace;
    Vm vm(prog, natives, input, opts, decoded);
    vm.setFirstUseHook([&](MethodId id, uint64_t clock) {
        trace.events.push_back({id, clock});
        return clock;
    });
    trace.totals = vm.run();
    return trace;
}

uint64_t
strictInvocationLatency(const SimContext &ctx, const LinkModel &link)
{
    // Strict execution begins once the first class file — the one
    // holding main — has fully transferred.
    return transferCost(ctx.entryClassBytes(), link);
}

uint64_t
nonStrictInvocationLatency(const SimContext &ctx, const LinkModel &link,
                           bool data_partition)
{
    // Non-strict execution begins once the entry class's global data
    // (or, partitioned, just its needed-first chunk and main's GMD)
    // plus the entry method itself have transferred. The entry method
    // is first in every ordering, so any ordering gives the same
    // figure; use the static one.
    LayoutKey key;
    key.parallel = true;
    key.ordering = OrderingSource::Static;
    key.partitioned = data_partition;
    const TransferLayout &layout = ctx.layout(key);
    return transferCost(layout.of(ctx.program().entry()).availOffset,
                        link);
}

SimContext::SimContext(const Program &prog, const NativeRegistry &natives,
                       std::vector<int64_t> train_input,
                       std::vector<int64_t> test_input,
                       const std::string &cache_dir)
    : prog_(prog), natives_(natives), trainInput_(std::move(train_input)),
      testInput_(std::move(test_input))
{
    if (!cache_dir.empty())
        fatal("SimContext: the on-disk profile cache is gone; pass \"\" "
              "as cache_dir (got \"", cache_dir, "\")");
    for (uint16_t c = 0; c < prog_.classCount(); ++c)
        totalBytes_ += layoutOf(prog_.classAt(c)).totalSize;
    entryClassBytes_ =
        layoutOf(prog_.classByName(prog_.entryClass())).totalSize;
}

uint64_t
SimContext::contentKey() const
{
    std::call_once(contentKeyOnce_, [&] {
        Fnv1a f;
        for (uint16_t c = 0; c < prog_.classCount(); ++c) {
            SerializedClass sc = writeClassFile(prog_.classAt(c));
            f.u64(sc.bytes.size());
            f.bytes(sc.bytes.data(), sc.bytes.size());
        }
        f.str(prog_.entryClass());
        f.u64(trainInput_.size());
        for (int64_t v : trainInput_)
            f.u64(static_cast<uint64_t>(v));
        f.u64(testInput_.size());
        for (int64_t v : testInput_)
            f.u64(static_cast<uint64_t>(v));
        contentKey_ = f.h;
    });
    return contentKey_;
}

const FirstUseProfile &
SimContext::trainProfile() const
{
    std::call_once(trainOnce_, [&] {
        trainProfile_ =
            profileRun(prog_, natives_, trainInput_, &decoded());
    });
    return *trainProfile_;
}

const FirstUseProfile &
SimContext::testProfile() const
{
    std::call_once(testOnce_, [&] {
        testProfile_ =
            profileRun(prog_, natives_, testInput_, &decoded());
    });
    return *testProfile_;
}

const ExecTrace &
SimContext::trace() const
{
    // The test profile *is* the instrumented run: its first-use order
    // and stall-free clocks are exactly the trace events, and its
    // VmResult the final totals — no further interpretation needed.
    std::call_once(traceOnce_, [&] {
        const FirstUseProfile &p = testProfile();
        ExecTrace t;
        t.events.reserve(p.order.size());
        for (size_t i = 0; i < p.order.size(); ++i)
            t.events.push_back({p.order[i], p.firstUseClock[i]});
        t.totals = p.result;
        trace_ = std::move(t);
    });
    return *trace_;
}

const FirstUseProfile &
SimContext::profileFor(OrderingSource src) const
{
    NSE_ASSERT(src == OrderingSource::Train ||
                   src == OrderingSource::Test,
               "the static orderings have no profile");
    return src == OrderingSource::Train ? trainProfile() : testProfile();
}

const CallGraph &
SimContext::callGraph() const
{
    std::call_once(cgOnce_, [&] { callGraph_ = buildCallGraph(prog_); });
    return *callGraph_;
}

const UseAnalysis &
SimContext::useAnalysis() const
{
    std::call_once(useOnce_, [&] {
        useAnalysis_ =
            analyzeUse(prog_, callGraph(), decoded(), &natives_);
    });
    return *useAnalysis_;
}

const DecodedCache &
SimContext::decoded() const
{
    std::call_once(decodedOnce_, [&] {
        decoded_ = std::make_unique<DecodedCache>(
            prog_, /*block_delimiter_cost=*/0);
    });
    return *decoded_;
}

const FirstUseOrder &
SimContext::ordering(OrderingSource src) const
{
    {
        std::lock_guard<std::mutex> lock(orderMu_);
        auto it = orders_.find(src);
        if (it != orders_.end())
            return it->second;
    }
    // Compute outside the lock (profile runs are expensive); the
    // emplace below tolerates a racing duplicate.
    FirstUseOrder order;
    switch (src) {
      case OrderingSource::Static:
        order = staticFirstUse(prog_);
        break;
      case OrderingSource::RtaStatic:
        order = staticFirstUse(prog_, callGraph());
        break;
      case OrderingSource::Train:
      case OrderingSource::Test:
        order = completeWithStatic(prog_, profileFor(src).order);
        break;
      case OrderingSource::MustUse:
        order = mustUseFirstUse(prog_, callGraph(), useAnalysis());
        break;
    }
    std::lock_guard<std::mutex> lock(orderMu_);
    return orders_.emplace(src, std::move(order)).first->second;
}

const DataPartition &
SimContext::partition(OrderingSource src) const
{
    {
        std::lock_guard<std::mutex> lock(partitionMu_);
        auto it = partitions_.find(src);
        if (it != partitions_.end())
            return it->second;
    }
    DataPartition part = partitionGlobalData(prog_, ordering(src));
    std::lock_guard<std::mutex> lock(partitionMu_);
    return partitions_.emplace(src, std::move(part)).first->second;
}

const TransferLayout &
SimContext::layout(const LayoutKey &key) const
{
    {
        std::lock_guard<std::mutex> lock(layoutMu_);
        auto it = layouts_.find(key);
        if (it != layouts_.end())
            return it->second;
    }
    const FirstUseOrder &order = ordering(key.ordering);
    const DataPartition *part =
        key.partitioned ? &partition(key.ordering) : nullptr;
    TransferLayout layout = key.parallel
                                ? makeParallelLayout(prog_, order, part)
                                : makeInterleavedLayout(prog_, order, part);

    if (key.classStrict) {
        // Strict at class granularity: a method is available only
        // when the last byte of its class's stream segment is. For
        // the per-class streams that is the stream end; in the
        // interleaved file it is the latest offset of the class.
        std::vector<uint64_t> class_end(prog_.classCount(), 0);
        for (uint16_t c = 0; c < prog_.classCount(); ++c)
            for (const MethodPlacement &pl : layout.place[c])
                class_end[c] = std::max(class_end[c], pl.availOffset);
        for (uint16_t c = 0; c < prog_.classCount(); ++c) {
            for (MethodPlacement &pl : layout.place[c]) {
                pl.availOffset =
                    key.parallel ? layout.streams[static_cast<size_t>(
                                                      pl.streamIdx)]
                                       .totalBytes
                                 : class_end[c];
            }
        }
    }

    std::lock_guard<std::mutex> lock(layoutMu_);
    return layouts_.emplace(key, std::move(layout)).first->second;
}

const std::vector<uint64_t> &
SimContext::methodCycles(OrderingSource src) const
{
    {
        std::lock_guard<std::mutex> lock(cyclesMu_);
        auto it = cycles_.find(src);
        if (it != cycles_.end())
            return it->second;
    }
    const FirstUseOrder &order = ordering(src);
    std::vector<uint64_t> cycles;
    if (src == OrderingSource::Static ||
        src == OrderingSource::RtaStatic) {
        cycles = staticFirstUseCycles(prog_, order);
    } else if (src == OrderingSource::MustUse) {
        // Deadlines from the use-distance analysis: mayMin is a sound
        // lower bound on each method's first-use clock, so scheduling
        // against it errs toward starting streams early — the safe
        // side for stalls (contention is bounded by the concurrency
        // limit). Appended never-used methods keep the "never" mark.
        const UseAnalysis &ua = useAnalysis();
        cycles.reserve(order.order.size());
        for (size_t i = 0; i < order.order.size(); ++i)
            cycles.push_back(i < order.usedCount
                                 ? ua.globalOf(order.order[i]).mayMin
                                 : UINT64_MAX);
    } else {
        const FirstUseProfile &profile = profileFor(src);
        cycles.reserve(order.order.size());
        for (const MethodId &id : order.order)
            cycles.push_back(profile.of(id).firstUseClock);
    }
    std::lock_guard<std::mutex> lock(cyclesMu_);
    return cycles_.emplace(src, std::move(cycles)).first->second;
}

const TransferSchedule &
SimContext::schedule(const ScheduleKey &key) const
{
    {
        std::lock_guard<std::mutex> lock(scheduleMu_);
        auto it = schedules_.find(key);
        if (it != schedules_.end())
            return it->second;
    }
    const TransferLayout &lay = layout(key.layout);
    StreamDemand demand =
        deriveStreamDemand(prog_, ordering(key.layout.ordering), lay,
                           methodCycles(key.layout.ordering));
    LinkModel link{"memo", key.cyclesPerByte};
    TransferSchedule sched =
        buildGreedySchedule(lay, demand, link, key.limit);
    std::lock_guard<std::mutex> lock(scheduleMu_);
    return schedules_.emplace(key, std::move(sched)).first->second;
}

} // namespace nse
