#include "sim/replay.h"

#include <cmath>

#include "analysis/callgraph.h"
#include "transfer/engine.h"
#include "transfer/runahead.h"
#include "transfer/schedule.h"
#include "vm/interpreter.h"

namespace nse
{

double
normalizedPct(const SimResult &result, const SimResult &strict)
{
    // Degenerate baseline (empty program): define the ratio as 100%
    // instead of poisoning report tables with inf/NaN.
    if (strict.totalCycles == 0)
        return 100.0;
    return 100.0 * static_cast<double>(result.totalCycles) /
           static_cast<double>(strict.totalCycles);
}

uint64_t
wholeProgramTransferCycles(uint64_t total_bytes, uint64_t entry_bytes,
                           const LinkModel &link, const FaultPlan &plan,
                           uint64_t *invocation_latency,
                           uint64_t *retry_count,
                           uint64_t *degraded_cycles, EventSink *obs)
{
    if (plan.nominal()) {
        if (invocation_latency)
            *invocation_latency = transferCost(entry_bytes, link);
        return transferCost(total_bytes, link);
    }
    TransferEngine engine(link.cyclesPerByte, 1, plan);
    engine.setSink(obs);
    int s = engine.addStream("whole-program", total_bytes);
    engine.scheduleStart(s, 0);
    uint64_t entry_arrival = engine.waitFor(s, entry_bytes, 0);
    if (invocation_latency)
        *invocation_latency = entry_arrival;
    uint64_t done = engine.finishAll();
    if (retry_count)
        *retry_count = engine.retryCount();
    if (degraded_cycles)
        *degraded_cycles = engine.degradedCycles();
    return done;
}

LayoutKey
layoutKeyOf(const SimConfig &cfg)
{
    LayoutKey key;
    key.parallel = cfg.mode == SimConfig::Mode::Parallel;
    key.ordering = cfg.ordering;
    key.partitioned = cfg.dataPartition;
    key.classStrict = cfg.classStrict;
    return key;
}

void
SimConfig::validate(uint64_t total_bytes) const
{
    NSE_CHECK(std::isfinite(link.cyclesPerByte) &&
                  link.cyclesPerByte > 0.0,
              "link ", link.name ? link.name : "?",
              " needs a finite positive cycles-per-byte, got ",
              link.cyclesPerByte);
    // 2^64 is exactly representable; a whole-program cost at or past
    // it cannot be a cycle count.
    NSE_CHECK(std::ceil(static_cast<double>(total_bytes) *
                        link.cyclesPerByte) < 18446744073709551616.0,
              "moving ", total_bytes, " bytes at ", link.cyclesPerByte,
              " cycles per byte overflows the cycle counter");
}

namespace
{

/** Record one first use's wait on `obs` (null records nothing). */
void
observeWait(EventSink *obs, uint64_t clock, uint64_t resume,
            int stream, MethodId id, uint64_t offset)
{
    if (!obs)
        return;
    ObsEvent ev;
    ev.cycle = clock;
    ev.kind = ObsKind::MethodWait;
    ev.stream = stream;
    ev.cls = id.classIdx;
    ev.method = id.methodIdx;
    ev.a = resume;
    ev.b = offset;
    obs->record(ev);
}

void
observeEnd(EventSink *obs, const SimResult &r)
{
    if (!obs)
        return;
    ObsEvent ev;
    ev.cycle = r.totalCycles;
    ev.kind = ObsKind::RunEnd;
    ev.a = r.execCycles;
    obs->record(ev);
}

SimResult
runStrict(const SimContext &ctx, const SimConfig &cfg, EventSink *obs)
{
    const VmResult &exec = ctx.testProfile().result;
    SimResult r;
    r.transferCycles = wholeProgramTransferCycles(
        ctx.totalBytes(), ctx.entryClassBytes(), cfg.link, cfg.faults,
        &r.invocationLatency, &r.retryCount, &r.degradedCycles, obs);
    r.execCycles = exec.execCycles;
    r.totalCycles = r.transferCycles + r.execCycles;
    r.stallCycles = r.transferCycles;
    r.bytecodes = exec.bytecodes;
    r.cpi = exec.cpi();
    // Strict is one wait: the entry method's first use at cycle 0
    // blocks until the whole program has arrived (stream -1, the
    // single-connection whole-program transfer).
    observeWait(obs, 0, r.transferCycles, /*stream=*/-1,
                ctx.program().entry(), /*offset=*/0);
    observeEnd(obs, r);
    return r;
}

} // namespace

OverlappedRun::OverlappedRun(const SimContext &ctx, const SimConfig &cfg,
                             EventSink *obs,
                             const std::vector<uint64_t> *starts)
    : ctx_(&ctx), cfg_(&cfg), obs_(obs),
      layout_(&ctx.layout(layoutKeyOf(cfg))),
      engine_(cfg.link.cyclesPerByte,
              cfg.mode == SimConfig::Mode::Parallel ? cfg.parallelLimit
                                                    : 1,
              cfg.faults)
{
    NSE_CHECK(cfg.mode != SimConfig::Mode::Strict,
              "an overlapped run needs Parallel or Interleaved mode");
    bool parallel = cfg.mode == SimConfig::Mode::Parallel;
    for (const StreamInfo &s : layout_->streams)
        engine_.addStream(s.name, s.totalBytes);
    if (!starts && parallel) {
        ScheduleKey skey;
        skey.layout = layoutKeyOf(cfg);
        skey.cyclesPerByte = cfg.link.cyclesPerByte;
        skey.limit = cfg.parallelLimit;
        starts = &ctx.schedule(skey).startCycle;
    }
    if (starts) {
        NSE_CHECK(starts->size() == layout_->streams.size(),
                  "start plan covers ", starts->size(), " of ",
                  layout_->streams.size(), " streams");
        for (size_t i = 0; i < starts->size(); ++i)
            engine_.scheduleStart(static_cast<int>(i), (*starts)[i]);
    } else {
        engine_.scheduleStart(0, 0);
    }
    engine_.setSink(obs);
    if (parallel && cfg.runaheadDepth > 0)
        runahead_.emplace(ctx.trace(), *layout_, ctx.callGraph(),
                          cfg.runaheadDepth);
}

FirstUseWait
OverlappedRun::arrive(size_t idx, MethodId id, uint64_t clock)
{
    const MethodPlacement &pl = layout_->of(id);
    FirstUseWait w{id, pl.streamIdx, pl.availOffset, false};
    engine_.advanceTo(clock);
    const Stream &s = engine_.stream(w.stream);
    if (cfg_->mode == SimConfig::Mode::Parallel &&
        s.state == StreamState::Idle && s.scheduledStart > clock) {
        // Misprediction (§5.1): the class is needed but neither
        // transferring nor about to — fetch it on demand.
        w.mispredicted = true;
        ++result_.mispredictions;
        if (obs_) {
            ObsEvent ev;
            ev.cycle = clock;
            ev.kind = ObsKind::Mispredict;
            ev.stream = w.stream;
            ev.cls = id.classIdx;
            ev.method = id.methodIdx;
            obs_->record(ev);
        }
        engine_.demandStart(w.stream, clock);
        if (runahead_ && !engine_.hasArrived(w.stream, w.offset))
            runahead_->onStall(engine_, idx, clock, obs_);
    }
    return w;
}

void
OverlappedRun::resume(const FirstUseWait &w, uint64_t clock,
                      uint64_t resume)
{
    result_.stallCycles += resume - clock;
    observeWait(obs_, clock, resume, w.stream, w.method, w.offset);
    if (!entrySeen_) {
        entrySeen_ = true;
        result_.invocationLatency = resume;
    }
    lastResume_ = resume;
}

uint64_t
OverlappedRun::wait(size_t idx, MethodId id, uint64_t clock)
{
    FirstUseWait w = arrive(idx, id, clock);
    uint64_t r = engine_.waitFor(w.stream, w.offset, clock);
    resume(w, clock, r);
    return r;
}

SimResult
OverlappedRun::finish(uint64_t final_clock, const VmResult &totals)
{
    // A caller that answered waits without stepping the engine (the
    // batched replay window) leaves it behind the last resume; catch
    // it up so retry/degraded accounting matches the per-event path.
    if (lastResume_ > engine_.time())
        engine_.advanceTo(lastResume_);
    SimResult r = result_;
    r.totalCycles = final_clock;
    r.execCycles = totals.execCycles;
    // The paper's reference figure (and every table's denominator):
    // the whole program front-to-back on the run's own link under its
    // own plan.
    r.transferCycles =
        wholeProgramTransferCycles(ctx_->totalBytes(),
                                   ctx_->entryClassBytes(), cfg_->link,
                                   cfg_->faults);
    r.bytecodes = totals.bytecodes;
    r.cpi = totals.cpi();
    r.retryCount = engine_.retryCount();
    r.degradedCycles = engine_.degradedCycles();
    observeEnd(obs_, r);
    return r;
}

SimResult
runReplay(const SimContext &ctx, const SimConfig &cfg, EventSink *obs)
{
    cfg.validate(ctx.totalBytes());
    if (cfg.mode == SimConfig::Mode::Strict)
        return runStrict(ctx, cfg, obs);

    bool parallel = cfg.mode == SimConfig::Mode::Parallel;
    OverlappedRun run(ctx, cfg, obs);
    const TransferEngine &engine = run.engine();
    const TransferLayout &layout = run.layout();
    const ExecTrace &trace = ctx.trace();
    // Batched integration: inside a quiet window (nothing in flight,
    // next scheduled start still ahead) the engine's state is frozen,
    // so a first-use whose needed prefix has already arrived resolves
    // to `resume == clock` by pure arithmetic — whole runs of events
    // between watch crossings cost one predicate each instead of an
    // engine advance. Sinked runs take the same fast path: the elided
    // MethodWait is recorded directly (zero stall, by the window
    // predicate), and every event the frozen engine would eventually
    // emit carries a cycle at or past the window bound, so the
    // recorded stream respects the EventSink ordering contract. Any
    // event the fast path cannot answer (stream mid-flight, prefix
    // missing, possible misprediction) takes the exact per-event step,
    // then re-arms the window. tests/replay_test.cc and
    // tests/runahead_test.cc pin results and recorded events equal to
    // runLiveReference, which never batches.
    uint64_t quiet = engine.quietUntil();
    size_t ev_idx = 0;
    uint64_t final_clock =
        replayTrace(trace, [&](MethodId id, uint64_t clock) {
            size_t idx = ev_idx++;
            const MethodPlacement &pl = layout.of(id);
            if (clock < quiet &&
                engine.hasArrived(pl.streamIdx, pl.availOffset) &&
                !(parallel && engine.stream(pl.streamIdx).state ==
                                  StreamState::Idle)) {
                run.resume({id, pl.streamIdx, pl.availOffset, false},
                           clock, clock);
                return clock;
            }
            uint64_t resume = run.wait(idx, id, clock);
            quiet = engine.quietUntil();
            return resume;
        });
    return run.finish(final_clock, trace.totals);
}

SimResult
runLiveReference(const SimContext &ctx, const SimConfig &cfg,
                 EventSink *obs)
{
    cfg.validate(ctx.totalBytes());
    if (cfg.mode == SimConfig::Mode::Strict)
        return runStrict(ctx, cfg, obs);

    OverlappedRun run(ctx, cfg, obs);
    // The live run's first-use sequence is the recorded trace's (the
    // record-once/replay-many invariant), so a plain hook counter
    // indexes the trace for runahead.
    size_t hook_idx = 0;
    Vm vm(ctx.program(), ctx.natives(), ctx.testInput(), {},
          &ctx.decoded());
    vm.setFirstUseHook([&](MethodId id, uint64_t clock) {
        return run.wait(hook_idx++, id, clock);
    });
    VmResult exec = vm.run();
    return run.finish(exec.clock, exec);
}

} // namespace nse
