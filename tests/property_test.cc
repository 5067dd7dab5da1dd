/**
 * @file
 * Property-based sweeps over generated programs and random transfer
 * configurations: system-level invariants that must hold for *any*
 * mobile program, not just the six benchmarks.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "support/error.h"

#include "analysis/first_use.h"
#include "classfile/parser.h"
#include "classfile/writer.h"
#include "restructure/data_partition.h"
#include "restructure/layout.h"
#include "restructure/reorder.h"
#include "sim/replay.h"
#include "support/rng.h"
#include "transfer/engine.h"
#include "vm/interpreter.h"
#include "vm/verifier.h"
#include "workloads/synthetic.h"

namespace nse
{
namespace
{

class SyntheticSweep : public ::testing::TestWithParam<uint64_t>
{
  protected:
    SyntheticSweep()
    {
        SyntheticSpec spec;
        spec.seed = GetParam();
        spec.classCount = 5 + static_cast<int>(GetParam() % 5);
        spec.methodsPerClass = 4 + static_cast<int>(GetParam() % 4);
        prog_ = makeSyntheticProgram(spec);
        natives_ = standardNatives();
    }

    Program prog_;
    NativeRegistry natives_;
};

TEST_P(SyntheticSweep, VerifiesAndExecutes)
{
    Verifier verifier(prog_);
    ASSERT_NO_THROW(verifier.verifyAll());
    Vm vm(prog_, natives_, {1, 7});
    VmResult r = vm.run();
    EXPECT_EQ(r.output.size(), 2u);
    EXPECT_GT(r.bytecodes, 0u);
}

TEST_P(SyntheticSweep, SerializationRoundTripsEveryClass)
{
    for (uint16_t c = 0; c < prog_.classCount(); ++c) {
        SerializedClass sc = writeClassFile(prog_.classAt(c));
        ClassFile parsed = parseClassFile(sc.bytes);
        EXPECT_EQ(writeClassFile(parsed).bytes, sc.bytes);
    }
}

TEST_P(SyntheticSweep, ReorderingPreservesBehaviour)
{
    Vm base_vm(prog_, natives_, {2, 9, 4});
    VmResult base = base_vm.run();

    FirstUseOrder order = staticFirstUse(prog_);
    Program re = reorderProgram(prog_, order);
    Verifier verifier(re);
    ASSERT_NO_THROW(verifier.verifyAll());
    Vm re_vm(re, natives_, {2, 9, 4});
    VmResult after = re_vm.run();
    EXPECT_EQ(base.output, after.output);
    EXPECT_EQ(base.execCycles, after.execCycles);
}

TEST_P(SyntheticSweep, OrderingsCoverEveryMethodOnce)
{
    FirstUseOrder order = staticFirstUse(prog_);
    EXPECT_EQ(order.order.size(), prog_.methodCount());
    std::set<MethodId> unique(order.order.begin(), order.order.end());
    EXPECT_EQ(unique.size(), prog_.methodCount());
    EXPECT_EQ(order.order.front(), prog_.entry());
}

TEST_P(SyntheticSweep, PartitionConservesGlobalBytes)
{
    FirstUseOrder order = staticFirstUse(prog_);
    DataPartition part = partitionGlobalData(prog_, order);
    for (uint16_t c = 0; c < prog_.classCount(); ++c) {
        EXPECT_EQ(part.classes[c].total(),
                  layoutOf(prog_.classAt(c)).globalDataEnd);
    }
    EXPECT_GT(part.neededFirstBytes(), 0u);
}

TEST_P(SyntheticSweep, LayoutsConserveBytes)
{
    FirstUseOrder order = staticFirstUse(prog_);
    DataPartition part = partitionGlobalData(prog_, order);
    uint64_t expected = 0;
    for (uint16_t c = 0; c < prog_.classCount(); ++c)
        expected += layoutOf(prog_.classAt(c)).totalSize;
    for (const DataPartition *p : {(const DataPartition *)nullptr,
                                   (const DataPartition *)&part}) {
        EXPECT_EQ(makeParallelLayout(prog_, order, p).totalBytes,
                  expected);
        EXPECT_EQ(makeInterleavedLayout(prog_, order, p).totalBytes,
                  expected);
    }
}

TEST_P(SyntheticSweep, NonStrictNeverSlowerThanStrict)
{
    SimContext ctx(prog_, natives_, {1}, {1, 5, 3});
    SimConfig strict;
    strict.mode = SimConfig::Mode::Strict;
    strict.link = kModemLink;
    SimResult s = runReplay(ctx, strict);
    for (SimConfig::Mode mode : {SimConfig::Mode::Parallel,
                                 SimConfig::Mode::Interleaved}) {
        for (bool part : {false, true}) {
            SimConfig cfg;
            cfg.mode = mode;
            cfg.ordering = OrderingSource::Test;
            cfg.link = kModemLink;
            cfg.parallelLimit = 4;
            cfg.dataPartition = part;
            SimResult r = runReplay(ctx, cfg);
            EXPECT_LE(r.totalCycles, s.totalCycles);
            EXPECT_LE(r.invocationLatency, s.invocationLatency);
        }
    }
}

TEST_P(SyntheticSweep, WiderLimitNeverHurtsPerfectOrdering)
{
    SimContext ctx(prog_, natives_, {1}, {1, 5, 3});
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = OrderingSource::Test;
    cfg.link = kModemLink;
    cfg.parallelLimit = 1;
    uint64_t narrow = runReplay(ctx, cfg).totalCycles;
    cfg.parallelLimit = -1;
    uint64_t wide = runReplay(ctx, cfg).totalCycles;
    // Allow a whisker of slack for event rounding.
    EXPECT_LE(wide, narrow + narrow / 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                           88));

// ---------------------------------------------------------------------
// Random transfer-engine configurations.
// ---------------------------------------------------------------------

class EngineSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(EngineSweep, ConservationAndMonotonicity)
{
    Rng rng(GetParam());
    double cpb = 50.0 + static_cast<double>(rng.below(5000));
    int limit = static_cast<int>(rng.below(5)); // 0 = unlimited
    TransferEngine engine(cpb, limit);

    int n = 3 + static_cast<int>(rng.below(10));
    uint64_t total_bytes = 0;
    std::vector<uint64_t> sizes;
    for (int i = 0; i < n; ++i) {
        uint64_t bytes = 50 + rng.below(5000);
        sizes.push_back(bytes);
        total_bytes += bytes;
        engine.addStream("s", bytes);
        engine.scheduleStart(i, rng.below(200'000));
    }
    uint64_t finish = engine.finishAll();

    // Conservation: the link can't move bytes faster than its rate.
    auto min_cycles = static_cast<uint64_t>(
        std::floor(static_cast<double>(total_bytes) * cpb));
    EXPECT_GE(finish + n /* rounding slack */, min_cycles);

    // Every stream completed, within its own start + solo bound is a
    // lower bound on its finish.
    for (int i = 0; i < n; ++i) {
        const Stream &s = engine.stream(i);
        EXPECT_EQ(s.state, StreamState::Done);
        EXPECT_GE(s.finishedAt + 1,
                  s.startedAt + static_cast<uint64_t>(std::floor(
                                    static_cast<double>(sizes[
                                        static_cast<size_t>(i)]) *
                                    cpb)));
        if (limit > 0) {
            EXPECT_LE(s.startedAt, finish);
        }
    }
}

TEST_P(EngineSweep, WaitForAgreesWithWatches)
{
    Rng rng(GetParam() ^ 0xabcdef);
    double cpb = 100.0 + static_cast<double>(rng.below(1000));
    auto build = [&](TransferEngine &e, std::vector<uint64_t> &offsets) {
        Rng local(GetParam());
        for (int i = 0; i < 5; ++i) {
            uint64_t bytes = 100 + local.below(2000);
            e.addStream("s", bytes);
            e.scheduleStart(i, local.below(50'000));
            offsets.push_back(1 + local.below(bytes));
        }
    };
    std::vector<uint64_t> offsets_a, offsets_b;
    TransferEngine a(cpb, 2), b(cpb, 2);
    build(a, offsets_a);
    build(b, offsets_b);

    // Engine a: waitFor in stream order. Engine b: watches.
    std::vector<uint64_t> via_wait;
    uint64_t now = 0;
    for (int i = 0; i < 5; ++i) {
        now = 0;
        // waitFor advances the engine; query arrival from scratch time.
        via_wait.push_back(a.waitFor(i, offsets_a[
            static_cast<size_t>(i)], a.time()));
    }
    for (int i = 0; i < 5; ++i)
        b.setWatch(i, offsets_b[static_cast<size_t>(i)]);
    b.runWatches();
    // waitFor visits in order, so its results are only >= the true
    // arrival (engine time is monotone); the watch gives the truth.
    for (int i = 0; i < 5; ++i) {
        EXPECT_GE(via_wait[static_cast<size_t>(i)],
                  b.watchedArrival(i));
    }
    (void)now;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSweep,
                         ::testing::Values(101, 202, 303, 404, 505,
                                           606));

} // namespace
} // namespace nse
