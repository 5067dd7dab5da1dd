/**
 * @file
 * Tests for CFG construction (blocks, edges, loops) and the static
 * first-use estimator's heuristics (paper §4.1).
 */

#include <set>

#include <gtest/gtest.h>

#include "support/error.h"

#include "analysis/callgraph.h"
#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/first_use.h"
#include "program/builder.h"
#include "vm/decoded.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

TEST(Cfg, StraightLineIsOneBlock)
{
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &m = t.addMethod("f", "()I");
    m.pushInt(1);
    m.pushInt(2);
    m.emit(Opcode::IADD);
    m.emit(Opcode::IRETURN);
    Program p = pb.build("T", "f");
    Cfg cfg = buildCfg(p, MethodId{0, 0});
    ASSERT_EQ(cfg.blocks.size(), 1u);
    EXPECT_TRUE(cfg.blocks[0].succs.empty());
    EXPECT_TRUE(cfg.backEdges.empty());
    EXPECT_EQ(cfg.blocks[0].byteSize,
              p.method(MethodId{0, 0}).code.size());
}

TEST(Cfg, DiamondHasFourBlocks)
{
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &m = t.addMethod("f", "(I)I");
    m.iload(0);
    m.ifNZElse([&] { m.pushInt(1); }, [&] { m.pushInt(2); });
    m.emit(Opcode::IRETURN);
    Program p = pb.build("T", "f");
    Cfg cfg = buildCfg(p, MethodId{0, 0});
    // entry(cond), then, else, join
    ASSERT_EQ(cfg.blocks.size(), 4u);
    EXPECT_EQ(cfg.blocks[0].succs.size(), 2u);
    EXPECT_EQ(cfg.blocks[3].preds.size(), 2u);
    EXPECT_TRUE(cfg.backEdges.empty());
    for (uint32_t d : cfg.loopDepth)
        EXPECT_EQ(d, 0u);
}

TEST(Cfg, LoopProducesBackEdgeAndDepth)
{
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &m = t.addMethod("f", "()V");
    uint16_t i = m.newLocal();
    m.forRange(i, 0, 10, [&] { m.emit(Opcode::NOP); });
    m.emit(Opcode::RETURN);
    Program p = pb.build("T", "f");
    Cfg cfg = buildCfg(p, MethodId{0, 0});
    EXPECT_EQ(cfg.backEdges.size(), 1u);
    // Some block sits inside the loop at depth 1; the exit is depth 0.
    uint32_t max_depth = 0;
    for (uint32_t d : cfg.loopDepth)
        max_depth = std::max(max_depth, d);
    EXPECT_EQ(max_depth, 1u);
    EXPECT_EQ(cfg.loopDepth.back(), 0u); // return block
    // Entry sees the loop below it.
    EXPECT_GE(cfg.loopsBelow[0], 1u);
}

TEST(Cfg, NestedLoopsStackDepth)
{
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &m = t.addMethod("f", "()V");
    uint16_t i = m.newLocal();
    uint16_t j = m.newLocal();
    m.forRange(i, 0, 3, [&] {
        m.forRange(j, 0, 3, [&] { m.emit(Opcode::NOP); });
    });
    m.emit(Opcode::RETURN);
    Program p = pb.build("T", "f");
    Cfg cfg = buildCfg(p, MethodId{0, 0});
    EXPECT_EQ(cfg.backEdges.size(), 2u);
    uint32_t max_depth = 0;
    for (uint32_t d : cfg.loopDepth)
        max_depth = std::max(max_depth, d);
    EXPECT_EQ(max_depth, 2u);
}

TEST(Cfg, CallSitesRecorded)
{
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &g = t.addMethod("g", "()V");
    g.emit(Opcode::RETURN);
    MethodBuilder &m = t.addMethod("f", "()V");
    m.invokeStatic("T", "g", "()V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T", "f");
    Cfg cfg = buildCfg(p, p.resolveStatic("T", "f", "()V"));
    ASSERT_EQ(cfg.blocks.size(), 1u);
    ASSERT_EQ(cfg.blocks[0].calls.size(), 1u);
    EXPECT_EQ(p.methodLabel(cfg.blocks[0].calls[0].first), "T.g");
    EXPECT_FALSE(cfg.blocks[0].calls[0].second); // static, not virtual
}

TEST(Cfg, NativeMethodRejected)
{
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    t.addNativeMethod("n", "()V");
    MethodBuilder &m = t.addMethod("main", "()V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    EXPECT_THROW(buildCfg(p, p.resolveStatic("T", "n", "()V")),
                 FatalError);
}

/** Field-by-field equality of two CFGs of the same method. */
void
expectSameCfg(const Cfg &got, const Cfg &want)
{
    EXPECT_EQ(got.method, want.method);
    ASSERT_EQ(got.insts.size(), want.insts.size());
    for (size_t i = 0; i < got.insts.size(); ++i) {
        EXPECT_EQ(got.insts[i].op, want.insts[i].op) << i;
        EXPECT_EQ(got.insts[i].operand, want.insts[i].operand) << i;
        EXPECT_EQ(got.insts[i].offset, want.insts[i].offset) << i;
    }
    ASSERT_EQ(got.blocks.size(), want.blocks.size());
    for (size_t b = 0; b < got.blocks.size(); ++b) {
        const BasicBlock &g = got.blocks[b], &w = want.blocks[b];
        EXPECT_EQ(g.first, w.first) << b;
        EXPECT_EQ(g.last, w.last) << b;
        EXPECT_EQ(g.succs, w.succs) << b;
        EXPECT_EQ(g.preds, w.preds) << b;
        EXPECT_EQ(g.calls, w.calls) << b;
        EXPECT_EQ(g.byteSize, w.byteSize) << b;
    }
    EXPECT_EQ(got.blockOfInst, want.blockOfInst);
    EXPECT_EQ(got.backEdges, want.backEdges);
    EXPECT_EQ(got.loopDepth, want.loopDepth);
    EXPECT_EQ(got.innerHeader, want.innerHeader);
    EXPECT_EQ(got.loopsBelow, want.loopsBelow);
}

TEST(Cfg, VerifiedBodyOverloadMatchesRebuild)
{
    // The CFG over the decoded cache's verified body, and the one the
    // use analysis keeps, are the CFG a fresh verification builds.
    for (Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        const Program &prog = w.program;
        CallGraph cg = buildCallGraph(prog);
        DecodedCache dc(prog);
        UseAnalysis ua = analyzeUse(prog, cg, dc, &w.natives);
        size_t checked = 0;
        prog.forEachMethod([&](MethodId id, const ClassFile &,
                               const MethodInfo &m) {
            if (!cg.rtaReachable(id) || m.isNative())
                return;
            SCOPED_TRACE(prog.methodLabel(id));
            Cfg rebuilt = buildCfg(prog, id);
            expectSameCfg(buildCfg(prog, id, dc.get(id).verified),
                          rebuilt);
            const Cfg *kept = ua.cfg(id);
            ASSERT_NE(kept, nullptr);
            expectSameCfg(*kept, rebuilt);
            ++checked;
        });
        EXPECT_GT(checked, 0u);
    }
}

// ---------------------------------------------------------------------
// Static first-use estimation.
// ---------------------------------------------------------------------

TEST(FirstUse, EntryComesFirstAndCallsFollowEncounterOrder)
{
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &c = t.addMethod("c", "()V");
    c.emit(Opcode::RETURN);
    MethodBuilder &b = t.addMethod("b", "()V");
    b.invokeStatic("T", "c", "()V");
    b.emit(Opcode::RETURN);
    MethodBuilder &m = t.addMethod("main", "()V");
    m.invokeStatic("T", "b", "()V");
    m.invokeStatic("T", "c", "()V"); // already seen via b
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    FirstUseOrder order = staticFirstUse(p);
    ASSERT_EQ(order.order.size(), 3u);
    EXPECT_EQ(p.methodLabel(order.order[0]), "T.main");
    EXPECT_EQ(p.methodLabel(order.order[1]), "T.b");
    EXPECT_EQ(p.methodLabel(order.order[2]), "T.c");
    EXPECT_EQ(order.usedCount, 3u);
}

TEST(FirstUse, LoopPathPreferredOverStraightPath)
{
    // if (x) { callLoopy() } else { callPlain() } — the loop-rich arm
    // must be predicted first (paper: "priority to paths with loops").
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &loopy = t.addMethod("loopy", "()V");
    uint16_t i = loopy.newLocal();
    loopy.forRange(i, 0, 4, [&] { loopy.emit(Opcode::NOP); });
    loopy.emit(Opcode::RETURN);
    MethodBuilder &plain = t.addMethod("plain", "()V");
    plain.emit(Opcode::RETURN);

    MethodBuilder &m = t.addMethod("main", "()V");
    m.pushInt(1);
    // then-branch: plain; else-branch contains an inline loop + call
    // to loopy, making it the loop-heavy path.
    m.ifNZElse(
        [&] { m.invokeStatic("T", "plain", "()V"); },
        [&] {
            uint16_t j = m.newLocal();
            m.forRange(j, 0, 3, [&] { m.emit(Opcode::NOP); });
            m.invokeStatic("T", "loopy", "()V");
        });
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    FirstUseOrder order = staticFirstUse(p);
    // loopy's arm explored before plain's arm.
    size_t pos_loopy = 0, pos_plain = 0;
    for (size_t k = 0; k < order.order.size(); ++k) {
        if (p.methodLabel(order.order[k]) == "T.loopy")
            pos_loopy = k;
        if (p.methodLabel(order.order[k]) == "T.plain")
            pos_plain = k;
    }
    EXPECT_LT(pos_loopy, pos_plain);
}

TEST(FirstUse, UnreachableMethodsAppendedAtEnd)
{
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &dead = t.addMethod("dead", "()V");
    dead.emit(Opcode::RETURN);
    MethodBuilder &m = t.addMethod("main", "()V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    FirstUseOrder order = staticFirstUse(p);
    ASSERT_EQ(order.order.size(), 2u);
    EXPECT_EQ(order.usedCount, 1u);
    EXPECT_EQ(p.methodLabel(order.order.back()), "T.dead");
}

TEST(FirstUse, VirtualCallsFollowedThroughStaticType)
{
    ProgramBuilder pb;
    ClassBuilder &s = pb.addClass("S");
    MethodBuilder &v = s.addVirtualMethod("go", "()V");
    v.emit(Opcode::RETURN);
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &m = t.addMethod("main", "()V");
    m.newObject("S");
    m.invokeVirtual("S", "go", "()V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    FirstUseOrder order = staticFirstUse(p);
    ASSERT_EQ(order.usedCount, 2u);
    EXPECT_EQ(p.methodLabel(order.order[1]), "S.go");
}

TEST(FirstUse, CompleteWithStaticCoversEverything)
{
    ProgramBuilder pb;
    addRuntimeClasses(pb);
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &a = t.addMethod("a", "()V");
    a.emit(Opcode::RETURN);
    MethodBuilder &b = t.addMethod("b", "()V");
    b.emit(Opcode::RETURN);
    MethodBuilder &m = t.addMethod("main", "()V");
    m.invokeStatic("T", "a", "()V");
    m.invokeStatic("T", "b", "()V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");

    // Pretend a profile only saw main and b.
    std::vector<MethodId> partial{
        p.resolveStatic("T", "main", "()V"),
        p.resolveStatic("T", "b", "()V")};
    FirstUseOrder order = completeWithStatic(p, partial);
    EXPECT_EQ(order.order.size(), p.methodCount());
    EXPECT_EQ(order.usedCount, 2u);
    EXPECT_EQ(p.methodLabel(order.order[0]), "T.main");
    EXPECT_EQ(p.methodLabel(order.order[1]), "T.b");
    // Every method appears exactly once.
    std::set<MethodId> unique(order.order.begin(), order.order.end());
    EXPECT_EQ(unique.size(), order.order.size());
}

TEST(FirstUse, RanksAndPerClassOrderConsistent)
{
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &b = t.addMethod("b", "()V");
    b.emit(Opcode::RETURN);
    MethodBuilder &m = t.addMethod("main", "()V");
    m.invokeStatic("T", "b", "()V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    FirstUseOrder order = staticFirstUse(p);
    auto per_class = order.perClassOrder(p);
    auto ranks = order.ranks(p);
    ASSERT_EQ(per_class[0].size(), 2u);
    // main (method index 1) first, then b (index 0).
    EXPECT_EQ(per_class[0][0], 1u);
    EXPECT_EQ(per_class[0][1], 0u);
    EXPECT_LT(ranks[0][1], ranks[0][0]);
}

} // namespace
} // namespace nse
