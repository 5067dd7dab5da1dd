/**
 * @file
 * Golden-output regression tests. Every experiment of the bench
 * registry whose report is deterministic (all but the wall-clock
 * ext_server and ext_vm) must print byte-identical text to its
 * committed fixture tests/golden/<name>.txt, run in-process with the
 * fleet experiments capped at 64 clients. Any change to the VM's
 * cycle accounting, the restructurer, the transfer engine, the greedy
 * scheduler, the replay executor, the server loop, the edge cache, or
 * the table renderer shows up here as a diff — deliberate changes
 * regenerate the fixtures (NSE_REGEN_GOLDEN=1, see below). The
 * nse-audit-v1 JSON document is pinned the same way.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "analysis/audit.h"
#include "analysis/callgraph.h"
#include "analysis/first_use.h"
#include "bench/bench_env.h"
#include "program/builder.h"
#include "restructure/data_partition.h"
#include "restructure/layout.h"

namespace nse
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << "missing golden fixture " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Compare `actual` with the fixture at tests/golden/<file>, or with
 *  NSE_REGEN_GOLDEN set, rewrite the fixture instead. */
void
expectGolden(const std::string &file, const std::string &actual)
{
    std::string path = std::string(NSE_SOURCE_DIR) + "/tests/golden/" + file;
    const char *regen = std::getenv("NSE_REGEN_GOLDEN");
    if (regen && *regen) {
        std::ofstream os(path, std::ios::binary);
        os << actual;
        GTEST_SKIP() << "regenerated " << path;
    }
    EXPECT_EQ(readFile(path), actual)
        << "output drifted from tests/golden/" << file
        << ". If the change is intentional, regenerate with:\n"
           "  NSE_REGEN_GOLDEN=1 build/tests/golden_test";
}

/** The experiments with a deterministic report. */
std::vector<std::string>
deterministicExperiments()
{
    std::vector<std::string> names;
    for (const Experiment &e : experiments())
        if (!e.wallClock)
            names.push_back(e.name);
    return names;
}

class GoldenBench : public ::testing::TestWithParam<std::string>
{
  protected:
    /** One environment for the whole suite, as nse_bench shares one. */
    static BenchEnv &
    env()
    {
        static BenchEnv shared(/*threads=*/0, /*max_fleet=*/64);
        return shared;
    }
};

TEST_P(GoldenBench, ReportIsByteIdentical)
{
    auto it = std::find_if(
        experiments().begin(), experiments().end(),
        [&](const Experiment &e) { return GetParam() == e.name; });
    ASSERT_NE(it, experiments().end());
    std::ostringstream os;
    BenchJson json = it->run(env(), os);
    EXPECT_EQ(json.name(), GetParam());
    EXPECT_TRUE(json.failedChecks().empty());
    expectGolden(GetParam() + ".txt", os.str());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, GoldenBench,
    ::testing::ValuesIn(deterministicExperiments()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Golden, AuditJsonIsByteIdentical)
{
    // The machine-readable auditor document (schema nse-audit-v1) is
    // an external interface: downstream tooling parses it, so its
    // exact shape — field names, ordering, formatting — is pinned
    // here on a deterministic mismatched-partition report (the same
    // recipe tests/audit_test.cc checks semantically: partition built
    // where a precedes b, layout from the swapped order).
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &a = t.addMethod("a", "()V");
    a.ldcString("shared banner text, claimed by the earlier user");
    a.emit(Opcode::POP);
    a.invokeStatic("T", "b", "()V");
    a.emit(Opcode::RETURN);
    MethodBuilder &b = t.addMethod("b", "()V");
    b.ldcString("shared banner text, claimed by the earlier user");
    b.emit(Opcode::POP);
    b.emit(Opcode::RETURN);
    MethodBuilder &m = t.addMethod("main", "()V");
    m.invokeStatic("T", "a", "()V");
    m.invokeStatic("T", "b", "()V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");

    CallGraph cg = buildCallGraph(p);
    MethodId a_id = p.resolveStatic("T", "a", "()V");
    MethodId b_id = p.resolveStatic("T", "b", "()V");
    FirstUseOrder o1 = staticFirstUse(p); // main, a, b
    FirstUseOrder o2 = o1;
    auto ia = std::find(o2.order.begin(), o2.order.end(), a_id);
    auto ib = std::find(o2.order.begin(), o2.order.end(), b_id);
    ASSERT_TRUE(ia != o2.order.end() && ib != o2.order.end());
    std::iter_swap(ia, ib); // main, b, a

    DataPartition part = partitionGlobalData(p, o1);
    TransferLayout layout = makeParallelLayout(p, o2, &part);
    AuditReport report = auditNonStrictSafety(p, cg, o2, layout, &part);
    ASSERT_FALSE(report.ok());
    expectGolden("audit_mismatch.json", report.toJson());
}

} // namespace
} // namespace nse
