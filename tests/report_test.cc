/**
 * @file
 * Tests for the table renderer and JSON emitter used by every bench
 * binary.
 */

#include <cstdlib>
#include <gtest/gtest.h>

#include "report/json.h"
#include "report/table.h"
#include "support/error.h"

namespace nse
{
namespace
{

TEST(Table, RendersAlignedColumns)
{
    Table t({"Program", "Cycles"});
    t.addRow({"BIT", "123"});
    t.addRow({"LongerName", "7"});
    std::string out = t.render();
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    EXPECT_NE(out.find("Program"), std::string::npos);
    EXPECT_NE(out.find("LongerName"), std::string::npos);
    // Numeric column is right aligned: "123" and "  7" line up.
    auto line_with = [&](const std::string &needle) {
        size_t pos = out.find(needle);
        size_t start = out.rfind('\n', pos);
        size_t end = out.find('\n', pos);
        return out.substr(start + 1, end - start - 1);
    };
    EXPECT_EQ(line_with("BIT").size(), line_with("LongerName").size());
}

TEST(Table, RejectsMisshapenRows)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
    EXPECT_THROW(t.addRow({"1", "2", "3"}), FatalError);
    EXPECT_EQ(t.rowCount(), 0u);
}

TEST(Json, QuoteEscapesControlAndSpecialCharacters)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote("tab\there"), "\"tab\\there\"");
    EXPECT_EQ(jsonQuote("ctl\x01"), "\"ctl\\u0001\"");
    EXPECT_EQ(jsonQuote("nl\n"), "\"nl\\n\"");
}

TEST(Json, BenchDocumentShape)
{
    Table t({"Program", "Pct"});
    t.addRow({"BIT", "54"});
    BenchJson json("unit");
    json.addTable("Table X", t);
    std::string doc = json.str();
    EXPECT_NE(doc.find("\"bench\": \"unit\""), std::string::npos);
    EXPECT_NE(doc.find("\"label\": \"Table X\""), std::string::npos);
    EXPECT_NE(doc.find("[\"Program\",\"Pct\"]"), std::string::npos);
    EXPECT_NE(doc.find("[\"BIT\",\"54\"]"), std::string::npos);
}

TEST(Json, MetricsObjectAlwaysPresentAndOrdered)
{
    BenchJson json("unit");
    EXPECT_NE(json.str().find("\"metrics\": {}"), std::string::npos);

    json.setMetric("runs", uint64_t{12});
    json.setMetric("cpi", 1.5);
    json.setMetric("runs", uint64_t{13}); // last set wins, in place
    std::string doc = json.str();
    EXPECT_NE(doc.find("\"metrics\": {\"runs\": 13, \"cpi\": 1.5}"),
              std::string::npos);
}

TEST(Json, ChecksEvaluateMetricsAndTables)
{
    BenchJson json("unit");
    EXPECT_NE(json.str().find("\"checks\": []"), std::string::npos);

    json.setMetric("mismatches", uint64_t{0});
    json.setMetric("speedup", 4.5);
    Table t({"Program"});
    json.addTable("present", t);
    EXPECT_TRUE(json.check("mismatches", CheckOp::Eq, 0));
    EXPECT_FALSE(json.check("speedup", CheckOp::Ge, 5.0));
    EXPECT_TRUE(json.check("speedup", CheckOp::Lt, 5.0));
    EXPECT_TRUE(json.checkTable("present"));
    EXPECT_FALSE(json.checkTable("absent"));
    EXPECT_THROW(json.check("unset", CheckOp::Gt, 0), FatalError);

    // Every operator at its boundary.
    BenchJson ops("ops");
    ops.setMetric("x", uint64_t{3});
    EXPECT_TRUE(ops.check("x", CheckOp::Eq, 3));
    EXPECT_FALSE(ops.check("x", CheckOp::Lt, 3));
    EXPECT_TRUE(ops.check("x", CheckOp::Le, 3));
    EXPECT_FALSE(ops.check("x", CheckOp::Gt, 3));
    EXPECT_TRUE(ops.check("x", CheckOp::Ge, 3));

    EXPECT_EQ(json.failedChecks(),
              (std::vector<std::string>{
                  "unit: speedup >= 5 (value 4.5)",
                  "unit: table:absent == 1 (value 0)"}));
    std::string doc = json.str();
    EXPECT_NE(doc.find("{\"name\": \"speedup\", \"value\": 4.5, "
                       "\"op\": \">=\", \"threshold\": 5, "
                       "\"pass\": false}"),
              std::string::npos);
    EXPECT_NE(doc.find("{\"name\": \"mismatches\", \"value\": 0, "
                       "\"op\": \"==\", \"threshold\": 0, "
                       "\"pass\": true}"),
              std::string::npos);
}

TEST(Json, WriteFailurePrintsWarningAndReturnsEmpty)
{
    BenchJson json("unwritable");
    setenv("NSE_BENCH_JSON_DIR", "/nonexistent-dir/nope", 1);
    testing::internal::CaptureStderr();
    std::string path = json.write();
    std::string err = testing::internal::GetCapturedStderr();
    unsetenv("NSE_BENCH_JSON_DIR");
    EXPECT_EQ(path, "");
    EXPECT_NE(err.find("warning: cannot open bench JSON output"),
              std::string::npos);
    EXPECT_NE(err.find("BENCH_unwritable.json"), std::string::npos);
}

TEST(Json, WriteSuppressedReturnsEmptyWithoutWarning)
{
    BenchJson json("suppressed");
    setenv("NSE_BENCH_JSON_DIR", "off", 1);
    testing::internal::CaptureStderr();
    std::string path = json.write();
    std::string err = testing::internal::GetCapturedStderr();
    unsetenv("NSE_BENCH_JSON_DIR");
    EXPECT_EQ(path, "");
    EXPECT_EQ(err, "");
}

TEST(Format, Helpers)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtF(2.0, 0), "2");
    EXPECT_EQ(fmtMillions(2'500'000, 1), "2.5");
    EXPECT_EQ(fmtMillions(999, 0), "0");
    EXPECT_EQ(fmtKb(2048), "2");
    EXPECT_EQ(fmtKb(1536, 1), "1.5");
}

} // namespace
} // namespace nse
