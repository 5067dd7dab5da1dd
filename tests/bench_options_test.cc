/**
 * @file
 * nse_bench option parsing: flags and environment values are
 * validated once, in the driver, and every rejection is a FatalError
 * whose message names the valid choices.
 */

#include <gtest/gtest.h>

#include "bench/bench_env.h"
#include "support/error.h"

namespace nse
{
namespace
{

BenchOptions
parse(std::vector<std::string> args, const char *threads = nullptr,
      const char *fleet = nullptr)
{
    return parseBenchOptions(args, threads, fleet);
}

/** The FatalError message of a rejected parse ("" if accepted). */
std::string
rejection(std::vector<std::string> args, const char *threads = nullptr,
          const char *fleet = nullptr)
{
    try {
        parse(std::move(args), threads, fleet);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(BenchOptions, DefaultsRunEverythingUncapped)
{
    BenchOptions o = parse({});
    EXPECT_TRUE(o.only.empty());
    EXPECT_EQ(o.traceOut, "");
    EXPECT_EQ(o.threads, 0u);
    EXPECT_EQ(o.maxFleet, SIZE_MAX);
}

TEST(BenchOptions, OnlyKeepsRegistryOrderAndDropsDuplicates)
{
    BenchOptions o = parse({"--only=ext_cache,table7_interleaved",
                            "--only=table2_stats", "--only=ext_cache"});
    EXPECT_EQ(o.only, (std::vector<std::string>{
                          "table2_stats", "table7_interleaved",
                          "ext_cache"}));
}

TEST(BenchOptions, TraceOutAndEnvironmentValues)
{
    BenchOptions o = parse({"--trace-out=t.json"}, "3", "64");
    EXPECT_EQ(o.traceOut, "t.json");
    EXPECT_EQ(o.threads, 3u);
    EXPECT_EQ(o.maxFleet, 64u);
    // 0 and empty keep their documented meanings: all cores, no cap.
    BenchOptions z = parse({}, "0", "0");
    EXPECT_EQ(z.threads, 0u);
    EXPECT_EQ(z.maxFleet, SIZE_MAX);
    BenchOptions e = parse({}, "", "");
    EXPECT_EQ(e.threads, 0u);
    EXPECT_EQ(e.maxFleet, SIZE_MAX);
}

TEST(BenchOptions, RejectsBadEnvironmentValues)
{
    for (const char *bad : {"-1", "abc", "4x", " 4", "+4", "1e3",
                            "99999999999999999999999"}) {
        EXPECT_NE(rejection({}, bad, nullptr).find("NSE_BENCH_THREADS"),
                  std::string::npos)
            << bad;
        EXPECT_NE(rejection({}, nullptr, bad).find("NSE_SERVER_MAX_FLEET"),
                  std::string::npos)
            << bad;
    }
    // A thread count past the pool limit would spawn a thread per
    // grid item; it is rejected rather than clamped.
    EXPECT_NE(rejection({}, "1025", nullptr), "");
    EXPECT_EQ(rejection({}, "1024", nullptr), "");
}

TEST(BenchOptions, RejectsUnknownNamesAndFlagsWithUsage)
{
    for (std::vector<std::string> args :
         {std::vector<std::string>{"--only=table99"},
          std::vector<std::string>{"--only="},
          std::vector<std::string>{"--only=table2_stats,"},
          std::vector<std::string>{"--trace-out="},
          std::vector<std::string>{"--verbose"},
          std::vector<std::string>{"table2_stats"}}) {
        std::string msg = rejection(args);
        ASSERT_NE(msg, "") << args[0];
        // The usage lists every valid experiment.
        for (const Experiment &e : experiments())
            EXPECT_NE(msg.find(e.name), std::string::npos) << e.name;
    }
}

} // namespace
} // namespace nse
