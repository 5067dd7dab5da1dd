/**
 * @file
 * Unit tests for the support library: byte buffers, error paths, RNG.
 */

#include <gtest/gtest.h>

#include <limits>

#include "support/bytebuffer.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/saturate.h"

namespace nse
{
namespace
{

TEST(ByteWriter, WritesBigEndian)
{
    ByteWriter w;
    w.putU8(0xab);
    w.putU16(0x1234);
    w.putU32(0xdeadbeef);
    const auto &b = w.bytes();
    ASSERT_EQ(b.size(), 7u);
    EXPECT_EQ(b[0], 0xab);
    EXPECT_EQ(b[1], 0x12);
    EXPECT_EQ(b[2], 0x34);
    EXPECT_EQ(b[3], 0xde);
    EXPECT_EQ(b[4], 0xad);
    EXPECT_EQ(b[5], 0xbe);
    EXPECT_EQ(b[6], 0xef);
}

TEST(ByteWriter, RoundTripsAllWidths)
{
    ByteWriter w;
    w.putU8(250);
    w.putU16(65000);
    w.putU32(4000000000u);
    w.putU64(0x0123456789abcdefULL);
    w.putI8(-7);
    w.putI16(-30000);
    w.putI32(-2000000000);
    w.putI64(-9000000000000000000LL);
    w.putString("hello world");

    ByteReader r(w.bytes());
    EXPECT_EQ(r.getU8(), 250u);
    EXPECT_EQ(r.getU16(), 65000u);
    EXPECT_EQ(r.getU32(), 4000000000u);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.getI8(), -7);
    EXPECT_EQ(r.getI16(), -30000);
    EXPECT_EQ(r.getI32(), -2000000000);
    EXPECT_EQ(r.getI64(), -9000000000000000000LL);
    EXPECT_EQ(r.getString(), "hello world");
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteWriter, PatchOverwritesInPlace)
{
    ByteWriter w;
    w.putU16(0);
    w.putU32(0);
    w.patchU16(0, 0xbeef);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.getU16(), 0xbeef);
    EXPECT_EQ(r.getU32(), 0u);
}

TEST(ByteReader, ThrowsOnTruncatedInput)
{
    std::vector<uint8_t> small{1, 2};
    ByteReader r(small);
    EXPECT_THROW(r.getU32(), FatalError);
}

TEST(ByteReader, ThrowsOnTruncatedString)
{
    ByteWriter w;
    w.putU16(100); // claims 100 bytes, provides none
    ByteReader r(w.bytes());
    EXPECT_THROW(r.getString(), FatalError);
}

TEST(ByteReader, SkipAndRemaining)
{
    std::vector<uint8_t> data(10, 0);
    ByteReader r(data);
    r.skip(4);
    EXPECT_EQ(r.pos(), 4u);
    EXPECT_EQ(r.remaining(), 6u);
    EXPECT_THROW(r.skip(7), FatalError);
}

TEST(ByteReader, GetBytesExact)
{
    std::vector<uint8_t> data{9, 8, 7, 6};
    ByteReader r(data);
    auto first = r.getBytes(2);
    EXPECT_EQ(first, (std::vector<uint8_t>{9, 8}));
    EXPECT_THROW(r.getBytes(3), FatalError);
}

TEST(Errors, FatalAndPanicAreDistinct)
{
    EXPECT_THROW(fatal("user problem ", 42), FatalError);
    EXPECT_THROW(panic("bug ", 1), PanicError);
    try {
        fatal("value=", 7, " name=", "x");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7 name=x");
    }
}

TEST(Errors, CheckMacros)
{
    EXPECT_THROW(NSE_CHECK(1 == 2, "nope"), FatalError);
    EXPECT_THROW(NSE_ASSERT(false, "bug"), PanicError);
    EXPECT_NO_THROW(NSE_CHECK(true, "fine"));
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(3, 5);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceRatioRoughlyHolds)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(1, 4);
    EXPECT_NEAR(hits, 2500, 250);
}

TEST(Saturate, AddClampsAtMax)
{
    EXPECT_EQ(satAdd(2, 3), 5u);
    EXPECT_EQ(satAdd(UINT64_MAX, 0), UINT64_MAX);
    EXPECT_EQ(satAdd(UINT64_MAX, 1), UINT64_MAX);
    EXPECT_EQ(satAdd(UINT64_MAX - 1, 1), UINT64_MAX);
    EXPECT_EQ(satAdd(UINT64_MAX / 2 + 1, UINT64_MAX / 2 + 1),
              UINT64_MAX);
}

TEST(Saturate, MulClampsAtMax)
{
    EXPECT_EQ(satMul(6, 7), 42u);
    EXPECT_EQ(satMul(0, UINT64_MAX), 0u);
    EXPECT_EQ(satMul(UINT64_MAX, 0), 0u);
    EXPECT_EQ(satMul(1, UINT64_MAX), UINT64_MAX);
    EXPECT_EQ(satMul(2, UINT64_MAX / 2 + 1), UINT64_MAX);
    EXPECT_EQ(satMul(3, UINT64_MAX / 2), UINT64_MAX);
    EXPECT_EQ(satMul(UINT64_MAX / 2, 2), UINT64_MAX - 1);
}

TEST(Saturate, FromDoubleHandlesEdges)
{
    EXPECT_EQ(satFromDouble(0.0), 0u);
    EXPECT_EQ(satFromDouble(-1.0), 0u);
    EXPECT_EQ(satFromDouble(2.9), 2u);
    EXPECT_EQ(satFromDouble(1e6), 1'000'000u);
    // The raw cast is UB from 2^64 up; the helper clamps instead.
    EXPECT_EQ(satFromDouble(18446744073709551616.0), UINT64_MAX);
    EXPECT_EQ(satFromDouble(1e30), UINT64_MAX);
    EXPECT_EQ(satFromDouble(std::numeric_limits<double>::infinity()),
              UINT64_MAX);
    EXPECT_EQ(satFromDouble(std::numeric_limits<double>::quiet_NaN()),
              0u);
}

} // namespace
} // namespace nse
