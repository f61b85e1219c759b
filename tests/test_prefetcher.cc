/** @file Best-Offset prefetcher tests: stride learning. */

#include <gtest/gtest.h>

#include "sys/prefetcher.hh"

namespace {

using leaky::sys::BestOffsetPrefetcher;

TEST(BestOffset, LearnsASimpleStride)
{
    BestOffsetPrefetcher pf;
    // Stream with stride 4: every miss at line 4k, fills train RR.
    std::uint64_t line = 1000;
    for (int i = 0; i < 3000; ++i) {
        pf.onDemandMiss(line);
        pf.onFill(line);
        line += 4;
    }
    EXPECT_EQ(pf.bestOffset(), 4);
    EXPECT_TRUE(pf.active());
}

TEST(BestOffset, PrefetchTargetsLinePlusOffset)
{
    BestOffsetPrefetcher pf;
    std::uint64_t line = 500;
    for (int i = 0; i < 3000; ++i) {
        pf.onDemandMiss(line);
        pf.onFill(line);
        line += 2;
    }
    ASSERT_EQ(pf.bestOffset(), 2);
    const auto target = pf.onDemandMiss(line);
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(*target, line + 2);
}

TEST(BestOffset, StrideChangeRelearns)
{
    BestOffsetPrefetcher pf;
    std::uint64_t line = 0;
    for (int i = 0; i < 3000; ++i) {
        pf.onDemandMiss(line);
        pf.onFill(line);
        line += 1;
    }
    EXPECT_EQ(pf.bestOffset(), 1);
    for (int i = 0; i < 6000; ++i) {
        pf.onDemandMiss(line);
        pf.onFill(line);
        line += 8;
    }
    EXPECT_EQ(pf.bestOffset(), 8);
}

TEST(BestOffset, CountsIssuedPrefetches)
{
    BestOffsetPrefetcher pf;
    for (int i = 0; i < 100; ++i)
        pf.onDemandMiss(static_cast<std::uint64_t>(i));
    EXPECT_GT(pf.issued(), 0u);
}

} // namespace
