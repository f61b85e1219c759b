/** @file Latency probe (Listing 1) and classifier tests. */

#include <gtest/gtest.h>

#include "attack/dram_addr.hh"
#include "attack/probe.hh"
#include "core/experiments.hh"
#include "sys/system.hh"

namespace {

using namespace leaky;
using attack::LatencyClass;
using attack::LatencyClassifier;

TEST(LatencyClassifier, BandsAreOrdered)
{
    const auto c = LatencyClassifier::forTiming(dram::Timing{});
    EXPECT_LT(c.conflict_min, c.rfm_min);
    EXPECT_LT(c.rfm_min, c.refresh_min);
    EXPECT_LT(c.refresh_min, c.backoff_min);
}

TEST(LatencyClassifier, ClassifiesRepresentativeLatencies)
{
    const auto c = LatencyClassifier::forTiming(dram::Timing{});
    EXPECT_EQ(c.classify(55'000), LatencyClass::kFast);
    EXPECT_EQ(c.classify(86'000), LatencyClass::kConflict);
    EXPECT_EQ(c.classify(380'000), LatencyClass::kRfm);
    EXPECT_EQ(c.classify(676'000), LatencyClass::kRefresh);
    EXPECT_EQ(c.classify(1'490'000), LatencyClass::kBackoff);
}

TEST(LatencyClassifier, FewerRecoveryRfmsLowerTheBackoffBand)
{
    const auto four = LatencyClassifier::forTiming(dram::Timing{},
                                                   90'000, 4);
    const auto one = LatencyClassifier::forTiming(dram::Timing{},
                                                  90'000, 1);
    EXPECT_LT(one.backoff_min, four.backoff_min);
    // With one RFM the band collapses into the refresh range: the
    // Fig. 11 observation.
    EXPECT_LT(one.backoff_min, one.refresh_min);
}

TEST(LatencyProbe, AlternatingRowsSeeConflictLatencies)
{
    sys::System system(core::pracAttackSystem());
    attack::ProbeConfig cfg;
    cfg.addrs = {attack::rowAddress(system.mapper(), 0, 0, 0, 0, 100),
                 attack::rowAddress(system.mapper(), 0, 0, 0, 0, 200)};
    cfg.iterations = 64;
    attack::LatencyProbe probe(system, cfg);
    bool done = false;
    probe.start([&done] { done = true; });
    system.run(sim::kMs);
    ASSERT_TRUE(done);
    ASSERT_EQ(probe.samples().size(), 64u);

    const auto classifier =
        attack::LatencyClassifier::forTiming(dram::Timing{});
    std::size_t conflicts = 0;
    for (const auto &s : probe.samples()) {
        if (classifier.classify(s.latency) == LatencyClass::kConflict)
            conflicts += 1;
    }
    EXPECT_GT(conflicts, 55u); // Nearly all accesses conflict.
}

TEST(LatencyProbe, SingleRowSeesFastHits)
{
    sys::System system(core::pracAttackSystem());
    attack::ProbeConfig cfg;
    cfg.addrs = {attack::rowAddress(system.mapper(), 0, 0, 0, 0, 100)};
    cfg.iterations = 64;
    attack::LatencyProbe probe(system, cfg);
    bool done = false;
    probe.start([&done] { done = true; });
    system.run(sim::kMs);
    ASSERT_TRUE(done);

    const auto classifier =
        attack::LatencyClassifier::forTiming(dram::Timing{});
    std::size_t fast = 0;
    for (const auto &s : probe.samples()) {
        if (classifier.classify(s.latency) == LatencyClass::kFast)
            fast += 1;
    }
    EXPECT_GT(fast, 55u);
}

TEST(LatencyProbe, DetectsBackoffAtNboPeriod)
{
    // The Fig. 2 experiment in miniature: the first back-off appears
    // after 2 x NBO - 1 alternating accesses.
    const auto result = core::runLatencyTrace(300);
    std::vector<std::size_t> backoff_positions;
    for (std::size_t i = 0; i < result.samples.size(); ++i) {
        if (result.classifier.classify(result.samples[i].latency) ==
            LatencyClass::kBackoff)
            backoff_positions.push_back(i);
    }
    ASSERT_GE(backoff_positions.size(), 1u);
    EXPECT_NEAR(static_cast<double>(backoff_positions[0]), 255.0, 8.0);
    EXPECT_GE(result.stats.backoffs, 1u);
}

TEST(LatencyProbe, BackoffLatencyNearPaperValue)
{
    const auto result = core::runLatencyTrace(300);
    // Paper §6.2: mean observed back-off latency 1929 ns (>= the
    // standard's 1400 ns because the loop time is included).
    EXPECT_GT(result.mean_backoff_latency_ns, 1400.0);
    EXPECT_LT(result.mean_backoff_latency_ns, 2400.0);
    // Conflicts land two orders of magnitude lower.
    EXPECT_LT(result.mean_conflict_latency_ns, 200.0);
}

} // namespace
