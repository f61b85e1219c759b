/** @file Smoke tests of the core experiment runners (small sizes). */

#include <gtest/gtest.h>

#include <array>

#include "core/experiments.hh"
#include "core/report.hh"

namespace {

using namespace leaky;

TEST(Experiments, PracAttackSystemUsesPaperOperatingPoint)
{
    const auto cfg = core::pracAttackSystem();
    EXPECT_EQ(cfg.defense.kind, defense::DefenseKind::kPrac);
    EXPECT_EQ(cfg.defense.nbo_override, 128u);
    EXPECT_EQ(cfg.defense.rfms_per_backoff, 4u);
    const auto prfm = core::prfmAttackSystem();
    EXPECT_EQ(prfm.defense.trfm_override, 40u);
}

TEST(Experiments, LatencyTraceSeparatesBands)
{
    const auto result = core::runLatencyTrace(300);
    EXPECT_EQ(result.samples.size(), 300u);
    EXPECT_GT(result.mean_backoff_latency_ns,
              result.mean_refresh_latency_ns);
    EXPECT_GT(result.mean_refresh_latency_ns,
              result.mean_conflict_latency_ns);
}

/** A 4-byte checkered payload on the default PRAC scenario. */
core::CovertScenario
smallPracScenario()
{
    core::CovertScenario scenario;
    scenario.bits =
        attack::patternBits(attack::MessagePattern::kCheckered0, 32);
    return scenario;
}

void
expectSameChannel(const attack::ChannelResult &a,
                  const attack::ChannelResult &b)
{
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.detections, b.detections);
    EXPECT_EQ(a.symbol_error, b.symbol_error);
    EXPECT_EQ(a.raw_bit_rate, b.raw_bit_rate);
    EXPECT_EQ(a.capacity, b.capacity);
    EXPECT_EQ(a.backoffs, b.backoffs);
    EXPECT_EQ(a.rfms, b.rfms);
    EXPECT_EQ(a.targeted_refreshes, b.targeted_refreshes);
    EXPECT_EQ(a.counter_fetches, b.counter_fetches);
}

TEST(Experiments, ChannelRunProducesMetrics)
{
    const auto result =
        core::runScenario(smallPracScenario()).pairs.front();
    EXPECT_EQ(result.sent.size(), 32u);
    EXPECT_EQ(result.received.size(), 32u);
    EXPECT_EQ(result.detections.size(), 32u);
    EXPECT_LE(result.symbol_error, 0.05);
    EXPECT_GT(result.capacity, 30'000.0);
}

/** Metamorphic: respelling the system mapping as its explicit XOR
 *  matrix changes nothing the channel can observe. */
TEST(Experiments, XorRespellingOfPresetGivesIdenticalChannel)
{
    const core::CovertScenario preset = smallPracScenario();
    ASSERT_EQ(preset.system.mapping.str(), "row-interleaved");
    const dram::MappingFunction fn(preset.system.ctrl.dram.org,
                                   preset.system.channels,
                                   preset.system.mapping);
    core::CovertScenario xored = preset;
    xored.system.mapping = dram::MappingSpec::fromMasks(fn.masks());
    ASSERT_NE(xored.system.mapping.str(), preset.system.mapping.str());

    const auto a = core::runScenario(preset).pairs.front();
    const auto b = core::runScenario(xored).pairs.front();
    expectSameChannel(a, b);
    EXPECT_GT(a.backoffs, 0u);
}

/** Metamorphic: one pair per channel at channels = 1 is the default
 *  single pair, and both equal the attack layer's single-pair loop. */
TEST(Experiments, OnePairPerChannelAtOneChannelIsTheSinglePair)
{
    const core::CovertScenario single = smallPracScenario();
    core::CovertScenario per_channel = single;
    per_channel.pairs.clear();
    for (std::uint32_t ch = 0; ch < per_channel.system.channels; ++ch)
        per_channel.pairs.push_back({{ch, 0, 0, 0}, {ch, 0, 0, 0}});
    ASSERT_EQ(per_channel.pairs.size(), 1u);

    const auto a = core::runScenario(single);
    const auto b = core::runScenario(per_channel);
    ASSERT_EQ(a.pairs.size(), 1u);
    ASSERT_EQ(b.pairs.size(), 1u);
    expectSameChannel(a.pairs.front(), b.pairs.front());
    EXPECT_EQ(a.aggregate, b.aggregate);

    sys::System system(single.system);
    const auto cfg =
        attack::makeChannelConfig(system, attack::ChannelKind::kPrac);
    expectSameChannel(
        a.pairs.front(),
        attack::runCovertChannel(system, cfg,
                                 attack::symbolsFromBits(single.bits, 2)));
}

/** Metamorphic: channels are identical replicas, so on a 2-channel
 *  system one colocated pair on channel 1 sees exactly what it sees on
 *  channel 0. PRAC-RIAC is left out: each channel's defense draws its
 *  own seed from sim::seedFanout, so the randomized re-arm differs
 *  between channels by design. */
TEST(Experiments, ChannelOnePairMirrorsChannelZero)
{
    for (const auto kind :
         {defense::DefenseKind::kPrac, defense::DefenseKind::kPrfm,
          defense::DefenseKind::kGraphene, defense::DefenseKind::kHydra}) {
        core::CovertScenario scenario = core::crossDefenseScenario(kind);
        scenario.system.channels = 2;
        scenario.bits =
            attack::patternBits(attack::MessagePattern::kCheckered0, 64);
        scenario.pairs = {{{1, 0, 0, 0}, {1, 0, 0, 0}}};
        const auto one = core::runScenario(scenario).pairs.front();
        scenario.pairs = {{{0, 0, 0, 0}, {0, 0, 0, 0}}};
        const auto zero = core::runScenario(scenario).pairs.front();

        const char *name = defense::defenseName(kind);
        EXPECT_EQ(one.received, zero.received) << name;
        EXPECT_EQ(one.detections, zero.detections) << name;
        EXPECT_EQ(one.backoffs, zero.backoffs) << name;
        EXPECT_EQ(one.rfms, zero.rfms) << name;
        EXPECT_EQ(one.targeted_refreshes, zero.targeted_refreshes) << name;
        EXPECT_EQ(one.counter_fetches, zero.counter_fetches) << name;
    }
}

TEST(Experiments, PerfCellBaselineIsNearUnity)
{
    // No defense vs its own reference runs the same deterministic
    // simulation, so it normalizes to exactly 1 at any threshold: the
    // reference a sweep shares across NRH values does not depend on it.
    const auto mixes = workload::makeMixes(2, 4, 42);
    for (const auto &mix : mixes) {
        const auto ref = core::perfReference(mix, 50'000);
        ASSERT_EQ(ref.ipc_alone.size(), mix.apps.size());
        ASSERT_GT(ref.ws_base, 0.0);
        for (std::uint32_t nrh : {64u, 1024u})
            EXPECT_EQ(core::normalizedWs(defense::DefenseKind::kNone, nrh,
                                         mix, ref, 50'000),
                      1.0)
                << mix.name << " nrh " << nrh;
    }
}

TEST(Experiments, DefenseCostsPerformanceAtLowNrh)
{
    const auto mixes = workload::makeMixes(2, 4, 42);
    double high_nrh = 0.0;
    double low_nrh = 0.0;
    for (const auto &mix : mixes) {
        const auto ref = core::perfReference(mix, 50'000);
        high_nrh += core::normalizedWs(defense::DefenseKind::kPrac, 1024,
                                       mix, ref, 50'000);
        low_nrh += core::normalizedWs(defense::DefenseKind::kPrac, 64,
                                      mix, ref, 50'000);
    }
    high_nrh /= static_cast<double>(mixes.size());
    low_nrh /= static_cast<double>(mixes.size());
    EXPECT_GT(high_nrh, low_nrh);
    EXPECT_LE(high_nrh, 1.01);
}

TEST(Experiments, FingerprintDatasetShapes)
{
    core::FingerprintSpec spec;
    spec.sites = 3;
    spec.loads_per_site = 2;
    spec.duration = sim::kMs;
    const auto raw = core::collectFingerprints(spec);
    ASSERT_EQ(raw.size(), 6u);
    const auto data = core::fingerprintDataset(raw);
    EXPECT_EQ(data.size(), 6u);
    EXPECT_EQ(data.n_classes, 3);
    EXPECT_EQ(data.features(), 39u);
}

TEST(Report, TableRendersAlignedAndCsv)
{
    core::Table table({"a", "bb"});
    table.addRow({"1", "2"});
    table.addRow({"333", "4"});
    const auto text = table.str();
    EXPECT_NE(text.find("a    bb"), std::string::npos);
    EXPECT_EQ(table.csv(), "a,bb\n1,2\n333,4\n");
}

TEST(Report, Formatting)
{
    EXPECT_EQ(core::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(core::fmtKbps(39'000.0), "39.0 Kbps");
    EXPECT_EQ(core::sparkline({0.0, 1.0}).size(), 2u);
}

} // namespace
