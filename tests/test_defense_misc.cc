/** @file PARA, security policy, and defense-factory tests. */

#include <gtest/gtest.h>

#include "defense/factory.hh"
#include "defense/para.hh"
#include "defense/policy.hh"

namespace {

using leaky::defense::DefenseKind;
using leaky::defense::DefenseSpec;
using leaky::defense::ParaConfig;
using leaky::defense::ParaDefense;
using leaky::dram::DramConfig;

TEST(Para, RefreshRateMatchesProbability)
{
    ParaConfig cfg;
    cfg.probability = 0.05;
    cfg.seed = 3;
    ParaDefense para(cfg);
    leaky::ctrl::Address a;
    const int n = 20'000;
    int refreshes = 0;
    for (int i = 0; i < n; ++i) {
        para.onActivate(a, static_cast<leaky::sim::Tick>(i));
        if (para.pendingRfm(i).has_value())
            refreshes += 1;
    }
    EXPECT_NEAR(static_cast<double>(refreshes) / n, 0.05, 0.01);
}

TEST(Para, DeterministicPerSeed)
{
    ParaConfig cfg;
    cfg.probability = 0.1;
    cfg.seed = 42;
    ParaDefense a(cfg);
    ParaDefense b(cfg);
    leaky::ctrl::Address address;
    for (int i = 0; i < 1000; ++i) {
        a.onActivate(address, i);
        b.onActivate(address, i);
        EXPECT_EQ(a.pendingRfm(i).has_value(),
                  b.pendingRfm(i).has_value());
    }
}

TEST(Para, RequestsBlockOneBankOnly)
{
    ParaConfig cfg;
    cfg.probability = 1.0; // Always fire.
    ParaDefense para(cfg);
    leaky::ctrl::Address a;
    a.bankgroup = 2;
    a.bank = 3;
    para.onActivate(a, 0);
    const auto req = para.pendingRfm(0);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->kind, leaky::dram::Command::kRfmOneBank);
    EXPECT_EQ(req->target.bankgroup, 2u);
    EXPECT_EQ(req->target.bank, 3u);
    EXPECT_EQ(req->latency_override, leaky::defense::kParaRefreshLatency);
}

TEST(Policy, NboIsEightyPercentOfNrh)
{
    EXPECT_EQ(leaky::defense::nboFor(1024), 819u);
    EXPECT_EQ(leaky::defense::nboFor(160), 128u); // Attack studies.
    EXPECT_EQ(leaky::defense::nboFor(64), 51u);
    EXPECT_EQ(leaky::defense::nboFor(10), 16u); // Floor.
}

TEST(Policy, TrfmTableMatchesDesign)
{
    EXPECT_EQ(leaky::defense::trfmFor(1024), 64u);
    EXPECT_EQ(leaky::defense::trfmFor(512), 32u);
    EXPECT_EQ(leaky::defense::trfmFor(256), 16u);
    EXPECT_EQ(leaky::defense::trfmFor(128), 4u);
    EXPECT_EQ(leaky::defense::trfmFor(64), 1u);
}

class RecordingSink final : public leaky::dram::AlertSink
{
  public:
    void raiseAlert(const leaky::dram::AlertInfo &) override {}
};

TEST(Factory, BuildsExpectedSides)
{
    const auto dram_cfg = DramConfig::ddr5Paper();
    RecordingSink sink;

    const auto check = [&](DefenseKind kind, bool device,
                           bool controller, bool det_ref) {
        DefenseSpec spec;
        spec.kind = kind;
        const auto bundle =
            leaky::defense::makeDefense(spec, dram_cfg, 80'000, &sink);
        EXPECT_EQ(bundle.device != nullptr, device)
            << leaky::defense::defenseName(kind);
        EXPECT_EQ(bundle.controller != nullptr, controller)
            << leaky::defense::defenseName(kind);
        EXPECT_EQ(bundle.deterministic_refresh, det_ref)
            << leaky::defense::defenseName(kind);
    };
    check(DefenseKind::kNone, false, false, false);
    check(DefenseKind::kPrac, true, false, false);
    check(DefenseKind::kPracRiac, true, false, false);
    check(DefenseKind::kPracBank, true, false, false);
    check(DefenseKind::kPrfm, false, true, false);
    check(DefenseKind::kFrRfm, false, true, true);
    check(DefenseKind::kPara, false, true, false);
}

TEST(Factory, NamesAreStable)
{
    EXPECT_STREQ(leaky::defense::defenseName(DefenseKind::kPrac),
                 "PRAC");
    EXPECT_STREQ(leaky::defense::defenseName(DefenseKind::kFrRfm),
                 "FR-RFM");
    EXPECT_STREQ(leaky::defense::defenseName(DefenseKind::kPracRiac),
                 "PRAC-RIAC");
}

} // namespace
