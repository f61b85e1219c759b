/**
 * @file
 * Tracker-defense family tests: Graphene's Misra-Gries table semantics
 * (spillover catch-up eviction, threshold-triggered victim refreshes),
 * Hydra's two-level escalation and counter-cache hit/miss accounting,
 * the steady-state zero-allocation contract of both backends, factory
 * wiring, and the CSV thread-count invariance of the two tracker
 * figures (the determinism contract CI enforces registry-wide).
 */

#include <gtest/gtest.h>

#include "defense/factory.hh"
#include "defense/graphene.hh"
#include "defense/hydra.hh"
#include "runner/figures.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "testing_alloc_counter.hh"

namespace {

using leaky::ctrl::PreventiveActionKind;
using leaky::defense::DefenseKind;
using leaky::defense::DefenseSpec;
using leaky::defense::GrapheneConfig;
using leaky::defense::GrapheneDefense;
using leaky::defense::HydraConfig;
using leaky::defense::HydraDefense;
using leaky::dram::Address;
using leaky::dram::Command;
using leaky::dram::DramConfig;

Address
rowAddr(std::uint32_t row, std::uint32_t bank = 0,
        std::uint32_t bg = 0)
{
    Address a;
    a.bankgroup = bg;
    a.bank = bank;
    a.row = row;
    return a;
}

// ------------------------------------------------------------ Graphene

TEST(Graphene, NoVrrBelowThreshold)
{
    GrapheneConfig cfg;
    cfg.threshold = 4;
    cfg.table_entries = 8;
    GrapheneDefense g(DramConfig::ddr5Paper(), cfg);
    for (int i = 0; i < 3; ++i)
        g.onActivate(rowAddr(1000), i);
    EXPECT_FALSE(g.pendingRfm(100).has_value());
    EXPECT_EQ(g.trackedCount(rowAddr(1000)), 3u);
}

TEST(Graphene, VrrRequestedAtThresholdAndCountResets)
{
    GrapheneConfig cfg;
    cfg.threshold = 4;
    cfg.table_entries = 8;
    GrapheneDefense g(DramConfig::ddr5Paper(), cfg);
    for (int i = 0; i < 4; ++i)
        g.onActivate(rowAddr(1000, 2, 3), i);

    const auto req = g.pendingRfm(100);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->kind, Command::kVrr);
    EXPECT_EQ(req->action, PreventiveActionKind::kVictimRefresh);
    EXPECT_EQ(req->target.row, 1000u);
    EXPECT_EQ(req->target.bank, 2u);
    EXPECT_EQ(req->target.bankgroup, 3u);
    // The row stays tracked, restarting from zero.
    EXPECT_EQ(g.trackedCount(rowAddr(1000, 2, 3)), 0u);
    EXPECT_EQ(g.vrrCount(), 1u);
    EXPECT_FALSE(g.pendingRfm(101).has_value());
}

TEST(Graphene, SpilloverMustCatchColdestEntryToEvict)
{
    GrapheneConfig cfg;
    cfg.threshold = 100; // Never fires in this test.
    cfg.table_entries = 2;
    GrapheneDefense g(DramConfig::ddr5Paper(), cfg);

    for (int i = 0; i < 5; ++i)
        g.onActivate(rowAddr(10), i); // A: 5
    for (int i = 0; i < 3; ++i)
        g.onActivate(rowAddr(20), i); // B: 3
    EXPECT_EQ(g.tableOccupancy(rowAddr(10)), 2u);

    // Two misses only grow the spillover counter -- still colder than
    // the coldest tracked row, so nothing is evicted.
    g.onActivate(rowAddr(30), 10);
    g.onActivate(rowAddr(30), 11);
    EXPECT_EQ(g.spillCount(rowAddr(30)), 2u);
    EXPECT_EQ(g.trackedCount(rowAddr(30)), 0u);
    EXPECT_EQ(g.trackedCount(rowAddr(20)), 3u);

    // The third miss catches up with B (count 3): B is evicted and the
    // incoming row inherits the spillover count -- the Misra-Gries
    // bound "an untracked row may have up to spill activations".
    g.onActivate(rowAddr(30), 12);
    EXPECT_EQ(g.spillCount(rowAddr(30)), 3u);
    EXPECT_EQ(g.trackedCount(rowAddr(30)), 3u);
    EXPECT_EQ(g.trackedCount(rowAddr(20)), 0u);
    EXPECT_EQ(g.trackedCount(rowAddr(10)), 5u); // The hot row survives.
}

TEST(Graphene, RefreshWindowResetWipesTablesAndSpill)
{
    GrapheneConfig cfg;
    cfg.threshold = 100;
    cfg.table_entries = 2;
    cfg.reset_period = 1000;
    GrapheneDefense g(DramConfig::ddr5Paper(), cfg);
    for (int i = 0; i < 5; ++i)
        g.onActivate(rowAddr(10), i);
    for (int i = 0; i < 3; ++i)
        g.onActivate(rowAddr(20), 5 + i);
    g.onActivate(rowAddr(30), 8); // Miss, spill 1 < coldest (3).
    EXPECT_EQ(g.spillCount(rowAddr(30)), 1u);
    EXPECT_EQ(g.trackedCount(rowAddr(20)), 3u);

    // Past the window edge every counter restarts -- the periodic
    // refresh wiped the retention clock the summary reasons about.
    g.onActivate(rowAddr(10), 2000);
    EXPECT_EQ(g.trackedCount(rowAddr(10)), 1u);
    EXPECT_EQ(g.trackedCount(rowAddr(20)), 0u);
    EXPECT_EQ(g.spillCount(rowAddr(30)), 0u);
    EXPECT_EQ(g.tableOccupancy(rowAddr(10)), 1u);
}

TEST(Graphene, BanksAreIndependent)
{
    GrapheneConfig cfg;
    cfg.threshold = 4;
    cfg.table_entries = 2;
    GrapheneDefense g(DramConfig::ddr5Paper(), cfg);
    for (int i = 0; i < 3; ++i) {
        g.onActivate(rowAddr(10, 0), i);
        g.onActivate(rowAddr(10, 1), i);
    }
    EXPECT_EQ(g.trackedCount(rowAddr(10, 0)), 3u);
    EXPECT_EQ(g.trackedCount(rowAddr(10, 1)), 3u);
    EXPECT_EQ(g.spillCount(rowAddr(10, 0)), 0u);
}

// --------------------------------------------------------------- Hydra

HydraConfig
smallHydra()
{
    HydraConfig cfg;
    cfg.group_threshold = 3;
    cfg.row_threshold = 6;
    cfg.rows_per_group = 8;
    cfg.cc_entries = 4;
    cfg.cc_ways = 2;
    return cfg;
}

TEST(Hydra, GroupFilterAbsorbsColdTraffic)
{
    HydraDefense h(DramConfig::ddr5Paper(), smallHydra());
    for (int i = 0; i < 3; ++i)
        h.onActivate(rowAddr(static_cast<std::uint32_t>(i)), i);
    EXPECT_EQ(h.groupCount(rowAddr(0)), 3u);
    EXPECT_EQ(h.ccMisses(), 0u);
    EXPECT_EQ(h.rowCount(rowAddr(0)), 0u); // No per-row state yet.
    EXPECT_FALSE(h.pendingRfm(0).has_value());
}

TEST(Hydra, EscalationMissesThenHitsTheCounterCache)
{
    HydraDefense h(DramConfig::ddr5Paper(), smallHydra());
    for (int i = 0; i < 3; ++i)
        h.onActivate(rowAddr(0), i); // Charge the group filter.

    // First escalated access: counter cache is cold -> a miss whose
    // fill is real DRAM traffic against the row's bank.
    h.onActivate(rowAddr(0), 10);
    EXPECT_EQ(h.ccMisses(), 1u);
    const auto fetch = h.pendingRfm(10);
    ASSERT_TRUE(fetch.has_value());
    EXPECT_EQ(fetch->kind, Command::kVrr);
    EXPECT_EQ(fetch->action, PreventiveActionKind::kCounterFetch);
    EXPECT_EQ(fetch->latency_override, leaky::defense::kHydraFetchLatency);
    // Escalated rows start at the group threshold (never under-count).
    EXPECT_EQ(h.rowCount(rowAddr(0)), 4u);

    // Subsequent accesses hit the cache: no new traffic.
    h.onActivate(rowAddr(0), 11);
    EXPECT_EQ(h.ccHits(), 1u);
    EXPECT_EQ(h.ccMisses(), 1u);
    EXPECT_FALSE(h.pendingRfm(11).has_value());
}

TEST(Hydra, VrrAtRowThresholdResetsTheCount)
{
    HydraDefense h(DramConfig::ddr5Paper(), smallHydra());
    for (int i = 0; i < 3; ++i)
        h.onActivate(rowAddr(0), i);
    // Counts 4 and 5 accumulate; the 6th activation crosses the row
    // threshold and requests the victim refresh.
    h.onActivate(rowAddr(0), 10);
    (void)h.pendingRfm(10); // Drain the fill.
    h.onActivate(rowAddr(0), 11);
    EXPECT_FALSE(h.pendingRfm(11).has_value());
    h.onActivate(rowAddr(0), 12);
    const auto vrr = h.pendingRfm(12);
    ASSERT_TRUE(vrr.has_value());
    EXPECT_EQ(vrr->action, PreventiveActionKind::kVictimRefresh);
    EXPECT_EQ(vrr->target.row, 0u);
    EXPECT_EQ(h.rowCount(rowAddr(0)), 0u);
    EXPECT_EQ(h.vrrCount(), 1u);
}

TEST(Hydra, CounterCacheEvictsAndReMisses)
{
    HydraConfig cfg = smallHydra();
    cfg.cc_entries = 1; // Single-entry cache: eviction is deterministic.
    cfg.cc_ways = 1;
    HydraDefense h(DramConfig::ddr5Paper(), cfg);
    for (int i = 0; i < 3; ++i)
        h.onActivate(rowAddr(0), i);

    h.onActivate(rowAddr(0), 10); // Miss: fill row 0 (count 4).
    h.onActivate(rowAddr(0), 11); // Hit (count 5).
    h.onActivate(rowAddr(1), 12); // Miss: evicts row 0's line.
    h.onActivate(rowAddr(0), 13); // Miss again: row 0 was evicted.
    EXPECT_EQ(h.ccMisses(), 3u);
    EXPECT_EQ(h.ccHits(), 1u);
    // The authoritative count survived the eviction (RCT, not cache):
    // the re-missed access found 5, crossed the row threshold, and
    // triggered the VRR + reset.
    EXPECT_EQ(h.rowCount(rowAddr(0)), 0u);
    EXPECT_EQ(h.rowCount(rowAddr(1)), 4u);
}

TEST(Hydra, RefreshWindowResetDeEscalatesGroups)
{
    HydraConfig cfg = smallHydra();
    cfg.reset_period = 1000;
    HydraDefense h(DramConfig::ddr5Paper(), cfg);
    for (int i = 0; i < 4; ++i)
        h.onActivate(rowAddr(0), i); // Escalate + one miss.
    EXPECT_EQ(h.ccMisses(), 1u);
    EXPECT_EQ(h.rowCount(rowAddr(0)), 4u);

    // Next window: the group filter absorbs traffic again and the
    // per-row state is gone.
    h.onActivate(rowAddr(0), 2000);
    EXPECT_EQ(h.groupCount(rowAddr(0)), 1u);
    EXPECT_EQ(h.rowCount(rowAddr(0)), 0u);
    EXPECT_EQ(h.ccMisses(), 1u); // No cache traffic for a cold group.
}

// -------------------------------------------- zero-allocation contract

TEST(Tracker, SteadyStateDoesNotAllocate)
{
    const auto dram_cfg = DramConfig::ddr5Paper();
    GrapheneConfig gcfg;
    gcfg.threshold = 4;
    gcfg.table_entries = 8;
    GrapheneDefense graphene(dram_cfg, gcfg);
    HydraDefense hydra(dram_cfg, smallHydra());

    const auto churn = [&](int rounds) {
        for (int i = 0; i < rounds; ++i) {
            graphene.onActivate(rowAddr(10), i);
            graphene.onActivate(rowAddr(11), i);
            hydra.onActivate(rowAddr(10), i);
            hydra.onActivate(rowAddr(11), i);
            while (graphene.pendingRfm(i).has_value()) {
            }
            while (hydra.pendingRfm(i).has_value()) {
            }
        }
    };
    // Warm-up: escalate Hydra's groups, insert the rows into every
    // table, trigger and drain VRR/fetch cycles, and let the pending
    // ring reach its high-water mark.
    churn(256);

    const std::uint64_t before = leaky_test_heap_allocs.load();
    churn(4096); // Tracking, eviction scans, VRRs, fetches, drains.
    const std::uint64_t after = leaky_test_heap_allocs.load();
    EXPECT_EQ(after, before);
}

// ------------------------------------------------------------- factory

TEST(TrackerFactory, BuildsControllerSideBundles)
{
    const auto dram_cfg = DramConfig::ddr5Paper();
    for (const auto kind : {DefenseKind::kGraphene, DefenseKind::kHydra}) {
        DefenseSpec spec;
        spec.kind = kind;
        spec.nrh = 160;
        const auto bundle =
            leaky::defense::makeDefense(spec, dram_cfg, 80'000, nullptr);
        EXPECT_EQ(bundle.device, nullptr)
            << leaky::defense::defenseName(kind);
        EXPECT_NE(bundle.controller, nullptr)
            << leaky::defense::defenseName(kind);
        EXPECT_FALSE(bundle.deterministic_refresh);
    }
    EXPECT_STREQ(leaky::defense::defenseName(DefenseKind::kGraphene),
                 "Graphene");
    EXPECT_STREQ(leaky::defense::defenseName(DefenseKind::kHydra),
                 "Hydra");
}

TEST(TrackerFactory, ThresholdOverrideAndPolicyDerivation)
{
    EXPECT_EQ(leaky::defense::trackerThresholdFor(160), 80u);
    EXPECT_EQ(leaky::defense::trackerThresholdFor(1024), 512u);
    EXPECT_EQ(leaky::defense::trackerThresholdFor(8), 8u); // Floor.
    EXPECT_EQ(leaky::defense::hydraGroupThresholdFor(160), 40u);

    const leaky::dram::Timing timing;
    // W ~= 32 ms / 48 ns ~= 667 K activations; clamped to <= 256.
    EXPECT_EQ(leaky::defense::grapheneEntriesFor(64, timing), 256u);
    EXPECT_EQ(leaky::defense::grapheneEntriesFor(1024, timing), 256u);
}

// ----------------------------------------- figure determinism contract

class TrackerFigureInvariance
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TrackerFigureInvariance, SmokeCsvIsThreadCountInvariant)
{
    const auto *figure = leaky::runner::findFigure(GetParam());
    ASSERT_NE(figure, nullptr);
    leaky::runner::RunOptions opts;
    opts.smoke = true;
    const auto spec = figure->make(opts);
    const auto serial = leaky::runner::runSweep(spec, 1);
    const auto parallel = leaky::runner::runSweep(spec, 4);
    ASSERT_FALSE(serial.rows.empty());
    for (const auto &row : serial.rows)
        EXPECT_EQ(row.size(), spec.columns.size());
    EXPECT_EQ(serial.rows, parallel.rows);
    EXPECT_EQ(leaky::runner::toCsv(serial),
              leaky::runner::toCsv(parallel));
}

INSTANTIATE_TEST_SUITE_P(TrackerFigures, TrackerFigureInvariance,
                         ::testing::Values("cross-defense",
                                           "tracker-threshold"));

} // namespace
