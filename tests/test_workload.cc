/** @file Workload generator tests: SPEC-like traces and website
 *  traces (determinism, intensity targeting, site structure). */

#include <gtest/gtest.h>

#include <set>

#include "workload/synthetic.hh"
#include "workload/website.hh"

namespace {

using leaky::dram::MappingFunction;
using leaky::dram::MappingSpec;
using leaky::dram::Organization;
using leaky::workload::AppSpec;
using leaky::workload::Intensity;
using leaky::workload::WebsiteTraceConfig;

class WorkloadTest : public ::testing::Test
{
  protected:
    WorkloadTest() : mapper_(Organization{}, 1, MappingSpec{}) {}
    MappingFunction mapper_;
};

TEST_F(WorkloadTest, TraceGenerationIsDeterministic)
{
    const auto app = leaky::workload::specLikeCatalog()[0];
    const auto a = leaky::workload::generateTrace(app, mapper_, 1000);
    const auto b = leaky::workload::generateTrace(app, mapper_, 1000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].non_mem_insts, b[i].non_mem_insts);
        EXPECT_EQ(a[i].is_write, b[i].is_write);
    }
}

/** generateTrace is the first N records of the on-demand stream. */
TEST_F(WorkloadTest, TraceIsThePrefixOfTheStream)
{
    constexpr std::uint32_t kRecords = 3000;
    for (const auto &app : leaky::workload::specLikeCatalog()) {
        const auto trace =
            leaky::workload::generateTrace(app, mapper_, kRecords);
        ASSERT_EQ(trace.size(), kRecords);
        leaky::workload::AppTraceStream stream(app, mapper_);
        for (std::uint32_t i = 0; i < kRecords; ++i) {
            const auto entry = stream.next();
            ASSERT_EQ(entry.addr, trace[i].addr) << app.name << " #" << i;
            ASSERT_EQ(entry.non_mem_insts, trace[i].non_mem_insts)
                << app.name << " #" << i;
            ASSERT_EQ(entry.is_write, trace[i].is_write)
                << app.name << " #" << i;
        }
    }
}

TEST_F(WorkloadTest, MpkiControlsComputeDensity)
{
    AppSpec sparse;
    sparse.name = "sparse";
    sparse.mpki = 1.0;
    sparse.rbmpki = 0.5;
    AppSpec dense;
    dense.name = "dense";
    dense.mpki = 30.0;
    dense.rbmpki = 15.0;

    const auto t_sparse =
        leaky::workload::generateTrace(sparse, mapper_, 2000);
    const auto t_dense =
        leaky::workload::generateTrace(dense, mapper_, 2000);

    double sparse_insts = 0;
    double dense_insts = 0;
    for (std::size_t i = 0; i < 2000; ++i) {
        sparse_insts += t_sparse[i].non_mem_insts + 1;
        dense_insts += t_dense[i].non_mem_insts + 1;
    }
    // insts per access ~ 1000/mpki.
    EXPECT_NEAR(sparse_insts / 2000, 1000.0, 150.0);
    EXPECT_NEAR(dense_insts / 2000, 33.3, 8.0);
}

TEST_F(WorkloadTest, RbmpkiControlsRowSwitchRate)
{
    AppSpec app;
    app.name = "rb";
    app.mpki = 20.0;
    app.rbmpki = 5.0; // 4 accesses per row visit.
    const auto trace = leaky::workload::generateTrace(app, mapper_,
                                                      8000);
    std::size_t switches = 0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        const auto prev = mapper_.decode(trace[i - 1].addr);
        const auto cur = mapper_.decode(trace[i].addr);
        if (!prev.sameRow(cur))
            switches += 1;
    }
    const double per_access = static_cast<double>(switches) /
                              static_cast<double>(trace.size());
    EXPECT_NEAR(per_access, 5.0 / 20.0, 0.05);
}

TEST_F(WorkloadTest, CatalogSpansAllIntensities)
{
    for (auto level :
         {Intensity::kLow, Intensity::kMedium, Intensity::kHigh}) {
        const auto apps = leaky::workload::appsWithIntensity(level);
        EXPECT_GE(apps.size(), 3u)
            << leaky::workload::intensityName(level);
        for (const auto &app : apps)
            EXPECT_EQ(app.intensity(), level) << app.name;
    }
}

TEST_F(WorkloadTest, MixesAreSeededAndSized)
{
    const auto a = leaky::workload::makeMixes(10, 4, 42);
    const auto b = leaky::workload::makeMixes(10, 4, 42);
    ASSERT_EQ(a.size(), 10u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].apps.size(), 4u);
        for (std::size_t c = 0; c < 4; ++c)
            EXPECT_EQ(a[i].apps[c].name, b[i].apps[c].name);
    }
    const auto c = leaky::workload::makeMixes(10, 4, 43);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = 0; j < 4; ++j)
            any_diff = any_diff ||
                       a[i].apps[j].name != c[i].apps[j].name;
    }
    EXPECT_TRUE(any_diff);
}

TEST_F(WorkloadTest, FortyWebsites)
{
    EXPECT_EQ(leaky::workload::websiteNames().size(), 40u);
    EXPECT_EQ(leaky::workload::websiteNames()[34], "wikipedia");
    EXPECT_EQ(leaky::workload::websiteNames()[38], "youtube");
}

TEST_F(WorkloadTest, WebsiteTraceDeterministicPerSiteAndLoad)
{
    WebsiteTraceConfig cfg;
    cfg.site = 3;
    cfg.load = 2;
    const auto a = leaky::workload::generateWebsiteTrace(cfg, mapper_);
    const auto b = leaky::workload::generateWebsiteTrace(cfg, mapper_);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i += 97)
        EXPECT_EQ(a[i].addr, b[i].addr);
}

TEST_F(WorkloadTest, LoadsOfOneSiteDifferButShareStructure)
{
    WebsiteTraceConfig cfg;
    cfg.site = 5;
    cfg.load = 0;
    const auto a = leaky::workload::generateWebsiteTrace(cfg, mapper_);
    cfg.load = 1;
    const auto b = leaky::workload::generateWebsiteTrace(cfg, mapper_);
    // Same phase skeleton: sizes within ~25% of each other.
    const double ratio = static_cast<double>(a.size()) /
                         static_cast<double>(b.size());
    EXPECT_GT(ratio, 0.75);
    EXPECT_LT(ratio, 1.33);
    // But not identical records (jitter).
    EXPECT_NE(a.size(), b.size());
}

TEST_F(WorkloadTest, DifferentSitesTouchDifferentRows)
{
    const auto rows_of = [this](std::uint32_t site) {
        WebsiteTraceConfig cfg;
        cfg.site = site;
        std::set<std::uint32_t> rows;
        for (const auto &e :
             leaky::workload::generateWebsiteTrace(cfg, mapper_))
            rows.insert(mapper_.decode(e.addr).row);
        return rows;
    };
    const auto rows_a = rows_of(0);
    const auto rows_b = rows_of(1);
    std::size_t common = 0;
    for (auto r : rows_a)
        common += rows_b.count(r);
    // Only the shared startup phase (and incidental noise) overlaps.
    EXPECT_LT(static_cast<double>(common) /
                  static_cast<double>(rows_a.size()),
              0.5);
}

} // namespace
