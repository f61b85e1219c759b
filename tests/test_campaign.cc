/**
 * @file
 * Campaign-layer tests: shard-range geometry, fault-plan parsing, the
 * torn-tail tolerance of the append-only manifest, and the headline
 * robustness contracts — a campaign killed mid-shard (via the
 * fault-injection plan, in a real forked process) resumes to
 * completion with a merged CSV byte-identical to an uninterrupted
 * single-process run, for shard counts {1, 2, 4}; injected throws are
 * absorbed by bounded deterministic retry; persistent failures are
 * recorded and gate status/merge instead of poisoning the sweep; and
 * a stop request drains gracefully at a resumable checkpoint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/fault.hh"
#include "campaign/manifest.hh"
#include "campaign/shard.hh"
#include "runner/figures.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "sim/rng.hh"

namespace {

using namespace leaky;
using runner::Job;
using runner::JobRows;
using runner::SweepSpec;

/** Fresh per-test scratch directory under the system temp root. */
std::string
tempDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("leaky_campaign_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/**
 * The reference workload: 8 jobs, variable row counts (1-3 rows per
 * job), every cell derived from the per-job splitmix64 seed — any
 * scheduling, sharding, or resume bug shows up as a byte diff against
 * toCsv(runSweep(spec, 1)).
 */
SweepSpec
campaignSpec()
{
    SweepSpec spec;
    spec.name = "campaign-test";
    spec.base_seed = 77;
    spec.axes = {{"i", {0, 1, 2, 3, 4, 5, 6, 7}}};
    spec.columns = {"i", "sub", "draw"};
    spec.job = [](const Job &job) -> JobRows {
        sim::Rng rng(job.seed);
        JobRows rows;
        const int subs = static_cast<int>(job.param("i")) % 3 + 1;
        for (int sub = 0; sub < subs; ++sub)
            rows.push_back({job.param("i"),
                            static_cast<double>(sub), rng.uniform()});
        return rows;
    };
    return spec;
}

campaign::ManifestMeta
openFor(const SweepSpec &spec, std::size_t shards,
        const std::string &dir)
{
    const auto meta =
        campaign::makeMeta(spec, shards, "campaign.csv", "test");
    campaign::openCampaign(meta, dir);
    return meta;
}

campaign::CampaignConfig
configFor(const std::string &dir, unsigned threads = 2)
{
    campaign::CampaignConfig config;
    config.dir = dir;
    config.threads = threads;
    return config;
}

// -------------------------------------------------------------- shards

TEST(ShardRange, PartitionsTileTheIndexSpaceEvenly)
{
    for (std::size_t jobs : {0u, 1u, 5u, 8u, 13u, 100u}) {
        for (std::size_t shards : {1u, 2u, 3u, 4u, 7u}) {
            std::size_t covered = 0, min_size = jobs + 1, max_size = 0;
            std::size_t expected_begin = 0;
            for (std::size_t s = 0; s < shards; ++s) {
                const auto range =
                    campaign::shardRange(jobs, shards, s);
                EXPECT_EQ(range.begin, expected_begin);
                EXPECT_LE(range.begin, range.end);
                expected_begin = range.end;
                covered += range.size();
                min_size = std::min(min_size, range.size());
                max_size = std::max(max_size, range.size());
            }
            EXPECT_EQ(covered, jobs);
            EXPECT_EQ(expected_begin, jobs);
            if (jobs >= shards) {
                EXPECT_LE(max_size - min_size, 1u);
            }
        }
    }
}

// --------------------------------------------------------- fault plans

TEST(FaultPlan, ParsesTheThreeKindsAndRejectsJunk)
{
    campaign::FaultPlan plan;
    std::string error;

    ASSERT_TRUE(campaign::FaultPlan::parse("crash@3", &plan, &error));
    EXPECT_EQ(plan.kind, campaign::FaultKind::kCrash);
    EXPECT_EQ(plan.at_job, 3u);
    EXPECT_TRUE(plan.armed());

    ASSERT_TRUE(campaign::FaultPlan::parse("throw@1", &plan, &error));
    EXPECT_EQ(plan.kind, campaign::FaultKind::kThrow);

    ASSERT_TRUE(
        campaign::FaultPlan::parse("hang@2:250", &plan, &error));
    EXPECT_EQ(plan.kind, campaign::FaultKind::kHang);
    EXPECT_EQ(plan.at_job, 2u);
    EXPECT_EQ(plan.hang_ms, 250u);

    for (const char *bad :
         {"", "crash", "crash@", "crash@0", "crash@x", "melt@3",
          "crash@2:50", "hang@2:"}) {
        EXPECT_FALSE(campaign::FaultPlan::parse(bad, &plan, &error))
            << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

// ------------------------------------------------------------ manifest

TEST(Manifest, ReplaysRecordsAndToleratesTornTail)
{
    const auto dir = tempDir("manifest");
    const auto path = campaign::manifestPath(dir, 0);
    {
        campaign::ManifestWriter writer(path, 0, 1, 0, 4);
        writer.jobDone(0, {"1,2", "3,4"});
        writer.jobFailed(1, 3, "boom\nwith newline");
    }
    auto state = campaign::ManifestState::load(path);
    ASSERT_EQ(state.done.size(), 1u);
    EXPECT_EQ(state.done.at(0),
              (std::vector<std::string>{"1,2", "3,4"}));
    ASSERT_EQ(state.failed.size(), 1u);
    EXPECT_EQ(state.failed.at(1).attempts, 3u);
    // Newlines are sanitized: they would forge record boundaries.
    EXPECT_EQ(state.failed.at(1).message, "boom with newline");

    // A kill mid-append leaves a torn record: no ` ok` marker, no
    // newline. Replay must skip it, treating job 2 as never run.
    {
        std::ofstream torn(path, std::ios::binary | std::ios::app);
        torn << "done 2 1 9,9";
    }
    state = campaign::ManifestState::load(path);
    EXPECT_EQ(state.done.count(2), 0u);

    // Re-opening for append repairs the torn tail; fresh commits land
    // on their own lines and replay cleanly.
    {
        campaign::ManifestWriter writer(path, 0, 1, 0, 4);
        writer.jobDone(2, {"5,6"});
        writer.jobDone(1, {"7,8"}); // The failed job succeeds now.
    }
    state = campaign::ManifestState::load(path);
    EXPECT_EQ(state.done.at(2), (std::vector<std::string>{"5,6"}));
    EXPECT_EQ(state.done.at(1), (std::vector<std::string>{"7,8"}));
    EXPECT_TRUE(state.failed.empty());
    std::filesystem::remove_all(dir);
}

TEST(Manifest, MetaRoundTripsAndRefusesMismatchedResume)
{
    const auto spec = campaignSpec();
    const auto meta = campaign::makeMeta(spec, 2, "campaign.csv", "test");
    const auto parsed =
        campaign::ManifestMeta::parse(meta.serialize());
    EXPECT_EQ(parsed, meta);
    EXPECT_EQ(parsed.columns, spec.columns);
    EXPECT_EQ(parsed.jobs, 8u);

    const auto dir = tempDir("meta");
    campaign::openCampaign(meta, dir);
    campaign::openCampaign(meta, dir); // Identical resume: fine.
    auto other = meta;
    other.seed = 123; // Different seed would shear the results.
    EXPECT_THROW(campaign::openCampaign(other, dir),
                 std::runtime_error);
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------- determinism contract

TEST(Campaign, MergedCsvIsShardCountInvariant)
{
    const auto spec = campaignSpec();
    const auto reference = runner::toCsv(runner::runSweep(spec, 1));
    for (std::size_t shards : {1u, 2u, 4u}) {
        const auto dir =
            tempDir("shards" + std::to_string(shards));
        const auto meta = openFor(spec, shards, dir);
        const auto config = configFor(dir);
        for (std::size_t s = 0; s < shards; ++s) {
            const auto report =
                campaign::runShard(spec, meta, config, s);
            EXPECT_TRUE(report.complete()) << shards << "/" << s;
            EXPECT_EQ(report.failed, 0u);
            EXPECT_TRUE(std::filesystem::exists(
                campaign::shardCsvPath(dir, s)));
        }
        const auto path = campaign::writeMergedCsv(dir);
        EXPECT_EQ(campaign::readFileOrThrow(path), reference)
            << shards << " shards";
        std::filesystem::remove_all(dir);
    }
}

// Fig. 13 computes each mix's reference lazily inside its spec; shards
// in separate processes each recompute it, and must agree bit for bit
// with a single-process sweep. One make() per shard stands in for the
// separate processes.
TEST(Campaign, MitigationShardsRecomputeTheSameReference)
{
    const auto *figure = runner::findFigure("mitigation");
    ASSERT_NE(figure, nullptr);
    runner::RunOptions opts;
    opts.smoke = true;
    const auto reference =
        runner::toCsv(runner::runSweep(figure->make(opts), 1));
    const auto dir = tempDir("mitigation");
    const auto meta = openFor(figure->make(opts), 2, dir);
    for (std::size_t s = 0; s < 2; ++s) {
        const auto report = campaign::runShard(figure->make(opts), meta,
                                               configFor(dir), s);
        EXPECT_TRUE(report.complete()) << s;
        EXPECT_EQ(report.failed, 0u) << s;
    }
    EXPECT_EQ(campaign::readFileOrThrow(campaign::writeMergedCsv(dir)),
              reference);
    std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- fault isolation

TEST(Campaign, InjectedThrowIsAbsorbedByBoundedRetry)
{
    const auto spec = campaignSpec();
    const auto dir = tempDir("retry");
    const auto meta = openFor(spec, 1, dir);
    auto config = configFor(dir, 1);
    config.retries = 2;
    std::string error;
    ASSERT_TRUE(campaign::FaultPlan::parse("throw@2", &config.fault,
                                           &error));
    const auto report = campaign::runShard(spec, meta, config, 0);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(campaign::readFileOrThrow(campaign::writeMergedCsv(dir)),
              runner::toCsv(runner::runSweep(spec, 1)));
    std::filesystem::remove_all(dir);
}

TEST(Campaign, PersistentFailureIsRecordedAndGatesMerge)
{
    auto spec = campaignSpec();
    const auto good_job = spec.job;
    spec.job = [good_job](const Job &job) -> JobRows {
        if (job.param("i") == 3)
            throw std::runtime_error("deterministic bad cell");
        return good_job(job);
    };
    const auto dir = tempDir("failure");
    const auto meta = openFor(spec, 1, dir);
    auto config = configFor(dir, 2);
    config.retries = 1;

    const auto report = campaign::runShard(spec, meta, config, 0);
    EXPECT_FALSE(report.complete());
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.completed, 7u);

    const auto status = campaign::campaignStatus(dir);
    EXPECT_FALSE(status.complete());
    EXPECT_EQ(status.done, 7u);
    EXPECT_EQ(status.failed, 1u);
    EXPECT_EQ(status.remaining, 0u);
    ASSERT_EQ(status.shards.at(0).failures.size(), 1u);
    const auto &fail = *status.shards.at(0).failures.begin();
    EXPECT_EQ(fail.first, 3u);
    EXPECT_EQ(fail.second.attempts, 2u);
    EXPECT_NE(fail.second.message.find("i=3"), std::string::npos);
    EXPECT_NE(fail.second.message.find("deterministic bad cell"),
              std::string::npos);
    EXPECT_THROW(campaign::mergedCsv(dir), std::runtime_error);

    // Resume re-attempts recorded failures: with the defect fixed
    // (same spec identity), the campaign completes and merges clean.
    const auto resumed =
        campaign::runShard(campaignSpec(), meta, configFor(dir), 0);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.ran, 1u);
    EXPECT_EQ(campaign::readFileOrThrow(campaign::writeMergedCsv(dir)),
              runner::toCsv(runner::runSweep(campaignSpec(), 1)));
    std::filesystem::remove_all(dir);
}

TEST(Campaign, DeadlineTurnsAHangIntoAFailedAttempt)
{
    const auto spec = campaignSpec();
    std::string error;

    // No retry budget: the hanging attempt is the job's only one.
    {
        const auto dir = tempDir("deadline");
        const auto meta = openFor(spec, 1, dir);
        auto config = configFor(dir, 1);
        config.retries = 0;
        config.deadline_ms = 5;
        ASSERT_TRUE(campaign::FaultPlan::parse("hang@1:100",
                                               &config.fault, &error));
        const auto report = campaign::runShard(spec, meta, config, 0);
        EXPECT_EQ(report.failed, 1u);
        EXPECT_EQ(report.completed, 7u);
        const auto status = campaign::campaignStatus(dir);
        ASSERT_EQ(status.failed, 1u);
        EXPECT_NE(status.shards.at(0)
                      .failures.begin()
                      ->second.message.find("deadline"),
                  std::string::npos);
        std::filesystem::remove_all(dir);
    }

    // With one retry the hang (which fires once) is recovered from.
    {
        const auto dir = tempDir("deadline_retry");
        const auto meta = openFor(spec, 1, dir);
        auto config = configFor(dir, 1);
        config.retries = 1;
        config.deadline_ms = 5;
        ASSERT_TRUE(campaign::FaultPlan::parse("hang@1:100",
                                               &config.fault, &error));
        const auto report = campaign::runShard(spec, meta, config, 0);
        EXPECT_TRUE(report.complete());
        EXPECT_EQ(report.failed, 0u);
        std::filesystem::remove_all(dir);
    }
}

// ---------------------------------------------------- graceful drain

TEST(Campaign, StopRequestDrainsAtACheckpointAndResumes)
{
    const auto spec = campaignSpec();
    const auto dir = tempDir("stop");
    const auto meta = openFor(spec, 1, dir);
    const auto config = configFor(dir);

    campaign::requestStop();
    const auto stopped = campaign::runShard(spec, meta, config, 0);
    campaign::clearStopRequest();
    EXPECT_TRUE(stopped.stopped);
    EXPECT_EQ(stopped.ran, 0u);
    EXPECT_EQ(stopped.skipped, 8u);
    EXPECT_FALSE(stopped.complete());

    const auto resumed = campaign::runShard(spec, meta, config, 0);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.ran, 8u);
    EXPECT_EQ(campaign::readFileOrThrow(campaign::writeMergedCsv(dir)),
              runner::toCsv(runner::runSweep(spec, 1)));
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ kill + resume

// The headline contract, with a real kill: the fault plan _Exit()s the
// forked child mid-shard (nothing unwound, nothing flushed beyond the
// per-job manifest commits), then the parent resumes the same
// directory and the merged CSV is byte-identical to an uninterrupted
// single-process single-thread run.
TEST(CampaignDeathTest, KilledShardResumesToByteIdenticalMerge)
{
    const auto spec = campaignSpec();
    const auto dir = tempDir("kill");
    const auto meta = openFor(spec, 2, dir);
    const auto config = configFor(dir, 1);

    auto crashing = config;
    std::string error;
    ASSERT_TRUE(campaign::FaultPlan::parse("crash@2", &crashing.fault,
                                           &error));
    EXPECT_EXIT(
        {
            campaign::runShard(spec, meta, crashing, 0);
            std::_Exit(0); // Fault failed to fire: wrong exit code.
        },
        ::testing::ExitedWithCode(campaign::kCrashExitCode), "");

    // The child committed exactly one job before dying mid-second.
    const auto partial = campaign::campaignStatus(dir);
    EXPECT_EQ(partial.done, 1u);
    EXPECT_EQ(partial.failed, 0u);
    EXPECT_EQ(partial.remaining, 7u);

    const auto resumed0 = campaign::runShard(spec, meta, config, 0);
    EXPECT_TRUE(resumed0.complete());
    EXPECT_EQ(resumed0.ran, 3u); // 4 owned, 1 survived the kill.
    const auto shard1 = campaign::runShard(spec, meta, config, 1);
    EXPECT_TRUE(shard1.complete());

    EXPECT_TRUE(campaign::campaignStatus(dir).complete());
    EXPECT_EQ(campaign::readFileOrThrow(campaign::writeMergedCsv(dir)),
              runner::toCsv(runner::runSweep(spec, 1)));
    std::filesystem::remove_all(dir);
}

} // namespace
