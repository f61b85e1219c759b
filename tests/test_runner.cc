/**
 * @file
 * Sweep-engine tests: cartesian expansion and seed fan-out, the
 * work-stealing pool's correctness (full coverage, rebalancing,
 * exception propagation), collector merge order, CSV round-trip
 * formatting, and the load-bearing property of the whole runner:
 * results are bit-identical under 1 vs N threads — including for a
 * job that simulates a real sys::System.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <vector>

#include "attack/covert.hh"
#include "core/experiments.hh"
#include "runner/figures.hh"
#include "runner/flags.hh"
#include "runner/pool.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "sim/rng.hh"

namespace {

using namespace leaky;
using runner::Axis;
using runner::Job;
using runner::JobRows;
using runner::SweepSpec;

// ---------------------------------------------------------- expansion

SweepSpec
twoAxisSpec()
{
    SweepSpec spec;
    spec.name = "test";
    spec.axes = {{"a", {1, 2, 3}}, {"b", {10, 20}}};
    spec.columns = {"a", "b"};
    spec.job = [](const Job &job) -> JobRows {
        return {{job.param("a"), job.param("b")}};
    };
    return spec;
}

TEST(SweepExpansion, CartesianProductRowMajor)
{
    const auto spec = twoAxisSpec();
    EXPECT_EQ(runner::jobCount(spec), 6u);
    const auto jobs = runner::expandJobs(spec);
    ASSERT_EQ(jobs.size(), 6u);
    // First axis slowest, second fastest.
    EXPECT_EQ(jobs[0].param("a"), 1);
    EXPECT_EQ(jobs[0].param("b"), 10);
    EXPECT_EQ(jobs[1].param("a"), 1);
    EXPECT_EQ(jobs[1].param("b"), 20);
    EXPECT_EQ(jobs[2].param("a"), 2);
    EXPECT_EQ(jobs[5].param("a"), 3);
    EXPECT_EQ(jobs[5].param("b"), 20);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
}

TEST(SweepExpansion, RepetitionsFanOutInnermost)
{
    auto spec = twoAxisSpec();
    spec.axes = {{"a", {1, 2}}};
    spec.repetitions = 3;
    const auto jobs = runner::expandJobs(spec);
    ASSERT_EQ(jobs.size(), 6u);
    // Repetitions cycle within one axis point.
    EXPECT_EQ(jobs[0].repetition, 0u);
    EXPECT_EQ(jobs[1].repetition, 1u);
    EXPECT_EQ(jobs[2].repetition, 2u);
    EXPECT_EQ(jobs[0].param("a"), 1);
    EXPECT_EQ(jobs[2].param("a"), 1);
    EXPECT_EQ(jobs[3].param("a"), 2);
    EXPECT_EQ(jobs[3].repetition, 0u);
}

TEST(SweepExpansion, SeedFanOutIsStableAndDistinct)
{
    // Same (base, index) -> same seed; different index or base ->
    // (practically) different seed; never the 0 sentinel.
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < 1000; ++i) {
        const auto seed = runner::jobSeed(42, i);
        EXPECT_EQ(seed, runner::jobSeed(42, i));
        EXPECT_NE(seed, 0u);
        seen.insert(seed);
    }
    EXPECT_EQ(seen.size(), 1000u);
    EXPECT_NE(runner::jobSeed(42, 7), runner::jobSeed(43, 7));

    auto spec = twoAxisSpec();
    spec.base_seed = 9;
    const auto jobs = runner::expandJobs(spec);
    EXPECT_EQ(jobs[2].seed, runner::jobSeed(9, 2));
}

// --------------------------------------------------------------- pool

TEST(SweepPool, RunsEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        runner::SweepPool pool(threads);
        EXPECT_EQ(pool.threads(), threads);
        std::vector<std::atomic<int>> hits(257);
        for (auto &h : hits)
            h = 0;
        pool.forEach(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(SweepPool, ReusableAcrossBatches)
{
    runner::SweepPool pool(3);
    std::atomic<std::uint64_t> sum{0};
    for (int batch = 0; batch < 5; ++batch)
        pool.forEach(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 5u * (99u * 100u / 2u));
}

TEST(SweepPool, PropagatesFirstException)
{
    runner::SweepPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.forEach(64,
                              [&](std::size_t i) {
                                  ran.fetch_add(1);
                                  if (i == 13)
                                      throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    // The batch still drains: every job ran despite the throw.
    EXPECT_EQ(ran.load(), 64);
    // And the pool stays usable.
    pool.forEach(8, [](std::size_t) {});
}

TEST(SweepPool, IsolatedRunCollectsEveryFailureSorted)
{
    runner::SweepPool pool(4);
    std::atomic<int> ran{0};
    const auto errors = pool.forEachIsolated(64, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i % 16 == 5)
            throw std::runtime_error("boom " + std::to_string(i));
    });
    // No throw, full drain, and every failing index reported once,
    // in index order regardless of which worker hit it.
    EXPECT_EQ(ran.load(), 64);
    ASSERT_EQ(errors.size(), 4u);
    for (std::size_t k = 0; k < errors.size(); ++k) {
        EXPECT_EQ(errors[k].index, 16 * k + 5);
        EXPECT_EQ(errors[k].message,
                  "boom " + std::to_string(16 * k + 5));
        EXPECT_TRUE(errors[k].error);
    }
    EXPECT_TRUE(pool.forEachIsolated(8, [](std::size_t) {}).empty());
}

// ---------------------------------------------------------- collector

TEST(SweepRunner, MergesRowsInJobIndexOrder)
{
    SweepSpec spec;
    spec.name = "merge";
    spec.axes = {{"i", {0, 1, 2, 3, 4, 5, 6, 7}}};
    spec.columns = {"i", "sub"};
    // Job i contributes i % 3 + 1 rows; merge must keep job order and
    // intra-job row order regardless of completion order.
    spec.job = [](const Job &job) -> JobRows {
        JobRows rows;
        const auto i = job.param("i");
        for (int sub = 0; sub < static_cast<int>(i) % 3 + 1; ++sub)
            rows.push_back({i, static_cast<double>(sub)});
        return rows;
    };
    const auto result = runner::runSweep(spec, 4);
    ASSERT_EQ(result.jobs, 8u);
    std::vector<std::vector<double>> expected;
    for (int i = 0; i < 8; ++i)
        for (int sub = 0; sub < i % 3 + 1; ++sub)
            expected.push_back({static_cast<double>(i),
                                static_cast<double>(sub)});
    EXPECT_EQ(result.rows, expected);
}

TEST(SweepRunner, CsvFormatsHeaderAndRoundTripCells)
{
    runner::SweepResult result;
    result.columns = {"x", "y"};
    result.rows = {{1.0, 0.1}, {1e6, 1.0 / 3.0}};
    const auto csv = runner::toCsv(result);
    EXPECT_EQ(csv, "x,y\n1,0.1\n1e+06,0.3333333333333333\n");
    // Cells parse back to the exact double.
    EXPECT_EQ(std::stod(runner::csvCell(1.0 / 3.0)), 1.0 / 3.0);
    EXPECT_EQ(std::stod(runner::csvCell(0.1)), 0.1);
}

TEST(SweepRunner, SweepErrorCarriesPartialRowsAndFailingParams)
{
    auto spec = twoAxisSpec();
    spec.name = "partial";
    spec.job = [](const Job &job) -> JobRows {
        if (job.param("a") == 2 && job.param("b") == 20)
            throw std::runtime_error("bad cell");
        return {{job.param("a"), job.param("b")}};
    };
    try {
        runner::runSweep(spec, 2);
        FAIL() << "expected SweepError";
    } catch (const runner::SweepError &e) {
        // Job 3 is (a=2, b=20); the other five completed and their
        // rows stay collectable in expansion order. Params render in
        // csvCell form (shortest round-trip), hence 20 -> 2e+01.
        const std::string what = e.what();
        EXPECT_NE(what.find("job 3 (a=2, b=2e+01) failed: bad cell"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("5/6 jobs completed"), std::string::npos)
            << what;
        ASSERT_EQ(e.failures().size(), 1u);
        EXPECT_EQ(e.failures()[0].index, 3u);
        EXPECT_EQ(e.failures()[0].params, "a=2, b=2e+01");
        EXPECT_EQ(e.failures()[0].message, "bad cell");
        const std::vector<std::vector<double>> expected = {
            {1, 10}, {1, 20}, {2, 10}, {3, 10}, {3, 20}};
        EXPECT_EQ(e.partial().rows, expected);
    }
}

TEST(SweepRunner, WriteFileIsAtomicAndLeavesNoTmp)
{
    const auto path = (std::filesystem::temp_directory_path() /
                       "leaky_write_atomic.csv")
                          .string();
    std::filesystem::remove(path);
    runner::writeFile(path, "first\n");
    // Overwrite: the reader either sees the old or the new content,
    // never a truncated in-between, and no .tmp survives.
    runner::writeFile(path, "second\n");
    std::ifstream file(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(file)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "second\n");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::filesystem::remove(path);
}

// -------------------------------------------------------- determinism

TEST(SweepRunner, SyntheticSweepIsThreadCountInvariant)
{
    SweepSpec spec;
    spec.name = "rng";
    spec.base_seed = 77;
    spec.axes = {{"i", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}};
    spec.repetitions = 3;
    spec.columns = {"i", "draw"};
    spec.job = [](const Job &job) -> JobRows {
        sim::Rng rng(job.seed);
        return {{job.param("i"), rng.uniform()}};
    };
    const auto serial = runner::runSweep(spec, 1);
    const auto parallel = runner::runSweep(spec, 4);
    EXPECT_EQ(serial.rows, parallel.rows);
    EXPECT_EQ(runner::toCsv(serial), runner::toCsv(parallel));
}

TEST(SweepRunner, RealSystemSweepIsThreadCountInvariant)
{
    // Each job simulates a complete covert-channel run on its own
    // sys::System; the merged metrics must not depend on how jobs
    // were scheduled across threads.
    SweepSpec spec;
    spec.name = "channel";
    spec.base_seed = 5;
    spec.axes = {{"pattern", {2, 3}}};
    spec.columns = {"pattern", "error", "capacity", "backoffs"};
    spec.job = [](const Job &job) -> JobRows {
        core::CovertScenario scenario;
        scenario.system.defense.seed = job.seed;
        scenario.bits = attack::patternBits(
            static_cast<attack::MessagePattern>(
                static_cast<int>(job.param("pattern"))),
            16);
        const auto result = core::runScenario(scenario).pairs.front();
        return {{job.param("pattern"), result.symbol_error,
                 result.capacity,
                 static_cast<double>(result.backoffs)}};
    };
    const auto serial = runner::runSweep(spec, 1);
    const auto parallel = runner::runSweep(spec, 4);
    EXPECT_EQ(serial.rows, parallel.rows);
}

// ------------------------------------------------------------ figures
// Registry-wide coverage (entry count, smoke-spec bounds, ported-
// figure determinism) lives in tests/test_figures.cc; this file keeps
// the headline lookup contract only.

TEST(Figures, RegistryExposesHeadlineFigures)
{
    for (const char *name :
         {"latency", "capacity", "threshold", "fingerprint",
          "mitigation"}) {
        const auto *figure = runner::findFigure(name);
        ASSERT_NE(figure, nullptr) << name;
        EXPECT_FALSE(figure->csv_name.empty());
        EXPECT_NE(figure->csv_name.find("fig_"), std::string::npos);
    }
    EXPECT_EQ(runner::findFigure("nope"), nullptr);
}

// -------------------------------------------------------------- flags

TEST(Flags, ParsesTypedFlagsAndEqualsSyntax)
{
    std::uint32_t n = 1;
    bool flag = false;
    std::string s;
    runner::FlagParser parser;
    parser.addUint("n", &n, "");
    parser.addBool("b", &flag, "");
    parser.addString("s", &s, "");
    const char *argv[] = {"--n=42", "--b", "--s", "hi"};
    std::string error;
    ASSERT_TRUE(parser.parse(4, const_cast<char **>(argv), &error))
        << error;
    EXPECT_EQ(n, 42u);
    EXPECT_TRUE(flag);
    EXPECT_EQ(s, "hi");
}

TEST(Flags, RejectsBadInputInsteadOfFallingBack)
{
    std::uint32_t n = 7;
    runner::FlagParser parser;
    parser.addUint("n", &n, "");
    std::string error;

    const char *unknown[] = {"--m", "3"};
    EXPECT_FALSE(parser.parse(2, const_cast<char **>(unknown), &error));

    const char *malformed[] = {"--n", "12x"};
    EXPECT_FALSE(parser.parse(2, const_cast<char **>(malformed),
                              &error));

    const char *negative[] = {"--n", "-3"};
    EXPECT_FALSE(parser.parse(2, const_cast<char **>(negative),
                              &error));

    // strtoull would skip the blank and accept the digits after it.
    const char *leading_blank[] = {"--n", " 3"};
    EXPECT_FALSE(parser.parse(2, const_cast<char **>(leading_blank),
                              &error));

    const char *missing[] = {"--n"};
    EXPECT_FALSE(parser.parse(1, const_cast<char **>(missing), &error));

    const char *positional[] = {"stray"};
    EXPECT_FALSE(parser.parse(1, const_cast<char **>(positional),
                              &error));

    const char *overflow[] = {"--n", "4294967296"};
    EXPECT_FALSE(parser.parse(2, const_cast<char **>(overflow),
                              &error));

    // strtoull skips the blank, then negates: " -1" would wrap to
    // 2^64 - 1 instead of being rejected.
    std::uint64_t seed = 7;
    parser.addUint64("seed", &seed, "");
    const char *blank_negative[] = {"--seed", " -1"};
    EXPECT_FALSE(parser.parse(2, const_cast<char **>(blank_negative),
                              &error));
    EXPECT_EQ(seed, 7u);
}

} // namespace
