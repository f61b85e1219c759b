/** @file TraceCore tests: IPC behaviour, MSHR limits and coalescing,
 *  budgets, on-demand record sources, and an allocation-free replay
 *  steady state. */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "attack/dram_addr.hh"
#include "defense/factory.hh"
#include "sys/core.hh"
#include "sys/system.hh"
#include "testing_alloc_counter.hh"
#include "workload/synthetic.hh"

namespace {

using leaky::defense::DefenseKind;
using leaky::sim::Tick;
using leaky::sys::CoreConfig;
using leaky::sys::System;
using leaky::sys::SystemConfig;
using leaky::sys::TraceCore;
using leaky::sys::TraceEntry;

std::vector<TraceEntry>
computeTrace(std::uint32_t non_mem, std::size_t records)
{
    // Loads are spaced by `non_mem` instructions; addresses walk rows
    // so they miss the caches.
    std::vector<TraceEntry> trace;
    for (std::size_t i = 0; i < records; ++i) {
        TraceEntry e;
        e.non_mem_insts = non_mem;
        e.addr = (i * 8192 + 64) % (1ull << 32);
        trace.push_back(e);
    }
    return trace;
}

class TraceCoreTest : public ::testing::Test
{
  protected:
    TraceCoreTest()
        : system_(SystemConfig::paper(DefenseKind::kNone))
    {
    }

    System system_;
};

TEST_F(TraceCoreTest, ComputeBoundRunsNearPeakIpc)
{
    CoreConfig cfg;
    cfg.inst_budget = 100'000;
    // Very sparse memory accesses: IPC should approach the 4-wide peak.
    TraceCore core(system_, cfg, computeTrace(10'000, 64), 0);
    core.start();
    system_.run(2 * leaky::sim::kMs);
    ASSERT_TRUE(core.budgetDone());
    EXPECT_GT(core.measuredIpc(), 3.0);
    EXPECT_LE(core.measuredIpc(), 4.1);
}

TEST_F(TraceCoreTest, MemoryBoundIpcIsMuchLower)
{
    CoreConfig cfg;
    cfg.inst_budget = 20'000;
    cfg.mshrs = 1; // Fully serialised misses.
    TraceCore core(system_, cfg, computeTrace(2, 4096), 0);
    core.start();
    system_.run(20 * leaky::sim::kMs);
    ASSERT_TRUE(core.budgetDone());
    EXPECT_LT(core.measuredIpc(), 0.3);
}

TEST_F(TraceCoreTest, MoreMlpImprovesMemoryBoundIpc)
{
    const auto run_with_mshrs = [this](std::uint32_t mshrs) {
        System system(SystemConfig::paper(DefenseKind::kNone));
        CoreConfig cfg;
        cfg.inst_budget = 20'000;
        cfg.mshrs = mshrs;
        TraceCore core(system, cfg, computeTrace(2, 4096), 0);
        core.start();
        system.run(20 * leaky::sim::kMs);
        EXPECT_TRUE(core.budgetDone());
        return core.measuredIpc();
    };
    const double ipc1 = run_with_mshrs(1);
    const double ipc8 = run_with_mshrs(8);
    EXPECT_GT(ipc8, ipc1 * 2.0);
}

TEST_F(TraceCoreTest, CacheHitsAvoidMemory)
{
    CoreConfig cfg;
    cfg.inst_budget = 50'000;
    // Tiny working set: one line accessed repeatedly.
    std::vector<TraceEntry> trace(16);
    for (auto &e : trace) {
        e.non_mem_insts = 50;
        e.addr = 0x4000;
    }
    TraceCore core(system_, cfg, trace, 0);
    core.start();
    system_.run(2 * leaky::sim::kMs);
    ASSERT_TRUE(core.budgetDone());
    EXPECT_LE(core.memReads(), 2u); // Only the initial fill.
    EXPECT_GT(core.measuredIpc(), 2.0);
}

TEST_F(TraceCoreTest, TraceLoopsForever)
{
    CoreConfig cfg;
    cfg.inst_budget = 1'000'000; // Much larger than one trace pass.
    TraceCore core(system_, cfg, computeTrace(100, 32), 0);
    core.start();
    system_.run(leaky::sim::kMs);
    EXPECT_GT(core.instsRetired(), 32u * 101);
}

TEST_F(TraceCoreTest, IpcAtTracksPartialProgress)
{
    CoreConfig cfg;
    cfg.inst_budget = ~std::uint64_t{0} >> 1;
    TraceCore core(system_, cfg, computeTrace(100, 256), 0);
    core.start();
    system_.run(200 * leaky::sim::kUs);
    EXPECT_FALSE(core.budgetDone());
    EXPECT_GT(core.ipcAt(system_.now()), 0.0);
}

TEST_F(TraceCoreTest, WritesArePosted)
{
    CoreConfig cfg;
    cfg.inst_budget = 10'000;
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 128; ++i) {
        TraceEntry e;
        e.non_mem_insts = 75;
        e.addr = static_cast<std::uint64_t>(i) * 8192;
        e.is_write = true;
        trace.push_back(e);
    }
    TraceCore core(system_, cfg, trace, 0);
    core.start();
    system_.run(2 * leaky::sim::kMs);
    ASSERT_TRUE(core.budgetDone());
    // Stores never block: near-peak IPC despite missing every access.
    EXPECT_GT(core.measuredIpc(), 3.0);
}

/** Two loads to one line while its fill is in flight share one MSHR:
 *  one DRAM read, and both loads retire when it returns. */
TEST_F(TraceCoreTest, LoadsToAPendingLineCoalesce)
{
    CoreConfig cfg;
    cfg.inst_budget = 2;
    cfg.mshrs = 2;
    std::vector<TraceEntry> trace(2);
    trace[0].addr = 0x4000;
    trace[1].addr = 0x4008; // Same 64-byte line.
    TraceCore core(system_, cfg, trace, 0);
    core.start();
    // Both loads dispatch at once; the fill is still in flight.
    system_.run(10 * leaky::sim::kNs);
    EXPECT_EQ(core.memReads(), 1u);
    EXPECT_EQ(core.instsRetired(), 0u);
    system_.run(2 * leaky::sim::kUs);
    EXPECT_EQ(core.memReads(), 1u);
    ASSERT_TRUE(core.budgetDone());
    EXPECT_GT(core.instsRetired(), 2u); // Both retired, then hits.
}

/** More distinct-line misses than MSHRs: dispatch stops at the MSHR
 *  limit and each returning fill lets exactly one more load issue. */
TEST_F(TraceCoreTest, MissBurstStallsAtTheMshrLimit)
{
    CoreConfig cfg;
    cfg.mshrs = 4;
    const auto trace = computeTrace(0, 8); // 8 distinct lines.
    TraceCore core(system_, cfg, trace, 0);
    core.start();
    system_.run(10 * leaky::sim::kNs);
    EXPECT_EQ(core.memReads(), 4u);
    EXPECT_EQ(core.instsRetired(), 0u);
    while (core.instsRetired() == 0)
        system_.run(leaky::sim::kNs);
    ASSERT_LE(core.instsRetired(), 4u);
    EXPECT_EQ(core.memReads(), 4u + core.instsRetired());
}

/** A core pulling records on demand with a short period replays the
 *  same instruction stream as one given the first `period` records up
 *  front: wrapping re-reads its own memo, never the source. */
TEST(TraceCoreSource, OnDemandRecordsMatchAnUpFrontTrace)
{
    constexpr std::size_t kPeriod = 50;
    const auto catalog = leaky::workload::specLikeCatalog();
    for (const auto &app : catalog) {
        CoreConfig cfg;
        // About five passes: a record averages 1000 / MPKI insts.
        cfg.inst_budget =
            static_cast<std::uint64_t>(5 * kPeriod * 1000.0 / app.mpki);
        cfg.mshrs = app.mlp;
        System eager_sys(SystemConfig::paper(DefenseKind::kPrac, 128));
        System lazy_sys(SystemConfig::paper(DefenseKind::kPrac, 128));
        const auto trace =
            leaky::workload::generateTrace(app, eager_sys.mapper(), kPeriod);
        std::uint64_t pass_insts = 0;
        for (const auto &e : trace)
            pass_insts += e.non_mem_insts + 1;
        TraceCore eager(eager_sys, cfg, trace, 0);
        std::size_t pulled = 0;
        TraceCore lazy(
            lazy_sys, cfg,
            [&pulled, stream = leaky::workload::AppTraceStream(
                          app, lazy_sys.mapper())]() mutable {
                pulled += 1;
                return stream.next();
            },
            kPeriod, 0);
        eager.start();
        lazy.start();
        for (int step = 0; step < 1000 && !eager.budgetDone(); ++step) {
            eager_sys.run(20 * leaky::sim::kUs);
            lazy_sys.run(20 * leaky::sim::kUs);
        }
        ASSERT_TRUE(eager.budgetDone()) << app.name;
        EXPECT_GT(lazy.instsRetired(), 2 * pass_insts) << app.name;
        EXPECT_EQ(pulled, kPeriod) << app.name;
        EXPECT_EQ(lazy.instsRetired(), eager.instsRetired()) << app.name;
        EXPECT_EQ(lazy.memReads(), eager.memReads()) << app.name;
        EXPECT_EQ(lazy.memWrites(), eager.memWrites()) << app.name;
        EXPECT_EQ(lazy.finishTick(), eager.finishTick()) << app.name;
        EXPECT_TRUE(lazy_sys.stats(0) == eager_sys.stats(0)) << app.name;
    }
}

// ---------------------------------------------------------------------
// Zero-allocation steady state for the application path: four trace
// cores on the paper hierarchy plus an attacker's read loop. Once every
// slab and queue has grown to its high-water mark, more simulated time
// must not touch the heap: not the reads and their completions, the
// writebacks, MSHR coalescing, or prefetch fills.

/** An attacker agent: one read in flight at a time, alternating two
 *  rows of one bank, each issued from the previous read's callback. */
struct ReadLoop {
    System &system;
    std::uint64_t rows[2];
    std::uint64_t reads = 0;

    void
    issue()
    {
        system.issueRead(rows[reads % 2], 99, [this](Tick) {
            reads += 1;
            issue();
        });
    }
};

const leaky::workload::AppSpec &
appNamed(const std::vector<leaky::workload::AppSpec> &catalog,
         const std::string &name)
{
    for (const auto &app : catalog) {
        if (app.name == name)
            return app;
    }
    ADD_FAILURE() << "no app " << name;
    return catalog.front();
}

TEST(TraceCoreSteadyState, ReplayDoesNotAllocate)
{
    // A period past what the run reads keeps every record a first
    // read, so the cores keep missing; on a replayed period the
    // private LLCs would hold nearly all of it.
    constexpr std::size_t kPeriod = 200'000;
    System system(SystemConfig::paper(DefenseKind::kPrfm, 128));
    const auto catalog = leaky::workload::specLikeCatalog();
    std::vector<std::unique_ptr<TraceCore>> cores;
    const auto addCore = [&](const char *app_name, bool prefetch,
                             TraceCore::RecordSource source) {
        CoreConfig cfg;
        cfg.inst_budget = ~std::uint64_t{0} >> 1; // Run forever.
        cfg.mshrs = appNamed(catalog, app_name).mlp;
        cfg.enable_prefetcher = prefetch;
        cores.push_back(std::make_unique<TraceCore>(
            system, cfg, std::move(source), kPeriod,
            static_cast<std::int32_t>(cores.size())));
    };
    const auto stream = [&](const char *app_name) {
        return leaky::workload::AppTraceStream(appNamed(catalog, app_name),
                                               system.mapper());
    };
    addCore("mcf-like", false,
            [s = stream("mcf-like")]() mutable { return s.next(); });
    addCore("lbm-like", false,
            [s = stream("lbm-like")]() mutable { return s.next(); });
    addCore("libquantum-like", true,
            [s = stream("libquantum-like")]() mutable { return s.next(); });
    // Every load is followed at once by a load of the same line, so a
    // miss always has a second load to coalesce onto its fill.
    addCore("milc-like", false,
            [s = stream("milc-like"),
             twin = std::optional<TraceEntry>()]() mutable {
                if (twin)
                    return *std::exchange(twin, std::nullopt);
                const TraceEntry e = s.next();
                if (!e.is_write)
                    twin = TraceEntry{0, e.addr ^ 8, false};
                return e;
            });
    ReadLoop attacker{system,
                      {leaky::attack::rowAddress(system.mapper(), 0, 0, 1,
                                                 2, 100),
                       leaky::attack::rowAddress(system.mapper(), 0, 0, 1,
                                                 2, 102)}};
    for (auto &core : cores)
        core->start();
    attacker.issue();

    // Warm-up: grow every slab and queue to its high-water mark.
    system.run(2 * leaky::sim::kMs);

    const auto &coalescer = *cores[3];
    const auto coalesced = [&] {
        // Full misses (they reach the last level) by loads that did
        // not start a fill of their own.
        const auto &caches = coalescer.caches();
        return caches.level(caches.numLevels() - 1).misses() -
               coalescer.memWrites() - coalescer.memReads();
    };
    const auto prefetches = [&] {
        // Reads served beyond the demand fills and the attacker's,
        // up to the few still in flight.
        std::uint64_t demand = attacker.reads;
        for (const auto &core : cores)
            demand += core->memReads();
        return static_cast<std::int64_t>(system.stats(0).reads_served) -
               static_cast<std::int64_t>(demand);
    };
    const auto reads_before = system.stats(0).reads_served;
    const auto writes_before = system.stats(0).writes_served;
    const auto prefetches_before = prefetches();
    const auto coalesced_before = coalesced();
    const auto attacker_before = attacker.reads;
    const auto rfms_before = system.stats(0).rfms;

    const std::uint64_t allocs_before = leaky_test_heap_allocs.load();
    system.run(leaky::sim::kMs);
    const std::uint64_t allocs_after = leaky_test_heap_allocs.load();

    EXPECT_EQ(allocs_after, allocs_before);
    // The window exercised every path it claims to cover.
    EXPECT_GT(system.stats(0).reads_served, reads_before + 1'000);
    EXPECT_GT(system.stats(0).writes_served, writes_before + 100);
    EXPECT_GT(prefetches(), prefetches_before + 200);
    EXPECT_GT(coalesced(), coalesced_before + 100);
    EXPECT_GT(attacker.reads, attacker_before + 10);
    EXPECT_GT(system.stats(0).rfms, rfms_before);
}

} // namespace
