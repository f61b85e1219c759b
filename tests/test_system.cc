/** @file System-level tests: MemoryPort behaviour, routing, retries,
 *  and the multi-channel topology (per-channel stats views, defense
 *  isolation, and the scaling figure family's determinism). */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "attack/dram_addr.hh"
#include "attack/probe.hh"
#include "defense/factory.hh"
#include "runner/figures.hh"
#include "runner/runner.hh"
#include "sys/system.hh"
#include "testing_alloc_counter.hh"

namespace {

using leaky::defense::DefenseKind;
using leaky::sim::Tick;
using leaky::sys::System;
using leaky::sys::SystemConfig;

TEST(System, ReadCompletesWithFrontendLatency)
{
    System system(SystemConfig::paper(DefenseKind::kNone));
    const auto addr =
        leaky::attack::rowAddress(system.mapper(), 0, 0, 0, 0, 10);
    Tick done = 0;
    system.issueRead(addr, 0, [&done](Tick t) { done = t; });
    system.run(leaky::sim::kUs);
    ASSERT_GT(done, 0u);
    const auto &t = system.controller(0).config().dram.timing;
    // Two frontend hops + ACT + RCD + CL + burst.
    const Tick floor = 2 * leaky::sys::kFrontendLatency + t.tRCD +
                       t.tCL + t.tBURST;
    EXPECT_GE(done, floor);
    EXPECT_LE(done, floor + 20'000);
}

TEST(System, RowHitReadOnIdleSystemReturnsAtPinnedTick)
{
    // One read opens row 10; a second read to the open row, issued on
    // the now idle system, is a row hit. Both data returns are pinned
    // to the exact ticks of the earlier two-event return path (burst
    // end, then a relay one frontend hop later): the single return
    // event must land on the same tick.
    System system(SystemConfig::paper(DefenseKind::kNone));
    const auto &mapper = system.mapper();
    Tick miss = 0;
    system.issueRead(leaky::attack::rowAddress(mapper, 0, 0, 0, 0, 10), 0,
                     [&miss](Tick t) { miss = t; });
    system.run(leaky::sim::kUs);
    const Tick issued = system.now();
    Tick hit = 0;
    system.issueRead(leaky::attack::rowAddress(mapper, 0, 0, 0, 0, 10, 1),
                     0, [&hit](Tick t) { hit = t; });
    system.run(leaky::sim::kUs);
    EXPECT_EQ(system.stats(0).row_misses, 1u);
    EXPECT_EQ(system.stats(0).row_hits, 1u);
    EXPECT_EQ(miss, 55'328u);
    EXPECT_EQ(hit - issued, 39'328u);
}

/** A sink that records every (tag, done) it is handed. */
struct TagRecorder final : leaky::sys::ReadSink {
    std::vector<std::pair<std::uint64_t, Tick>> done;

    void
    readDone(std::uint64_t tag, Tick at) override
    {
        done.emplace_back(tag, at);
    }
};

TEST(System, ReadsInFlightReturnTheirOwnTags)
{
    // Three reads in flight from one sink, all to bank 0: one opens
    // row 10, then one to row 20 (a conflict) and one to row 10 again.
    // FR-FCFS serves the row hit before the older conflict, so the
    // last read issued returns second. Each comes back with the tag it
    // was issued with, in completion order.
    System system(SystemConfig::paper(DefenseKind::kNone));
    const auto &mapper = system.mapper();
    constexpr std::uint64_t kOpen = 7;
    constexpr std::uint64_t kConflict = 0xc0ffee;
    constexpr std::uint64_t kHit = std::uint64_t{1} << 63;
    TagRecorder sink;
    system.issueRead(leaky::attack::rowAddress(mapper, 0, 0, 0, 0, 10), sink,
                     kOpen);
    system.issueRead(leaky::attack::rowAddress(mapper, 0, 0, 0, 0, 20), sink,
                     kConflict);
    system.issueRead(leaky::attack::rowAddress(mapper, 0, 0, 0, 0, 10, 1),
                     sink, kHit);
    system.run(leaky::sim::kUs);
    ASSERT_EQ(sink.done.size(), 3u);
    EXPECT_EQ(sink.done[0].first, kOpen);
    EXPECT_EQ(sink.done[1].first, kHit);
    EXPECT_EQ(sink.done[2].first, kConflict);
    EXPECT_LT(sink.done[0].second, sink.done[1].second);
    EXPECT_LT(sink.done[1].second, sink.done[2].second);
    EXPECT_EQ(system.stats(0).row_hits, 1u);
}

/** A closed loop of reads alternating two rows of one bank, each
 *  issued from the previous read's readDone(); stops the system after
 *  @c target reads. Tag = read number. */
struct ChainedReads final : leaky::sys::ReadSink {
    System &system;
    std::uint64_t rows[2];
    std::uint64_t reads = 0;
    std::uint64_t target = 0;

    ChainedReads(System &s, std::uint64_t a, std::uint64_t b)
        : system(s), rows{a, b}
    {
    }

    void issue() { system.issueRead(rows[reads % 2], *this, reads); }

    void
    readDone(std::uint64_t tag, Tick) override
    {
        EXPECT_EQ(tag, reads);
        reads += 1;
        if (reads == target)
            system.stop();
        issue();
    }
};

TEST(System, SinkIssuingFromReadDoneAllocatesNothingOnceWarm)
{
    // The slot is freed before the sink runs, so the read issued from
    // readDone() takes the slot its predecessor left: one slot serves
    // the whole chain and nothing reaches the heap once warm.
    System system(SystemConfig::paper(DefenseKind::kNone));
    const auto &mapper = system.mapper();
    ChainedReads chain(system,
                       leaky::attack::rowAddress(mapper, 0, 0, 0, 0, 100),
                       leaky::attack::rowAddress(mapper, 0, 0, 0, 0, 200));
    chain.target = 200;
    chain.issue();
    system.run(100 * leaky::sim::kMs); // Warm-up.
    ASSERT_EQ(chain.reads, 200u);

    chain.target = 2200;
    const std::uint64_t before = leaky_test_heap_allocs.load();
    system.run(100 * leaky::sim::kMs);
    const std::uint64_t after = leaky_test_heap_allocs.load();
    ASSERT_EQ(chain.reads, 2200u);
    EXPECT_EQ(after, before);
}

/** The @p n-th read of closed loop @p loop: rows alternate in bank
 *  @p loop of bank group 0. */
std::uint64_t
loopRow(const System &system, std::uint64_t loop, std::uint64_t n)
{
    return leaky::attack::rowAddress(
        system.mapper(), 0, 0, 0, static_cast<std::uint32_t>(loop),
        static_cast<std::uint32_t>(n % 2 ? 100 + loop : 200 + loop));
}

TEST(System, CallbackAdapterMatchesTypedSink)
{
    // The same read sequence -- three closed loops, each alternating
    // two rows of its own bank of bank group 0, under PRAC -- once
    // through the ReadCallback adapter and once through a typed sink:
    // every read sees the same (issue, done) ticks in the same order.
    using Timeline = std::vector<std::pair<Tick, Tick>>;
    constexpr std::uint64_t kReadsPerLoop = 300;

    Timeline via_callback;
    {
        System system(SystemConfig::paper(DefenseKind::kPrac));
        std::uint64_t issued[3] = {};
        std::function<void(std::uint64_t)> issue = [&](std::uint64_t loop) {
            if (issued[loop] == kReadsPerLoop)
                return;
            const Tick at = system.now();
            system.issueRead(loopRow(system, loop, issued[loop]++), 0,
                             [&, loop, at](Tick done) {
                                 via_callback.emplace_back(at, done);
                                 issue(loop);
                             });
        };
        for (std::uint64_t loop = 0; loop < 3; ++loop)
            issue(loop);
        system.run(100 * leaky::sim::kMs);
    }

    struct Loops final : leaky::sys::ReadSink {
        System &system;
        Timeline timeline;
        std::uint64_t issued[3] = {};

        explicit Loops(System &s) : system(s) {}

        void
        issue(std::uint64_t loop)
        {
            if (issued[loop] == kReadsPerLoop)
                return;
            // Tag: the issue tick in the high bits, the loop below.
            const std::uint64_t tag = system.now() << 2 | loop;
            system.issueRead(loopRow(system, loop, issued[loop]++), *this,
                             tag);
        }

        void
        readDone(std::uint64_t tag, Tick done) override
        {
            timeline.emplace_back(tag >> 2, done);
            issue(tag & 3);
        }
    };
    System system(SystemConfig::paper(DefenseKind::kPrac));
    Loops loops(system);
    for (std::uint64_t loop = 0; loop < 3; ++loop)
        loops.issue(loop);
    system.run(100 * leaky::sim::kMs);

    ASSERT_EQ(via_callback.size(), 3 * kReadsPerLoop);
    EXPECT_EQ(loops.timeline, via_callback);
    EXPECT_GT(system.stats(0).backoffs, 0u); // PRAC acted mid-sequence.
}

TEST(System, WritesAreFireAndForget)
{
    System system(SystemConfig::paper(DefenseKind::kNone));
    const auto addr =
        leaky::attack::rowAddress(system.mapper(), 0, 0, 0, 0, 10);
    system.issueWrite(addr, 0);
    system.run(leaky::sim::kUs);
    EXPECT_EQ(system.controller(0).stats().writes_served, 1u);
}

TEST(System, FullQueueRetriesUntilServed)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kNone);
    cfg.ctrl.read_queue_depth = 4;
    System system(cfg);
    int completions = 0;
    // Far more requests than queue slots, all to one bank (slow).
    for (int i = 0; i < 32; ++i) {
        const auto addr = leaky::attack::rowAddress(
            system.mapper(), 0, 0, 0, 0,
            static_cast<std::uint32_t>(i % 2 ? 100 : 200));
        system.issueRead(addr, 0, [&completions](Tick) {
            completions += 1;
        });
    }
    system.run(100 * leaky::sim::kUs);
    EXPECT_EQ(completions, 32);
}

TEST(System, MultiChannelRoutesByAddress)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kNone);
    cfg.channels = 2;
    System system(cfg);
    const auto ch0 =
        leaky::attack::rowAddress(system.mapper(), 0, 0, 0, 0, 10);
    const auto ch1 =
        leaky::attack::rowAddress(system.mapper(), 1, 0, 0, 0, 10);
    int done = 0;
    system.issueRead(ch0, 0, [&done](Tick) { done += 1; });
    system.issueRead(ch1, 0, [&done](Tick) { done += 1; });
    system.run(leaky::sim::kUs);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(system.controller(0).stats().reads_served, 1u);
    EXPECT_EQ(system.controller(1).stats().reads_served, 1u);
}

TEST(System, PaperPresetMatchesTable1)
{
    const auto cfg = SystemConfig::paper(DefenseKind::kPrac);
    EXPECT_EQ(cfg.ctrl.dram.org.ranks, 2u);
    EXPECT_EQ(cfg.ctrl.dram.org.bankgroups, 8u);
    EXPECT_EQ(cfg.ctrl.dram.org.banks_per_group, 4u);
    EXPECT_EQ(cfg.ctrl.dram.org.rows, 128u * 1024);
    EXPECT_EQ(cfg.ctrl.read_queue_depth, 64u);
    EXPECT_EQ(leaky::ctrl::kColumnCap, 16u);
}

TEST(System, PerChannelStatsSumToAggregate)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kNone);
    cfg.channels = 2;
    System system(cfg);
    // Unbalanced traffic so the per-channel views must differ.
    for (int i = 0; i < 6; ++i) {
        const auto addr = leaky::attack::rowAddress(
            system.mapper(), i < 4 ? 0 : 1, 0, 0, 0,
            static_cast<std::uint32_t>(10 + i));
        system.issueRead(addr, 0, [](Tick) {});
    }
    system.issueWrite(
        leaky::attack::rowAddress(system.mapper(), 1, 0, 0, 0, 99), 0);
    system.run(50 * leaky::sim::kUs);

    const auto &ch0 = system.stats(0);
    const auto &ch1 = system.stats(1);
    const auto total = system.aggregateStats();
    EXPECT_EQ(ch0.reads_served, 4u);
    EXPECT_EQ(ch1.reads_served, 2u);
    EXPECT_EQ(total.reads_served, ch0.reads_served + ch1.reads_served);
    EXPECT_EQ(total.writes_served,
              ch0.writes_served + ch1.writes_served);
    EXPECT_EQ(total.row_misses, ch0.row_misses + ch1.row_misses);
    EXPECT_EQ(total.refreshes, ch0.refreshes + ch1.refreshes);
    EXPECT_EQ(total.read_latency_sum,
              ch0.read_latency_sum + ch1.read_latency_sum);
    // Full-field check: the aggregate must equal the fold of the
    // public per-channel views (catches a channel skipped in
    // aggregateStats(), which the spot checks above could miss).
    leaky::ctrl::CtrlStats manual = ch0;
    manual += ch1;
    EXPECT_TRUE(total == manual);
}

// The paper's preventive actions are per-channel: continuously
// hammering channel 0 must not trigger a single action on channel 1
// (the isolation the cross-channel figure quantifies as capacity).
TEST(System, HammeringChannel0LeavesChannel1Untouched)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kPrac, 160);
    cfg.channels = 2;
    System system(cfg);

    leaky::attack::ProbeConfig probe_cfg;
    probe_cfg.channel = 0;
    probe_cfg.addrs = {
        leaky::attack::rowAddress(system.mapper(), probe_cfg.channel,
                                  0, 0, 0, 1000),
        leaky::attack::rowAddress(system.mapper(), probe_cfg.channel,
                                  0, 0, 0, 2000)};
    probe_cfg.iterations = 600; // > 2 x NBO alternating activations.
    leaky::attack::LatencyProbe probe(system, probe_cfg);
    bool done = false;
    probe.start([&done] { done = true; });
    // Bounded wait: a probe that stalls should fail the test, not
    // hang the binary until the ctest timeout.
    const Tick deadline = system.now() + 500 * leaky::sim::kMs;
    while (!done && system.now() < deadline)
        system.run(leaky::sim::kMs);
    ASSERT_TRUE(done) << "probe did not finish before the deadline";

    EXPECT_GT(system.stats(0).preventiveActions(), 0u);
    const auto &idle = system.stats(1);
    EXPECT_EQ(idle.preventiveActions(), 0u);
    EXPECT_EQ(idle.backoffs, 0u);
    EXPECT_EQ(idle.rfms, 0u);
    EXPECT_EQ(idle.reads_served, 0u);
    // And the aggregate view attributes everything to channel 0.
    EXPECT_EQ(system.aggregateStats().preventiveActions(),
              system.stats(0).preventiveActions());
}

// The scaling family rides the same determinism contract CI enforces
// for the whole registry: bit-identical CSV on 1 vs 4 threads.
TEST(System, ScalingFiguresAreThreadCountInvariant)
{
    namespace runner = leaky::runner;
    runner::RunOptions opts;
    opts.smoke = true;
    for (const char *name :
         {"cross-channel", "channel-scaling", "mapping-order",
          "mapping-recovery"}) {
        const auto *figure = runner::findFigure(name);
        ASSERT_NE(figure, nullptr) << name;
        const auto spec = figure->make(opts);
        const auto serial = runner::runSweep(spec, 1);
        const auto parallel = runner::runSweep(spec, 4);
        ASSERT_FALSE(serial.rows.empty()) << name;
        for (const auto &row : serial.rows)
            EXPECT_EQ(row.size(), spec.columns.size()) << name;
        EXPECT_EQ(serial.rows, parallel.rows) << name;
        EXPECT_EQ(runner::toCsv(serial), runner::toCsv(parallel))
            << name;
    }
}

TEST(System, MappingPresetReachesTheMapper)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kNone);
    cfg.mapping = leaky::dram::MappingSpec::parse("bank-first");
    System system(cfg);
    const auto a0 = system.mapper().decode(0);
    const auto a1 = system.mapper().decode(64);
    EXPECT_FALSE(a0.sameBank(a1)); // Bank bits at the LSB end.
}

TEST(System, DefenseBundleAttachedPerChannel)
{
    SystemConfig cfg = SystemConfig::paper(DefenseKind::kPrac, 160);
    cfg.channels = 2;
    System system(cfg);
    EXPECT_NE(system.defenseBundle(0).device, nullptr);
    EXPECT_NE(system.defenseBundle(1).device, nullptr);
    EXPECT_NE(system.defenseBundle(0).device.get(),
              system.defenseBundle(1).device.get());
}

} // namespace
