/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate itself:
 * event-queue throughput (one-shot and member-bound reusable events),
 * schedule/cancel churn, figure-shaped traffic with few live events,
 * DRAM command issue, controller request service, and end-to-end
 * covert-channel window simulation speed.
 *
 * Besides the console output, a run always writes a JSON report
 * (items/sec per bench) to BENCH_kernel.json -- override the path with
 * the LEAKY_BENCH_OUT environment variable -- so perf changes can be
 * tracked across commits. The report's context records the build type
 * and whether LEAKY_DCHECKs were compiled in (leaky_build_type,
 * leaky_dchecks). Smoke mode for CI:
 *
 *   micro_simulator_throughput --benchmark_min_time=0.01
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/leakyhammer.hh"
#include "runner/pool.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "sim/rng.hh"

namespace {

using namespace leaky;

void
BM_EventQueue(benchmark::State &state)
{
    sim::EventQueue eq;
    std::uint64_t counter = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleAfter(static_cast<sim::Tick>(i % 97),
                             [&counter] { counter += 1; });
        eq.run();
    }
    benchmark::DoNotOptimize(counter);
    state.SetItemsProcessed(static_cast<std::int64_t>(counter));
}
BENCHMARK(BM_EventQueue);

/** A component self-clocking off one reusable member-bound event --
 *  the controller's steady-state pattern (zero allocations). */
struct Ticker {
    explicit Ticker(sim::EventQueue &q)
        : eq(q), ev(sim::memberEvent<&Ticker::tick>(this))
    {
    }

    void
    tick()
    {
        fired += 1;
        if (fired < target)
            eq.schedule(ev, eq.now() + 10);
    }

    sim::EventQueue &eq;
    sim::Event ev;
    std::uint64_t fired = 0;
    std::uint64_t target = 0;
};

void
BM_EventQueueBound(benchmark::State &state)
{
    sim::EventQueue eq;
    Ticker ticker(eq);
    for (auto _ : state) {
        ticker.target += 1000;
        eq.schedule(ticker.ev, eq.now());
        eq.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ticker.fired));
}
BENCHMARK(BM_EventQueueBound);

/** Wake-timer churn: reschedule a pending event (cancel + schedule),
 *  as the controller does whenever a nearer wake-up appears. */
void
BM_EventQueueCancelReschedule(benchmark::State &state)
{
    sim::EventQueue eq;
    Ticker ticker(eq);
    std::uint64_t moves = 0;
    for (auto _ : state) {
        ticker.target = ~std::uint64_t{0};
        eq.schedule(ticker.ev, eq.now() + 1'000'000);
        for (int i = 0; i < 1000; ++i) {
            eq.reschedule(ticker.ev, eq.now() + 1'000'000 -
                                         static_cast<sim::Tick>(i));
            moves += 1;
        }
        // Cancel unlinks at once, so the churn leaves nothing behind
        // to drain and every iteration starts from an empty queue.
        eq.deschedule(ticker.ev);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(moves));
}
BENCHMARK(BM_EventQueueCancelReschedule);

/** One of a few self-clocking components, each tick also scheduling a
 *  one-shot completion that lands before its next tick. */
struct FewLiveClock {
    void
    tick()
    {
        fired += 1;
        if (fired >= target)
            return;
        const sim::Tick delta = rng.range(1'000, 100'000);
        eq->scheduleAfter(ev, delta);
        eq->scheduleAfter(delta / 2, [this] { completions += 1; });
    }

    sim::EventQueue *eq = nullptr;
    sim::Event ev;
    sim::Rng rng;
    std::uint64_t fired = 0;
    std::uint64_t target = 0;
    std::uint64_t completions = 0;
};

/** Figure-shaped traffic: about eight pending events (four bound
 *  self-clocks and their one-shots) at deltas of 1 000 to 100 000
 *  ticks, the live count the figure registry measures. */
void
BM_EventQueueFewLive(benchmark::State &state)
{
    sim::EventQueue eq;
    std::vector<FewLiveClock> clocks(4);
    for (std::size_t i = 0; i < clocks.size(); ++i) {
        FewLiveClock &c = clocks[i];
        c.eq = &eq;
        c.rng = sim::Rng(i + 1);
        c.ev.bind(&c, [](void *ctx) {
            static_cast<FewLiveClock *>(ctx)->tick();
        });
    }
    for (auto _ : state) {
        for (FewLiveClock &c : clocks) {
            c.target += 250;
            eq.schedule(c.ev, eq.now());
        }
        eq.run();
    }
    std::uint64_t events = 0;
    for (const FewLiveClock &c : clocks)
        events += c.fired + c.completions;
    benchmark::DoNotOptimize(events);
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueFewLive);

void
BM_DramCommandIssue(benchmark::State &state)
{
    dram::DramChannel chan(dram::DramConfig::ddr5Paper());
    dram::Address a;
    // The controller annotates every queued address once at enqueue;
    // issue against the same pre-flattened form here.
    chan.config().org.annotate(a);
    sim::Tick now = 0;
    std::uint64_t commands = 0;
    for (auto _ : state) {
        for (int i = 0; i < 100; ++i) {
            a.row = static_cast<std::uint32_t>(i % 64);
            now = std::max(now, chan.earliestIssue(dram::Command::kAct,
                                                   a));
            chan.issue(dram::Command::kAct, a, now);
            now = std::max(now + 1,
                           chan.earliestIssue(dram::Command::kRd, a));
            chan.issue(dram::Command::kRd, a, now);
            now = std::max(now + 1,
                           chan.earliestIssue(dram::Command::kPre, a));
            chan.issue(dram::Command::kPre, a, now);
            commands += 3;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(commands));
}
BENCHMARK(BM_DramCommandIssue);

void
BM_ControllerRequests(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        sys::SystemConfig cfg =
            sys::SystemConfig::paper(defense::DefenseKind::kPrac);
        sys::System system(cfg);
        state.ResumeTiming();

        std::uint64_t served = 0;
        for (int i = 0; i < 2000; ++i) {
            const auto addr = attack::rowAddress(
                system.mapper(), 0, 0,
                static_cast<std::uint32_t>(i % 8),
                static_cast<std::uint32_t>(i % 4),
                static_cast<std::uint32_t>(i % 1024));
            system.issueRead(addr, 0, [&served](sim::Tick) {
                served += 1;
            });
        }
        system.run(sim::kMs);
        benchmark::DoNotOptimize(served);
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.items_processed() + served));
    }
}
BENCHMARK(BM_ControllerRequests)->Unit(benchmark::kMillisecond);

void
BM_CovertWindow(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        sys::SystemConfig sys_cfg = core::pracAttackSystem();
        sys::System system(sys_cfg);
        auto cfg = attack::makeChannelConfig(
            system, attack::ChannelKind::kPrac);
        state.ResumeTiming();

        std::vector<std::uint8_t> symbols = {1, 0, 1, 0};
        attack::runCovertChannel(system, cfg, symbols);
    }
    state.SetLabel("4 windows of 25 us each");
}
BENCHMARK(BM_CovertWindow)->Unit(benchmark::kMillisecond);

/** Sweep-runner throughput: expand + pool-execute + merge a batch of
 *  synthetic jobs (a seeded RNG spin standing in for a short
 *  simulation). Arg = worker threads; jobs/s is the tracked number. */
void
BM_SweepRunner(benchmark::State &state)
{
    const auto threads = static_cast<unsigned>(state.range(0));
    runner::SweepPool pool(threads);
    const runner::SweepSpec spec = runner::syntheticBenchSpec(256,
                                                             20'000);

    std::uint64_t jobs = 0;
    for (auto _ : state) {
        const auto result = runner::runSweep(spec, pool);
        jobs += result.jobs;
        benchmark::DoNotOptimize(result.rows.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
}

/** 1, 4, and one-per-hardware-thread workers (deduplicated). */
void
sweepRunnerThreadCounts(benchmark::internal::Benchmark *bench)
{
    std::vector<int> counts = {
        1, 4,
        static_cast<int>(runner::SweepPool::resolveThreads(0))};
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()),
                 counts.end());
    for (int threads : counts)
        bench->Arg(threads);
}
BENCHMARK(BM_SweepRunner)->Apply(sweepRunnerThreadCounts);

} // namespace

int
main(int argc, char **argv)
{
    // Default to emitting BENCH_kernel.json unless the caller already
    // chose an output file; explicit flags always win.
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
            has_out = true;
    }

    const char *out_path = std::getenv("LEAKY_BENCH_OUT");
    std::string out_flag = "--benchmark_out=";
    out_flag += out_path ? out_path : "BENCH_kernel.json";
    std::string fmt_flag = "--benchmark_out_format=json";

    std::vector<char *> args(argv, argv + argc);
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int args_count = static_cast<int>(args.size());
    args.push_back(nullptr);

    // The build flavour decides the numbers (a DCHECK build runs ~40%
    // slower), so the report says which one produced it.
    benchmark::AddCustomContext("leaky_build_type", LEAKY_BUILD_TYPE);
#ifdef LEAKY_DCHECKS_ENABLED
    benchmark::AddCustomContext("leaky_dchecks", "on");
#else
    benchmark::AddCustomContext("leaky_dchecks", "off");
#endif

    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
