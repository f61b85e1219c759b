/**
 * @file
 * EventQueue unit tests: ordering, cancellation, time limits, plus the
 * intrusive-kernel semantics -- generation-counted handles across slab
 * reuse, member-bound events rescheduling themselves from their own
 * callbacks, pool growth, and the zero-allocation steady-state
 * invariant (verified by a test-binary-wide operator new counter).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "testing_alloc_counter.hh"

/** Allocation counter: this replaces the global allocator for the whole
 *  test binary, so tests can assert that a code region allocates
 *  nothing (other suites read it through testing_alloc_counter.hh).
 *  Single-threaded counting is fine for this binary. */
std::atomic<std::uint64_t> leaky_test_heap_allocs{0};

// GCC pairs the replacement operator new with the library operator
// delete and (wrongly) flags the malloc/free routing below.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    leaky_test_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The nothrow forms must route through malloc too: std::stable_sort's
// temporary buffer comes from nothrow new and returns through the
// plain delete below, which ASan reports as a new/free mismatch
// unless both sides are replaced.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    leaky_test_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

using leaky::sim::Event;
using leaky::sim::EventQueue;
using leaky::sim::kNoEvent;
using leaky::sim::kTickMax;
using leaky::sim::memberEvent;
using leaky::sim::SmallFn;
using leaky::sim::Tick;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.nextEventTick(), kTickMax);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickRunsInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    int fired = 0;
    const auto handle = eq.schedule(10, [&] { fired += 1; });
    eq.schedule(20, [&] { fired += 10; });
    EXPECT_TRUE(eq.cancel(handle));
    EXPECT_FALSE(eq.cancel(handle)); // Second cancel is a no-op.
    eq.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, RunUntilStopsAtLimitAndAdvancesClock)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { fired += 1; });
    eq.schedule(100, [&] { fired += 1; });
    eq.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.runUntil(100);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        depth += 1;
        if (depth < 5)
            eq.scheduleAfter(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(7, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 107u);
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue eq;
    const auto h1 = eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.size(), 2u);
    eq.cancel(h1);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduling into the past");
}

// ---------------------------------------------------------------------
// Intrusive-kernel semantics.

TEST(EventQueue, StaleHandleAfterExecutionCannotCancel)
{
    EventQueue eq;
    int fired = 0;
    const auto h1 = eq.schedule(10, [&] { fired += 1; });
    eq.run();
    EXPECT_EQ(fired, 1);
    // h1's slot is free now; its generation is stale.
    EXPECT_FALSE(eq.cancel(h1));

    // The freed slot is reused (LIFO free list) for the next event; the
    // stale handle must neither cancel it nor alias it.
    const auto h2 = eq.schedule(20, [&] { fired += 10; });
    EXPECT_NE(h1, h2);
    EXPECT_FALSE(eq.cancel(h1));
    eq.run();
    EXPECT_EQ(fired, 11);
}

TEST(EventQueue, StaleHandleAfterCancelDoesNotAliasReusedSlot)
{
    EventQueue eq;
    int fired = 0;
    const auto h1 = eq.schedule(10, [&] { fired += 1; });
    EXPECT_TRUE(eq.cancel(h1));
    const auto h2 = eq.schedule(10, [&] { fired += 10; });
    EXPECT_FALSE(eq.cancel(h1)); // Stale generation on a reused slot.
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_FALSE(eq.cancel(h2)); // Executed handles are stale too.
}

TEST(EventQueue, SameTickFifoOrderSurvivesSlabReuse)
{
    EventQueue eq;
    // Churn the free list so the same-tick events below land in
    // shuffled slab slots: slot order must not leak into run order.
    std::vector<leaky::sim::EventHandle> churn;
    for (int i = 0; i < 40; ++i)
        churn.push_back(eq.schedule(5, [] {}));
    for (int i = 0; i < 40; i += 2)
        eq.cancel(churn[static_cast<std::size_t>(i)]);

    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PoolGrowsPastInitialCapacity)
{
    EventQueue eq;
    EXPECT_EQ(eq.poolCapacity(), 0u);
    std::uint64_t fired = 0;
    constexpr int kEvents = 3000; // > several growth chunks
    for (int i = 0; i < kEvents; ++i)
        eq.schedule(static_cast<Tick>(i), [&fired] { fired += 1; });
    EXPECT_GE(eq.poolCapacity(), static_cast<std::size_t>(kEvents));
    EXPECT_EQ(eq.size(), static_cast<std::size_t>(kEvents));
    eq.run();
    EXPECT_EQ(fired, static_cast<std::uint64_t>(kEvents));
    EXPECT_GE(eq.kernelStats().pool_chunks, 2u);
}

struct SelfTicker {
    explicit SelfTicker(EventQueue &q)
        : eq(q), ev(memberEvent<&SelfTicker::tick>(this))
    {
    }

    void
    tick()
    {
        ticks += 1;
        last_at = eq.now();
        if (ticks < limit)
            eq.scheduleAfter(ev, 10);
    }

    EventQueue &eq;
    Event ev;
    int ticks = 0;
    int limit = 0;
    Tick last_at = 0;
};

TEST(EventQueue, BoundEventReschedulesItselfFromCallback)
{
    EventQueue eq;
    SelfTicker ticker(eq);
    ticker.limit = 5;
    eq.schedule(ticker.ev, 0);
    EXPECT_TRUE(ticker.ev.scheduled());
    eq.run();
    EXPECT_EQ(ticker.ticks, 5);
    EXPECT_EQ(ticker.last_at, 40u);
    EXPECT_FALSE(ticker.ev.scheduled());
}

TEST(EventQueue, RescheduleMovesAPendingBoundEvent)
{
    EventQueue eq;
    SelfTicker ticker(eq);
    ticker.limit = 1;
    eq.schedule(ticker.ev, 100);
    eq.reschedule(ticker.ev, 30);
    EXPECT_EQ(ticker.ev.when(), 30u);
    eq.run();
    EXPECT_EQ(ticker.ticks, 1);
    EXPECT_EQ(ticker.last_at, 30u);
    EXPECT_EQ(eq.now(), 30u); // The stale 100-tick entry is skipped.
}

TEST(EventQueue, DescheduledBoundEventDoesNotFire)
{
    EventQueue eq;
    SelfTicker ticker(eq);
    ticker.limit = 1;
    eq.schedule(ticker.ev, 10);
    EXPECT_TRUE(eq.deschedule(ticker.ev));
    EXPECT_FALSE(eq.deschedule(ticker.ev)); // Second is a no-op.
    eq.run();
    EXPECT_EQ(ticker.ticks, 0);
}

TEST(EventQueue, BoundEventDestructorDeschedules)
{
    EventQueue eq;
    int fired = 0;
    {
        SelfTicker ticker(eq);
        ticker.limit = 1;
        eq.schedule(ticker.ev, 10);
        eq.schedule(20, [&fired] { fired += 1; });
    }
    eq.run(); // The destroyed ticker's occurrence must not run.
    EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------
// Zero-allocation steady state.

/** One request of a retry storm: it retries every 20 ns until done. */
struct Retrier {
    void
    retry()
    {
        if (--left > 0)
            eq->scheduleAfter(ev, 20'000);
    }

    EventQueue *eq = nullptr;
    Event ev;
    int left = 0;
};

TEST(EventQueue, SteadyStateSchedulingDoesNotAllocate)
{
    EventQueue eq;
    SelfTicker ticker(eq);
    std::uint64_t counter = 0;
    // A saturated controller: 2000 requests in flight, all retrying on
    // identical ticks, so every retry joins one long same-tick run.
    std::vector<Retrier> storm(2000);
    for (Retrier &r : storm) {
        r.eq = &eq;
        r.ev.bind(&r, [](void *ctx) { static_cast<Retrier *>(ctx)->retry(); });
    }
    const auto runStorm = [&](int retries) {
        for (Retrier &r : storm) {
            r.left = retries;
            eq.schedule(r.ev, eq.now());
        }
        eq.run();
    };

    // Warm-up: grow the slab and the heap past the steady-state
    // high-water mark (1001 simultaneously live events below, then
    // the 2000-event storm).
    for (int i = 0; i < 1200; ++i)
        eq.scheduleAfter(static_cast<Tick>(i % 31), [&counter] {
            counter += 1;
        });
    eq.run();
    runStorm(2);

    // Steady state: a self-rescheduling bound event plus one-shot
    // lambdas with small captures, mirroring the controller's tick /
    // completion pattern, then the retry storm. None of this may touch
    // the heap.
    ticker.limit = 1000;
    const std::uint64_t allocs_before = leaky_test_heap_allocs.load();
    eq.schedule(ticker.ev, eq.now());
    for (int i = 0; i < 1000; ++i)
        eq.scheduleAfter(static_cast<Tick>(i % 31), [&counter] {
            counter += 1;
        });
    eq.run();
    const Tick storm_start = eq.now();
    runStorm(20);
    const std::uint64_t allocs_after = leaky_test_heap_allocs.load();

    EXPECT_EQ(allocs_after, allocs_before);
    EXPECT_EQ(ticker.ticks, 1000);
    EXPECT_EQ(counter, 2200u);
    EXPECT_EQ(eq.now(), storm_start + 19 * 20'000);
    EXPECT_EQ(eq.kernelStats().one_shot_spills, 0u);
}

// ---------------------------------------------------------------------
// Property-based differential tests: the production kernel (a heap of
// same-tick runs) against a naive reference model that simply sorts
// pending events by (tick, schedule-seq). Random schedules, random
// cancellations, and partial runUntil() slices must all reproduce the
// reference fire order exactly — same-tick ties included.

/** Drives one EventQueue and the reference model in lockstep. */
class Differential
{
  public:
    /** Schedule a one-shot at @p when in both. A @p spawn event
     *  schedules one more (plain) event at now() when it fires.
     *  @return the event's id. */
    int
    add(Tick when, bool spawn = false)
    {
        const int id = next_id_++;
        const auto h =
            eq.schedule(when, [this, id, spawn] { fire(id, spawn); });
        model_.push_back({when, seq_++, id, h});
        return id;
    }

    /** Cancel the pending event at model index @p k in both. */
    void
    cancelAt(std::size_t k)
    {
        EXPECT_TRUE(eq.cancel(model_[k].handle));
        model_.erase(model_.begin() + static_cast<std::ptrdiff_t>(k));
    }

    /** Cancel pending event @p id in both. */
    void
    cancelId(int id)
    {
        const auto it = std::find_if(
            model_.begin(), model_.end(),
            [id](const Pending &p) { return p.id == id; });
        ASSERT_NE(it, model_.end()) << "event " << id << " not pending";
        cancelAt(static_cast<std::size_t>(it - model_.begin()));
    }

    /** Run both up to @p limit (inclusive). */
    void
    runUntil(Tick limit)
    {
        eq.runUntil(limit);
        std::vector<Pending> due;
        for (std::size_t i = 0; i < model_.size();) {
            if (model_[i].when <= limit) {
                due.push_back(model_[i]);
                model_.erase(model_.begin() +
                             static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }
        std::sort(due.begin(), due.end(),
                  [](const Pending &a, const Pending &b) {
                      return a.when != b.when ? a.when < b.when
                                              : a.seq < b.seq;
                  });
        for (const Pending &p : due)
            expected.push_back(p.id);
    }

    std::size_t pending() const { return model_.size(); }
    Tick pendingWhen(std::size_t k) const { return model_[k].when; }

    EventQueue eq;
    std::vector<int> fired;
    std::vector<int> expected;

  private:
    struct Pending {
        Tick when;
        std::uint64_t seq; ///< Global schedule order (tie-break).
        int id;
        leaky::sim::EventHandle handle;
    };

    void
    fire(int id, bool spawn)
    {
        fired.push_back(id);
        // The child joins the model mid-run; it fires inside the same
        // runUntil() slice, after every pending event of this tick.
        if (spawn)
            add(eq.now());
    }

    std::vector<Pending> model_;
    std::uint64_t seq_ = 0;
    int next_id_ = 0;
};

TEST(EventQueueProperty, MatchesReferenceOrder)
{
    leaky::sim::Rng rng(0xC0FFEE);
    const auto rnd = [&rng](std::uint64_t bound) {
        return rng.below(bound);
    };
    // Delta magnitudes from one tick to one past 2^48, so runs open at
    // near and far ticks alike.
    static constexpr Tick kSpans[] = {
        1, 7, 60, 250, 3000, 70'000, Tick{1} << 20, Tick{1} << 49,
    };

    std::uint64_t run_appends = 0;
    std::uint64_t heap_events = 0;
    for (int round = 0; round < 10; ++round) {
        Differential d;
        for (int step = 0; step < 300; ++step) {
            const std::uint64_t op = rnd(100);
            if (op < 60 || d.pending() == 0) {
                // Burst of one-shots; small spans collide on one tick
                // often, exercising the same-tick seq order.
                const int burst = 1 + static_cast<int>(rnd(8));
                for (int b = 0; b < burst; ++b) {
                    const Tick span = kSpans[rnd(std::size(kSpans))];
                    d.add(d.eq.now() + rnd(span + 1));
                }
            } else if (op < 80) {
                d.cancelAt(rnd(d.pending()));
            } else {
                // Run a slice ending at a pending deadline plus random
                // slack, so limits land both on and between events.
                const std::size_t k = rnd(d.pending());
                d.runUntil(d.pendingWhen(k) + rnd(64));
                ASSERT_EQ(d.fired, d.expected) << "round " << round
                                               << " step " << step;
            }
        }
        d.runUntil(kTickMax);
        ASSERT_EQ(d.fired, d.expected) << "round " << round;
        EXPECT_TRUE(d.eq.empty());
        run_appends += d.eq.kernelStats().run_appends;
        heap_events += d.eq.kernelStats().heap_events;
    }
    // The generator must have both joined runs and opened new ones.
    EXPECT_GT(run_appends, 0u);
    EXPECT_GT(heap_events, run_appends);
}

TEST(EventQueueProperty, SameTickStormsWithCancelsMatchReferenceOrder)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        leaky::sim::Rng rng(seed);
        Differential d;
        const Tick t = 1000 + rng.below(1000);
        // Events at neighbouring ticks, and one that takes the storm
        // tick's tail-table entry, so the storm opens its own run.
        for (int i = 0; i < 10; ++i) {
            d.add(t + 1 + rng.below(5));
            d.add(t - 1 - rng.below(5));
        }
        d.add(t + 256);
        std::vector<int> storm;
        for (int i = 0; i < 1200; ++i)
            storm.push_back(d.add(t));
        // Cancel the storm run's head, a middle record and its tail;
        // the tail cache must fall back to the new tail, so later
        // appends still join the same (newest) run.
        d.cancelId(storm.front());
        d.cancelId(storm[storm.size() / 2]);
        d.cancelId(storm.back());
        for (int i = 0; i < 300; ++i) {
            const int id = d.add(t);
            if (rng.below(4) == 0)
                d.cancelId(id);
        }
        // Then a spread of distinct records from the run's first half.
        const std::size_t stride = 2 + rng.below(2);
        for (std::size_t i = 0; i < 200; ++i)
            d.cancelId(storm[1 + stride * i]);
        d.runUntil(t - 1);
        ASSERT_EQ(d.fired, d.expected) << "seed " << seed;
        d.runUntil(kTickMax);
        ASSERT_EQ(d.fired, d.expected) << "seed " << seed;
        EXPECT_GT(d.eq.kernelStats().run_appends, 1000u);
    }
}

TEST(EventQueueProperty, TailTableCollisionsMatchReferenceOrder)
{
    // Ticks T and T + 256 share a tail-table entry, so interleaving
    // them keeps opening new runs of the same tick: their heap order
    // and in-place promotion must still follow (tick, seq).
    for (const std::uint64_t seed : {4u, 5u, 6u}) {
        leaky::sim::Rng rng(seed);
        Differential d;
        const Tick t = 256 * (1 + rng.below(16)) + rng.below(256);
        std::vector<int> ids;
        for (int burst = 0; burst < 200; ++burst) {
            const Tick when = (burst % 2 == 0) ? t : t + 256;
            const int n = 1 + static_cast<int>(rng.below(6));
            for (int i = 0; i < n; ++i)
                ids.push_back(d.add(when));
            if (rng.below(3) == 0 && d.pending() > 0)
                d.cancelAt(rng.below(d.pending()));
        }
        d.runUntil(t);
        ASSERT_EQ(d.fired, d.expected) << "seed " << seed;
        // The clock now sits at T: the next bursts land at T + 256 and
        // at the colliding T + 512.
        for (int burst = 0; burst < 50; ++burst) {
            const Tick when = (burst % 2 == 0) ? t + 256 : t + 512;
            for (int i = 0; i < 3; ++i)
                d.add(when);
            if (rng.below(2) == 0)
                d.cancelAt(rng.below(d.pending()));
        }
        d.runUntil(kTickMax);
        ASSERT_EQ(d.fired, d.expected) << "seed " << seed;
    }
}

TEST(EventQueueProperty, SchedulesAtNowFromCallbacksMatchReferenceOrder)
{
    for (const std::uint64_t seed : {7u, 8u, 9u}) {
        leaky::sim::Rng rng(seed);
        Differential d;
        // Spawners and plain events over a few ticks (two of which
        // collide in the tail table); every spawner's child is
        // scheduled at now() from inside its callback and must run
        // after all events already pending at that tick.
        for (int i = 0; i < 400; ++i) {
            const Tick when = 10 + 256 * rng.below(2) + rng.below(4);
            d.add(when, rng.below(2) == 0);
        }
        d.runUntil(11);
        ASSERT_EQ(d.fired, d.expected) << "seed " << seed;
        d.runUntil(kTickMax);
        ASSERT_EQ(d.fired, d.expected) << "seed " << seed;
        EXPECT_TRUE(d.eq.empty());
    }
}

TEST(EventQueue, OversizedCapturesSpillAndAreCounted)
{
    EventQueue eq;
    // A capture bigger than SmallFn's inline buffer must still work --
    // it spills to the heap and is counted.
    struct Big {
        unsigned char payload[SmallFn::kInlineBytes + 16] = {};
    } big;
    big.payload[0] = 7;
    int seen = 0;
    eq.schedule(5, [big, &seen] { seen = big.payload[0]; });
    EXPECT_EQ(eq.kernelStats().one_shot_spills, 1u);
    eq.run();
    EXPECT_EQ(seen, 7);
}

} // namespace
