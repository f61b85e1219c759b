/**
 * @file
 * EventQueue unit tests: ordering, cancellation, time limits, plus the
 * intrusive-kernel semantics -- generation-counted handles across cell
 * reuse, member-bound events rescheduling themselves from their own
 * callbacks and owning their queue records, pool growth, and the
 * zero-allocation steady-state invariant (verified by a test-binary-wide
 * operator new counter).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
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

TEST(EventQueue, StopEndsTheRunAfterTheCallingCallback)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(10, [&] {
        order.push_back(2);
        eq.stop();
        // The rest of the stopping callback still runs.
        order.push_back(3);
    });
    eq.schedule(10, [&] { order.push_back(4); });
    eq.schedule(20, [&] { order.push_back(5); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 10u); // Not the limit.
    EXPECT_EQ(eq.size(), 2u);

    // The events left at the stopping tick fire first, in order.
    eq.schedule(10, [&] { order.push_back(6); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 6, 5}));
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, AdvanceIfNextRefusesAfterStop)
{
    EventQueue eq;
    std::vector<bool> got;
    eq.schedule(50, [] {});
    eq.schedule(10, [&] {
        got.push_back(eq.advanceIfNext(20));
        eq.stop();
        got.push_back(eq.advanceIfNext(30)); // Allowed before the stop.
        got.push_back(eq.now() == 20);
    });
    eq.runUntil(100);
    EXPECT_EQ(got, (std::vector<bool>{true, false, true}));
    EXPECT_EQ(eq.now(), 20u);

    // The next run advances in place again.
    got.clear();
    eq.schedule(25, [&] { got.push_back(eq.advanceIfNext(30)); });
    eq.runUntil(100);
    EXPECT_EQ(got, (std::vector<bool>{true}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, StopOutsideARunDoesNotEndTheNextRun)
{
    EventQueue eq;
    int fired = 0;
    eq.stop();
    // Nor does one from a callback that step() runs.
    eq.schedule(5, [&] {
        fired += 1;
        eq.stop();
    });
    EXPECT_TRUE(eq.step());
    for (Tick t : {10, 20, 30})
        eq.schedule(t, [&] { fired += 1; });
    eq.runUntil(50);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(eq.now(), 50u);
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
    explicit SelfTicker(EventQueue &q, Event::Order order = Event::Order::kRun)
        : eq(q), ev(memberEvent<&SelfTicker::tick>(this, order))
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
// Bound events are their own queue records.

TEST(EventQueue, BoundEventsClaimNoPoolCells)
{
    EventQueue eq;
    std::deque<SelfTicker> tickers;
    for (int i = 0; i < 6; ++i)
        tickers.emplace_back(eq).limit = 3;
    // Same-tick runs, a front run and heap runs; moves within and
    // across runs, cancels of heads, middles and tails.
    for (std::size_t i = 0; i < tickers.size(); ++i)
        eq.schedule(tickers[i].ev, 10 + (i % 2) * 5);
    eq.reschedule(tickers[0].ev, 5);
    eq.reschedule(tickers[2].ev, 15);
    EXPECT_TRUE(eq.deschedule(tickers[4].ev));
    EXPECT_TRUE(eq.deschedule(tickers[1].ev));
    eq.reschedule(tickers[4].ev, 12);
    eq.run();
    for (std::size_t i = 0; i < tickers.size(); ++i)
        EXPECT_EQ(tickers[i].ticks, i == 1 ? 0 : 3) << "ticker " << i;
    EXPECT_EQ(eq.poolCapacity(), 0u);
    EXPECT_EQ(eq.kernelStats().pool_chunks, 0u);
}

TEST(EventQueue, DestroyedBoundEventsLeaveNothingDangling)
{
    // Heap-allocated, so a link the queue kept to a destroyed event is
    // a use-after-free the sanitizer builds report.
    EventQueue eq;
    std::vector<std::unique_ptr<SelfTicker>> tickers;
    for (int i = 0; i < 8; ++i) {
        tickers.push_back(std::make_unique<SelfTicker>(eq));
        tickers.back()->limit = 2;
    }
    // Ticks 10, 20, 10, 20, ...: two runs of four; the idle ticker 7
    // is never scheduled.
    for (std::size_t i = 0; i < 7; ++i)
        eq.schedule(tickers[i]->ev, 10 + 10 * (i % 2));
    int fired = 0;
    eq.schedule(15, [&fired] { fired += 1; });
    // A run's head and middle, the other run's tail, and the idle one.
    for (std::size_t i : {0u, 2u, 5u, 7u})
        tickers[i].reset();
    EXPECT_EQ(eq.size(), 5u);
    // New events append to both runs' remaining tails.
    SelfTicker late10(eq), late20(eq);
    late10.limit = late20.limit = 1;
    eq.schedule(late10.ev, 10);
    eq.schedule(late20.ev, 20);
    eq.run();
    EXPECT_EQ(fired, 1);
    for (std::size_t i : {1u, 3u, 4u, 6u})
        EXPECT_EQ(tickers[i]->ticks, 2);
    EXPECT_EQ(late10.ticks, 1);
    EXPECT_EQ(late20.ticks, 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DestroyedQueueLeavesItsPendingEventsIdle)
{
    auto eq = std::make_unique<EventQueue>();
    std::vector<std::unique_ptr<SelfTicker>> tickers;
    for (int i = 0; i < 5; ++i)
        tickers.push_back(std::make_unique<SelfTicker>(*eq));
    // A front run, a same-tick run of three and a later heap run,
    // beside pending one-shots with a capture to destroy.
    eq->schedule(tickers[0]->ev, 5);
    for (std::size_t i = 1; i < 4; ++i)
        eq->schedule(tickers[i]->ev, 10);
    eq->schedule(tickers[4]->ev, 30);
    auto payload = std::make_shared<int>(0);
    eq->schedule(10, [payload] { *payload += 1; });
    eq->schedule(40, [payload] { *payload += 1; });
    EXPECT_EQ(payload.use_count(), 3);
    eq.reset();
    EXPECT_EQ(payload.use_count(), 1); // Undelivered one-shots freed.
    for (const auto &t : tickers)
        EXPECT_FALSE(t->ev.scheduled());
    tickers.clear(); // Their destructors must not reach the dead queue.
    EXPECT_EQ(*payload, 0);
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

    /** Add @p n reusable bound events, each a lane with probability
     *  1/2 (@p rng decides). */
    void
    addBound(std::size_t n, leaky::sim::Rng &rng)
    {
        for (std::size_t i = 0; i < n; ++i)
            bound_.push_back(std::make_unique<Bound>(
                this, rng.below(2) == 0 ? Event::Order::kLane
                                        : Event::Order::kRun));
    }

    std::size_t boundCount() const { return bound_.size(); }
    bool boundLane(std::size_t b) const { return bound_[b]->lane; }
    bool boundPending(std::size_t b) const { return bound_[b]->ev.scheduled(); }

    /** Schedule idle bound event @p b at @p when in both, as a new id;
     *  a pending one is rescheduled there (a new seq, same id). */
    void
    scheduleBound(std::size_t b, Tick when)
    {
        Bound &bd = *bound_[b];
        if (!bd.ev.scheduled()) {
            bd.id = next_id_++;
            eq.schedule(bd.ev, when);
            model_.push_back({when, seq_++, bd.id, kNoEvent, &bd});
            return;
        }
        eq.reschedule(bd.ev, when);
        Pending &p = model_[indexOf(bd.id)];
        p.when = when;
        p.seq = seq_++;
    }

    /** Model index of pending bound event @p b. */
    std::size_t boundIndex(std::size_t b) const
    {
        return indexOf(bound_[b]->id);
    }

    /** Schedule a probe at @p when: when it fires, it asks
     *  advanceIfNext() for the earliest pending tick (which it must
     *  refuse) and for the tick before it (which it must grant when
     *  that lies within the run). @return the event's id. */
    int
    addProbe(Tick when)
    {
        const int id = next_id_++;
        const auto h = eq.schedule(when, [this, id] {
            fire(id, false);
            probe(id);
        });
        model_.push_back({when, seq_++, id, h});
        return id;
    }

    /** Cancel the pending event at model index @p k in both. */
    void
    cancelAt(std::size_t k)
    {
        if (Bound *b = model_[k].bound)
            EXPECT_TRUE(eq.deschedule(b->ev));
        else
            EXPECT_TRUE(eq.cancel(model_[k].handle));
        model_.erase(model_.begin() + static_cast<std::ptrdiff_t>(k));
    }

    /** Cancel pending event @p id in both. */
    void cancelId(int id) { cancelAt(indexOf(id)); }

    /** Run both up to @p limit (inclusive). When pending event
     *  @p stop_id fires, it calls stop(): the run ends after it, with
     *  the clock at its tick, and later events stay pending. */
    void
    runUntil(Tick limit, int stop_id = -1)
    {
        stop_id_ = stop_id;
        limit_ = limit;
        stopped_ = false;
        eq.runUntil(limit);
        stop_id_ = -1;
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
        bool stopped = false;
        for (const Pending &p : due) {
            if (stopped) {
                model_.push_back(p);
                continue;
            }
            expected.push_back(p.id);
            if (p.id == stop_id) {
                stopped = true;
                EXPECT_EQ(eq.now(), p.when) << "stopped at " << p.id;
            }
        }
    }

    std::size_t pending() const { return model_.size(); }
    bool
    pendingIsLane(std::size_t k) const
    {
        return model_[k].bound != nullptr && model_[k].bound->lane;
    }
    Tick pendingWhen(std::size_t k) const { return model_[k].when; }
    int pendingId(std::size_t k) const { return model_[k].id; }

    /** Model index of the first-firing pending event (the front run's
     *  head), or with @p tail the last one at that tick (its tail). */
    std::size_t
    frontIndex(bool tail) const
    {
        std::size_t best = 0;
        for (std::size_t k = 1; k < model_.size(); ++k) {
            const Pending &p = model_[k];
            const Pending &b = model_[best];
            if (p.when < b.when ||
                (p.when == b.when && (tail ? p.seq > b.seq : p.seq < b.seq)))
                best = k;
        }
        return best;
    }

    EventQueue eq;
    std::vector<int> fired;
    std::vector<int> expected;
    /** Probes whose earliest pending event was a lane, which they had
     *  to refuse to advance to. */
    int lane_refusals = 0;
    int probe_advances = 0; ///< Probes granted the tick before it.

  private:
    /** A reusable bound event that fires as its latest id. */
    struct Bound {
        Bound(Differential *d, Event::Order order)
            : owner(d), ev(memberEvent<&Bound::fire>(this, order)),
              lane(order == Event::Order::kLane)
        {
        }

        void fire() { owner->fire(id, false); }

        Differential *owner;
        Event ev;
        const bool lane;
        int id = -1;
    };

    struct Pending {
        Tick when;
        std::uint64_t seq; ///< Global schedule order (tie-break).
        int id;
        leaky::sim::EventHandle handle;
        Bound *bound = nullptr; ///< Set for a bound event.
    };

    /** Model index of pending event @p id; a test bug aborts. */
    std::size_t
    indexOf(int id) const
    {
        for (std::size_t k = 0; k < model_.size(); ++k) {
            if (model_[k].id == id)
                return k;
        }
        ADD_FAILURE() << "event " << id << " not pending";
        std::abort();
    }

    /** Check advanceIfNext() from inside probe @p id's callback against
     *  the model: the earliest event still pending bars its own tick,
     *  and the tick before it is granted within the run's limit. */
    void
    probe(int id)
    {
        const Pending *next = nullptr;
        for (const Pending &p : model_) {
            const auto k = static_cast<std::size_t>(p.id);
            if (k < done_.size() && done_[k])
                continue;
            if (next == nullptr || p.when < next->when ||
                (p.when == next->when && p.seq < next->seq))
                next = &p;
        }
        if (next == nullptr)
            return;
        EXPECT_FALSE(eq.advanceIfNext(next->when)) << "probe " << id;
        if (next->bound != nullptr && next->bound->lane)
            lane_refusals += 1;
        const Tick before = next->when - 1;
        if (next->when > eq.now()) {
            const bool granted = !stopped_ && before <= limit_;
            EXPECT_EQ(eq.advanceIfNext(before), granted) << "probe " << id;
            probe_advances += granted;
        }
    }

    void
    fire(int id, bool spawn)
    {
        fired.push_back(id);
        if (static_cast<std::size_t>(id) >= done_.size())
            done_.resize(static_cast<std::size_t>(id) + 1, false);
        done_[static_cast<std::size_t>(id)] = true;
        if (id == stop_id_) {
            eq.stop();
            stopped_ = true;
        }
        // The child joins the model mid-run; it fires inside the same
        // runUntil() slice, after every pending event of this tick.
        if (spawn)
            add(eq.now());
    }

    std::vector<Pending> model_;
    std::vector<std::unique_ptr<Bound>> bound_;
    std::vector<bool> done_; ///< By id: fired.
    std::uint64_t seq_ = 0;
    int next_id_ = 0;
    int stop_id_ = -1; ///< Pending event that calls stop() (-1: none).
    Tick limit_ = 0;       ///< The running runUntil()'s limit.
    bool stopped_ = false; ///< A callback of this run called stop().
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

TEST(EventQueueProperty, FrontRunTrafficMatchesReferenceOrder)
{
    // The front slot's paths: new runs that undercut the earliest
    // pending run (displacing it into the heap), appends at the front
    // run's own tick, cancels of its head and of its tail, and
    // runUntil() limits just before, on and just after it.
    std::uint64_t front_runs = 0;
    std::uint64_t run_appends = 0;
    for (const std::uint64_t seed : {10u, 11u, 12u}) {
        leaky::sim::Rng rng(seed);
        Differential d;
        for (int step = 0; step < 3000; ++step) {
            const Tick now = d.eq.now();
            if (d.pending() == 0) {
                d.add(now + rng.below(1000));
                continue;
            }
            const Tick front = d.pendingWhen(d.frontIndex(false));
            const bool spawn = rng.below(4) == 0;
            const std::uint64_t op = rng.below(100);
            if (op < 30) {
                d.add(front > now ? now + rng.below(front - now) : front,
                      spawn);
            } else if (op < 50) {
                d.add(front, spawn);
            } else if (op < 62) {
                d.add(front + 1 + rng.below(300), spawn);
            } else if (op < 72) {
                d.cancelAt(d.frontIndex(false));
            } else if (op < 80) {
                d.cancelAt(d.frontIndex(true));
            } else {
                const Tick limit = front + rng.below(3);
                d.runUntil(limit > now + 1 ? limit - 1 : now);
                ASSERT_EQ(d.fired, d.expected) << "seed " << seed
                                               << " step " << step;
            }
        }
        d.runUntil(kTickMax);
        ASSERT_EQ(d.fired, d.expected) << "seed " << seed;
        EXPECT_TRUE(d.eq.empty());
        front_runs += d.eq.kernelStats().front_runs;
        run_appends += d.eq.kernelStats().run_appends;
    }
    EXPECT_GT(front_runs, 1000u);
    EXPECT_GT(run_appends, 1000u);
}

TEST(EventQueueProperty, StopsAtRandomEventsResumeInReferenceOrder)
{
    // A randomized schedule split at random stop points: each stopping
    // run ends at a pending event (often one of a same-tick run, with
    // spawners adding children at its tick) and the next run resumes
    // in exactly the reference order.
    std::uint64_t stops = 0;
    for (const std::uint64_t seed : {13u, 14u, 15u}) {
        leaky::sim::Rng rng(seed);
        Differential d;
        for (int step = 0; step < 2000; ++step) {
            const std::uint64_t op = rng.below(100);
            if (op < 50 || d.pending() == 0) {
                const int burst = 1 + static_cast<int>(rng.below(6));
                const Tick span = rng.below(2) == 0 ? 4 : 400;
                for (int b = 0; b < burst; ++b)
                    d.add(d.eq.now() + rng.below(span),
                          rng.below(4) == 0);
            } else if (op < 60) {
                d.cancelAt(rng.below(d.pending()));
            } else if (op < 90) {
                const std::size_t k = rng.below(d.pending());
                const Tick when = d.pendingWhen(k);
                d.runUntil(when + rng.below(64), d.pendingId(k));
                ASSERT_EQ(d.fired, d.expected) << "seed " << seed
                                               << " step " << step;
                ASSERT_EQ(d.eq.now(), when);
                stops += 1;
            } else {
                const std::size_t k = rng.below(d.pending());
                d.runUntil(d.pendingWhen(k) + rng.below(64));
                ASSERT_EQ(d.fired, d.expected) << "seed " << seed
                                               << " step " << step;
            }
        }
        d.runUntil(kTickMax);
        ASSERT_EQ(d.fired, d.expected) << "seed " << seed;
        EXPECT_TRUE(d.eq.empty());
    }
    EXPECT_GT(stops, 1000u);
}

TEST(EventQueueProperty, LanesMatchReferenceOrder)
{
    // Bound events, a random half of them lanes, among one-shots and
    // probes: lanes scheduled at a pending run's tick (after it) and
    // runs at a pending lane's tick (after it), pending lanes moved
    // earlier and later, cancelled, pending across stop() and resumed,
    // and probes that must refuse to advance past an earlier lane.
    int lane_after_run = 0, run_after_lane = 0, moves = 0, lane_cancels = 0;
    int lane_refusals = 0, probe_advances = 0;
    std::uint64_t lane_events = 0;
    for (const std::uint64_t seed : {16u, 17u, 18u}) {
        leaky::sim::Rng rng(seed);
        Differential d;
        d.addBound(12, rng);
        for (int step = 0; step < 6000; ++step) {
            const Tick now = d.eq.now();
            const std::uint64_t op = rng.below(100);
            const std::size_t b = rng.below(d.boundCount());
            if (op < 20 || d.pending() == 0) {
                const Tick span = rng.below(2) == 0 ? 6 : 300;
                d.add(now + rng.below(span), rng.below(6) == 0);
            } else if (op < 27) {
                d.addProbe(now + rng.below(200));
            } else if (op < 47) {
                // Tie a bound event to a pending event's tick; it
                // draws the newer seq, so it fires after it.
                const std::size_t k = rng.below(d.pending());
                if (d.boundPending(b) && d.boundIndex(b) == k)
                    continue;
                const Tick at = d.pendingWhen(k);
                if (d.boundLane(b) && !d.pendingIsLane(k))
                    lane_after_run += 1;
                moves += d.boundPending(b);
                d.scheduleBound(b, at);
            } else if (op < 57) {
                // A one-shot at a pending lane's tick, after the lane.
                for (std::size_t k = 0; k < d.pending(); ++k) {
                    if (d.pendingIsLane(k)) {
                        d.add(d.pendingWhen(k));
                        run_after_lane += 1;
                        break;
                    }
                }
            } else if (op < 67) {
                // Move (or arm) a bound event earlier or later.
                const Tick at = d.boundPending(b)
                                    ? d.pendingWhen(d.boundIndex(b))
                                    : now + 100;
                const Tick lo = at > now + 50 ? at - 50 : now;
                moves += d.boundPending(b);
                d.scheduleBound(b, lo + rng.below(100));
            } else if (op < 75) {
                if (d.boundPending(b)) {
                    lane_cancels += d.boundLane(b);
                    d.cancelAt(d.boundIndex(b));
                } else {
                    d.cancelAt(rng.below(d.pending()));
                }
            } else if (op < 88) {
                const std::size_t k = rng.below(d.pending());
                const Tick when = d.pendingWhen(k);
                d.runUntil(when + rng.below(64), d.pendingId(k));
                ASSERT_EQ(d.fired, d.expected) << "seed " << seed
                                               << " step " << step;
                ASSERT_EQ(d.eq.now(), when);
            } else {
                const std::size_t k = rng.below(d.pending());
                d.runUntil(d.pendingWhen(k) + rng.below(64));
                ASSERT_EQ(d.fired, d.expected) << "seed " << seed
                                               << " step " << step;
            }
        }
        d.runUntil(kTickMax);
        ASSERT_EQ(d.fired, d.expected) << "seed " << seed;
        EXPECT_TRUE(d.eq.empty());
        lane_refusals += d.lane_refusals;
        probe_advances += d.probe_advances;
        lane_events += d.eq.kernelStats().lane_events;
    }
    EXPECT_GT(lane_after_run, 400);
    EXPECT_GT(run_after_lane, 200);
    EXPECT_GT(moves, 200);
    EXPECT_GT(lane_cancels, 20);
    EXPECT_GT(lane_refusals, 50);
    EXPECT_GT(probe_advances, 200);
    EXPECT_GT(lane_events, 700u);
}

TEST(EventQueue, AdvanceIfNextRefusesWhenALaneIsEarlier)
{
    EventQueue eq;
    SelfTicker lane(eq, Event::Order::kLane);
    lane.limit = 1;
    std::vector<bool> got;
    eq.schedule(300, [] {});
    eq.schedule(lane.ev, 150);
    eq.schedule(100, [&] {
        got.push_back(eq.advanceIfNext(150)); // The lane's own tick.
        got.push_back(eq.advanceIfNext(200)); // Past the lane.
        got.push_back(eq.advanceIfNext(149));
    });
    eq.run();
    EXPECT_EQ(got, (std::vector<bool>{false, false, true}));
    EXPECT_EQ(lane.ticks, 1);
    EXPECT_EQ(lane.last_at, 150u);
}

TEST(EventQueue, DestroyedPendingLanesLeaveNothingDangling)
{
    // Heap-allocated, so a link the queue kept to a destroyed lane is
    // a use-after-free the sanitizer builds report.
    EventQueue eq;
    std::vector<std::unique_ptr<SelfTicker>> lanes;
    for (int i = 0; i < 6; ++i) {
        lanes.push_back(
            std::make_unique<SelfTicker>(eq, Event::Order::kLane));
        lanes.back()->limit = 2;
        eq.schedule(lanes.back()->ev, 10 + 5 * static_cast<Tick>(i));
    }
    int fired = 0;
    eq.schedule(12, [&fired] { fired += 1; });
    // The earliest lane, a middle one and the list's newest (head).
    for (std::size_t i : {0u, 3u, 5u})
        lanes[i].reset();
    EXPECT_EQ(eq.size(), 4u);
    EXPECT_EQ(eq.nextEventTick(), 12u);
    eq.run();
    EXPECT_EQ(fired, 1);
    for (std::size_t i : {1u, 2u, 4u})
        EXPECT_EQ(lanes[i]->ticks, 2);
    EXPECT_EQ(lanes[4]->last_at, 40u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.kernelStats().lane_events, 6u + 3u);
}

TEST(EventQueue, DestroyedQueueLeavesItsPendingLanesIdle)
{
    auto eq = std::make_unique<EventQueue>();
    std::vector<std::unique_ptr<SelfTicker>> lanes;
    for (int i = 0; i < 3; ++i) {
        lanes.push_back(
            std::make_unique<SelfTicker>(*eq, Event::Order::kLane));
        eq->schedule(lanes.back()->ev, 10 * static_cast<Tick>(i + 1));
    }
    SelfTicker run(*eq);
    eq->schedule(run.ev, 15);
    eq.reset();
    for (const auto &l : lanes)
        EXPECT_FALSE(l->ev.scheduled());
    EXPECT_FALSE(run.ev.scheduled());
    lanes.clear(); // Their destructors must not reach the dead queue.
}

TEST(EventQueue, AdvanceIfNextRefusesOutsideARun)
{
    EventQueue eq;
    EXPECT_FALSE(eq.advanceIfNext(0));
    EXPECT_FALSE(eq.advanceIfNext(10));
    // step() runs exactly one callback: no in-place advance inside it.
    bool advanced = true;
    eq.schedule(5, [&] { advanced = eq.advanceIfNext(6); });
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(advanced);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_EQ(eq.kernelStats().events_run, 1u);
}

TEST(EventQueue, AdvanceIfNextStaysBeforePendingEventsAndTheLimit)
{
    EventQueue eq;
    std::vector<bool> got;
    eq.schedule(200, [] {});
    eq.schedule(100, [&] {
        got.push_back(eq.advanceIfNext(200)); // Same tick pending.
        got.push_back(eq.advanceIfNext(250)); // Earlier one pending.
        got.push_back(eq.advanceIfNext(150));
        got.push_back(eq.now() == 150);
        got.push_back(eq.advanceIfNext(181)); // Past the limit.
        got.push_back(eq.advanceIfNext(180)); // The limit itself.
        got.push_back(eq.now() == 180);
    });
    eq.runUntil(180);
    EXPECT_EQ(got, (std::vector<bool>{false, false, true, true, false,
                                      true, true}));
    EXPECT_EQ(eq.now(), 180u);
    EXPECT_EQ(eq.size(), 1u);
    // One callback plus two in-place advances.
    EXPECT_EQ(eq.kernelStats().events_run, 3u);

    // Under run() the horizon is open, but kTickMax never qualifies.
    got.clear();
    eq.schedule(190, [&] {
        got.push_back(eq.advanceIfNext(190)); // Now, 200 still pending.
        got.push_back(eq.advanceIfNext(199));
    });
    eq.schedule(200, [&] {
        got.push_back(eq.advanceIfNext(kTickMax));
        got.push_back(eq.advanceIfNext(1'000'000)); // Queue empty.
    });
    eq.run();
    EXPECT_EQ(got, (std::vector<bool>{true, true, false, true}));
    EXPECT_EQ(eq.now(), 1'000'000u);
    // Three more callbacks (both tick-200 events) and three advances.
    EXPECT_EQ(eq.kernelStats().events_run, 3u + 6u);
}

TEST(EventQueue, AdvanceIfNextKeepsScheduleOrderOfLaterEvents)
{
    // A self-clocked component that advances in place fires its other
    // events at exactly the ticks and in the order a scheduled wake
    // would have: the clock never passes a pending event.
    EventQueue eq;
    std::vector<std::pair<int, Tick>> log;
    eq.schedule(35, [&] { log.push_back({2, eq.now()}); });
    eq.schedule(10, [&] {
        for (Tick t = 20; t <= 50; t += 10) {
            log.push_back({1, eq.now()});
            if (!eq.advanceIfNext(t)) {
                eq.schedule(t, [&] { log.push_back({3, eq.now()}); });
                return;
            }
        }
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<std::pair<int, Tick>>{
                       {1, 10}, {1, 20}, {1, 30}, {2, 35}, {3, 40}}));
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
