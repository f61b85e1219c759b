/**
 * @file
 * Discrete-event simulation kernel. Components schedule callbacks at
 * absolute ticks; the queue executes them in (tick, insertion-order)
 * order so simulations are fully deterministic.
 *
 * The kernel is intrusive: every scheduled occurrence is an Event that
 * carries its own queue record -- its (tick, seq) key, its links within
 * its same-tick run and, for a run head, its heap position. Steady-state
 * scheduling performs no heap allocation:
 *
 *  - a reusable, member-bound Event (see sim::Event) is its own record,
 *    so scheduling, firing, rescheduling or cancelling it claims and
 *    frees nothing;
 *  - a one-shot callable lives in a pooled cell (chunked, never moved,
 *    free-list reuse) that holds an Event plus a small-buffer SmallFn;
 *    only captures larger than SmallFn::kInlineBytes spill to the heap
 *    (counted in KernelStats::one_shot_spills). One-shots are named by
 *    generation-counted handles, so stale handles are rejected without
 *    a lookup;
 *  - cancellation unlinks the event eagerly.
 *
 * Ordering is one binary min-heap of *runs*. A run is a FIFO of
 * same-tick events in schedule (seq) order, linked through the
 * events; only run heads sit in the heap, keyed by (tick, seq). A
 * small table caches the tail of the newest run per tick (indexed by
 * the tick's low bits), and a schedule whose tick matches the cached
 * tail appends to that run instead of sifting. Because appends only go
 * to a tick's newest run, the runs of one tick hold disjoint seq
 * ranges, so a popped or cancelled head's successor takes over the
 * head's heap slot in place. The resulting fire order is the exact
 * global (tick, seq) order.
 *
 * A front slot outside the heap holds the earliest run when it was
 * opened strictly before every other pending run -- the common case
 * of a simulation that schedules its next step, which then fires
 * first. Opening, popping and cancelling the front run take no sift;
 * a run it displaces moves into the heap.
 *
 * A bound event built as a *lane* (Event::Order::kLane) never enters
 * the heap, the front slot or the tail table: while pending it sits in
 * a short list of pending lanes, and the queue caches the earliest
 * lane's key. Scheduling, moving or cancelling a lane sets its key and
 * list links only. The next event is the earlier, by (tick, seq), of
 * the earliest run head and the earliest lane; each is the minimum of
 * its own set, so the fire order is still the exact global one. See
 * docs/ARCHITECTURE.md ("Run heap: event ordering") for the invariant
 * argument.
 */

#ifndef LEAKY_SIM_EVENT_QUEUE_HH
#define LEAKY_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/tick.hh"

namespace leaky::sim {

/** Identifier of one scheduled occurrence, usable for cancellation.
 *  Encodes (cell generation << 32) | (cell index + 1). */
using EventHandle = std::uint64_t;

/** Sentinel handle meaning "no event". */
inline constexpr EventHandle kNoEvent = 0;

class EventQueue;

/**
 * Type-erased move-only callable with a small inline buffer. Callables
 * up to kInlineBytes are stored in place (no heap allocation); larger
 * ones spill to a single heap cell.
 */
class SmallFn
{
  public:
    static constexpr std::size_t kInlineBytes = 48;

    SmallFn() = default;
    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    SmallFn(SmallFn &&other) noexcept { moveFrom(other); }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    ~SmallFn() { reset(); }

    /** Store @p fn. @return true when it fit the inline buffer. */
    template <typename F>
    bool
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &>,
                      "SmallFn payload must be callable with no args");
        reset();
        // Inline storage requires a nothrow move: relocation happens
        // inside noexcept moves; a throwing-move payload goes to the
        // heap cell, whose relocation only copies a pointer.
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            ops_ = &kInlineOps<Fn>;
            return true;
        } else {
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(fn)));
            ops_ = &kHeapOps<Fn>;
            return false;
        }
    }

    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src); ///< Move + destroy src.
        void (*destroy)(void *);
    };

    template <typename Fn> static const Ops kInlineOps;
    template <typename Fn> static const Ops kHeapOps;

    void
    moveFrom(SmallFn &other)
    {
        ops_ = other.ops_;
        if (ops_)
            ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

template <typename Fn>
const SmallFn::Ops SmallFn::kInlineOps = {
    [](void *p) { (*static_cast<Fn *>(p))(); },
    [](void *dst, void *src) {
        ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
        static_cast<Fn *>(src)->~Fn();
    },
    [](void *p) { static_cast<Fn *>(p)->~Fn(); },
};

template <typename Fn>
const SmallFn::Ops SmallFn::kHeapOps = {
    [](void *p) { (**static_cast<Fn **>(p))(); },
    [](void *dst, void *src) {
        ::new (dst) Fn *(*static_cast<Fn **>(src));
    },
    [](void *p) { delete *static_cast<Fn **>(p); },
};

/**
 * A reusable, member-bound event: one object a component owns for its
 * lifetime and schedules over and over (self-clock ticks, deadlines,
 * timers). The Event is its own queue record, so scheduling, firing,
 * rescheduling or cancelling it never allocates and claims no pooled
 * slot. An Event may be scheduled at most once at a time; use
 * EventQueue::reschedule to move a pending one. It cannot be copied or
 * moved: the queue links pending Events by address.
 *
 * An Event built with Order::kLane is a *lane* (see the file comment):
 * same fire order, but moving or cancelling it takes no sift. It suits
 * the one event of a component that moves on nearly every use (the
 * memory controller's wake-up). Keep lanes few: cancelling the
 * earliest one rescans the others.
 *
 * Destroying a pending Event deschedules it; destroying a queue first
 * leaves its pending Events unscheduled.
 */
class Event
{
  public:
    using Fn = void (*)(void *ctx);

    /** How the queue orders the pending Event; fixed at construction. */
    enum class Order : std::uint8_t {
        kRun,  ///< In a same-tick run of the run heap.
        kLane, ///< In the queue's list of pending lanes.
    };

    Event() = default;
    Event(void *ctx, Fn fn, Order order = Order::kRun)
        : ctx_(ctx), fn_(fn), lane_(order == Order::kLane)
    {
    }
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    inline ~Event(); ///< Deschedules itself if still pending.

    /** (Re)bind the callback; only valid while not scheduled. */
    void
    bind(void *ctx, Fn fn)
    {
        ctx_ = ctx;
        fn_ = fn;
    }

    bool scheduled() const { return queue_ != nullptr; }

    /** Tick of the pending occurrence (valid only while scheduled()). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    void *ctx_ = nullptr;
    Fn fn_ = nullptr;
    /** The queue this Event is pending on; null while not scheduled. */
    EventQueue *queue_ = nullptr;
    // The queue record, valid while scheduled: the ordering keys, the
    // links within its same-tick run (a lane's: within the list of
    // pending lanes) and, for a run head, its heap position
    // (EventQueue::kFrontPos for the front run's head,
    // EventQueue::kInRun behind a head; unused by a lane).
    Tick when_ = 0;
    std::uint64_t seq_ = 0; ///< Global schedule order (tie-break).
    Event *run_prev_ = nullptr;
    Event *run_next_ = nullptr;
    std::uint32_t heap_pos_ = 0;
    const bool lane_ = false;
};

/** Build an Event bound to a member function of @p obj, e.g.
 *  `memberEvent<&MemoryController::tick>(this, Event::Order::kLane)`. */
template <auto Method, typename T>
Event
memberEvent(T *obj, Event::Order order = Event::Order::kRun)
{
    return Event(
        obj, [](void *ctx) { (static_cast<T *>(ctx)->*Method)(); }, order);
}

/**
 * Deterministic discrete-event queue.
 *
 * Events with equal ticks run in schedule order. Cancellation unlinks
 * the event at once; a cancelled one-shot's cell also bumps its
 * generation.
 */
class EventQueue
{
  public:
    /** Kernel health/perf counters (all monotonic). */
    struct KernelStats {
        /** Callbacks executed, plus in-place advances (advanceIfNext). */
        std::uint64_t events_run = 0;
        std::uint64_t one_shot_spills = 0; ///< Captures too big for SBO.
        std::uint64_t pool_chunks = 0;     ///< One-shot cell chunks.
        std::uint64_t heap_events = 0;     ///< Every schedule.
        /** Schedules of lane events (also counted in heap_events). */
        std::uint64_t lane_events = 0;
        std::uint64_t run_appends = 0;     ///< Joined a same-tick run.
        /** Opened a run strictly before every pending one (took the
         *  front slot). */
        std::uint64_t front_runs = 0;
        // Always 0: the end-to-end benchmark still reads these two
        // names; its next revision drops them.
        std::uint64_t wheel_events = 0;
        std::uint64_t wheel_cascades = 0;
    };

    /** Reserves the run heap's first chunk, so a queue of bound events
     *  alone sifts with no allocation until it holds kChunkSize runs. */
    EventQueue() { heap_.reserve(kChunkSize); }
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled, unexecuted) events. */
    std::size_t size() const { return live_; }

    /**
     * Schedule @p fn to run at absolute time @p when (>= now()).
     * @return handle for cancel().
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn)
    {
        static_assert(std::is_invocable_v<std::decay_t<F> &>,
                      "event callback must be invocable with no args");
        checkFuture(when);
        Cell &c = claimCell();
        // Store the callable before the cell is published: if
        // construction throws (e.g. bad_alloc on a spilled capture), no
        // pending-but-empty cell must be reachable. The cell's
        // generation never escaped, so giving it back needs no bump.
        try {
            if (!c.fn.emplace(std::forward<F>(fn)))
                stats_.one_shot_spills += 1;
        } catch (...) {
            c.next_free = free_;
            free_ = &c;
            throw;
        }
        c.ev.queue_ = this;
        commit(c.ev, when);
        return makeHandle(c.idx, c.gen);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleAfter(Tick delay, F &&fn)
    {
        return schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Schedule a bound event at @p when. It must not be pending. */
    void schedule(Event &ev, Tick when);

    /** Schedule a bound event @p delay ticks from now. */
    void scheduleAfter(Event &ev, Tick delay) { schedule(ev, now_ + delay); }

    /** Move a bound event to @p when, whether or not it is pending. */
    void reschedule(Event &ev, Tick when);

    /** Cancel a pending bound event. @return true if it was pending. */
    bool deschedule(Event &ev);

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was live and is now cancelled; false for
     * stale handles (already executed, cancelled, or cell reused).
     */
    bool cancel(EventHandle handle);

    /** Run a single event. @return false if the queue was empty. */
    bool step();

    /** Run until empty, until @p limit is reached (inclusive) or
     *  until a callback calls stop(). Unless stopped, the clock ends
     *  at @p limit. */
    void runUntil(Tick limit);

    /**
     * End the running runUntil() (or run()) once the calling callback
     * returns. The clock stays at that callback's tick instead of
     * moving on to the limit, events still pending at that tick stay
     * queued, and advanceIfNext() refuses for the rest of the
     * callback, so a later runUntil() resumes in the same (tick, seq)
     * order an unbroken run would have kept. A stop() made outside a
     * run ends nothing: every runUntil() starts unstopped.
     */
    void
    stop()
    {
        stopped_ = true;
        horizon_ = 0;
    }

    /** Run until the queue is empty. */
    void run() { runUntil(kTickMax); }

    /**
     * Advance the clock to @p t (>= now()) in place of scheduling a
     * callback there, when that callback would run next anyway: @p t
     * lies strictly before every pending event, lanes included, and
     * within the limit of the running runUntil(). Only callbacks that
     * runUntil() (or run()) invokes can advance; step() and callers
     * outside a run are always refused. An advance counts in
     * KernelStats::events_run.
     * @return true when the clock moved to @p t; the caller then does
     * at once what its callback at @p t would have done.
     *
     * The memory controller calls this at the end of each wake-up and,
     * with @p t == now(), from enqueue() inside an arrival's event
     * (System::dispatch): the wake-up it would schedule at the current
     * tick fires right after the running callback, so it runs there
     * instead. Whatever the running callback does after such an
     * in-place call sees the clock the call left; it must not read the
     * clock or schedule an event.
     */
    bool
    advanceIfNext(Tick t)
    {
        if (t >= horizon_ || t >= nextEventTick())
            return false;
        checkFuture(t);
        now_ = t;
        stats_.events_run += 1;
        return true;
    }

    /** Tick of the next live event, or kTickMax when empty. */
    Tick
    nextEventTick() const
    {
        const Tick run = nextRunTick();
        return lane_.when < run ? lane_.when : run;
    }

    const KernelStats &kernelStats() const { return stats_; }

    /** One-shot cells in the pool (grows in chunks, never shrinks).
     *  Bound events take none. */
    std::size_t
    poolCapacity() const
    {
        return chunks_.size() * kChunkSize;
    }

  private:
    static constexpr std::uint32_t kChunkSize = 256; ///< Pool growth step.
    /** Event::heap_pos_ of an event behind its run's head. */
    static constexpr std::uint32_t kInRun = ~std::uint32_t{0};
    /** Event::heap_pos_ of the run head held in the front slot. */
    static constexpr std::uint32_t kFrontPos = kInRun - 1;
    /** Size of the newest-run tail table (a power of two). Collisions
     *  only open extra runs, so it affects speed, never order. */
    static constexpr std::uint32_t kTailSlots = 256;

    /**
     * A pooled one-shot: an Event bound to runCell() with the cell as
     * its context, plus the callable it runs. Cells live in chunks that
     * never move, so the queue can link their Events by address; the
     * generation, bumped whenever the cell is freed, validates handles.
     */
    struct Cell {
        Event ev;
        SmallFn fn;
        EventQueue *owner = nullptr;
        Cell *next_free = nullptr;
        std::uint32_t idx = 0; ///< Position in the pool (handle index).
        std::uint32_t gen = 1;
    };

    /** A run head's heap entry. The keys are copied here so sift
     *  compares never read the events. */
    struct HeapEntry {
        Tick when;
        std::uint64_t seq;
        Event *ev;

        bool
        before(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    static EventHandle
    makeHandle(std::uint32_t idx, std::uint32_t gen)
    {
        return (static_cast<EventHandle>(gen) << 32) |
               (static_cast<EventHandle>(idx) + 1);
    }

    /** Panic unless @p when is not in the past. Inline so schedulers
     *  pay only a compare on the hot path. */
    void
    checkFuture(Tick when) const
    {
        if (when < now_)
            failPast(when);
    }
    [[noreturn]] void failPast(Tick when) const;

    /** Pop a free cell off the free list, growing the pool first if
     *  needed. It is not yet ordered. */
    Cell &
    claimCell()
    {
        if (free_ == nullptr)
            growPool();
        Cell &c = *free_;
        free_ = c.next_free;
        return c;
    }

    /** Release a cell: destroy its payload, bump its generation, link
     *  it free. */
    void freeCell(Cell &c);

    /** The thunk of every cell's Event: free the cell, then run the
     *  callable it held (so the callable may schedule into it). */
    static void runCell(void *cell);

    void growPool();

    /** Publish pending event @p ev at @p when: append it to the tick's
     *  newest run, or open a new run. */
    void commit(Event &ev, Tick when);

    /** Remove pending event @p ev from its run, the heap or front slot,
     *  and the tail table. A head's successor inherits its heap slot
     *  (or the front slot) in place. Inline (defined in the .cc) so the
     *  per-event pop in runNext() makes no call. */
    inline void unlink(Event &ev);

    /** Open a run at @p e.ev: in the front slot when it precedes every
     *  pending run, else in the heap. */
    void openRun(const HeapEntry &e);

    /** Tick of the earliest run head (lanes aside), or kTickMax. */
    Tick
    nextRunTick() const
    {
        if (front_.ev != nullptr)
            return front_.when;
        return heap_.empty() ? kTickMax : heap_.front().when;
    }

    /** Push pending lane @p ev onto the lane list, keeping lane_. */
    void linkLane(Event &ev);
    /** Remove pending lane @p ev from the lane list; if it was the
     *  earliest, rescan the rest for lane_. */
    void unlinkLane(Event &ev);

    /** Move @p e up from @p hole to its place, tracking heap_pos_. */
    void siftUp(std::size_t hole, const HeapEntry &e);
    /** Move @p e down from @p hole to its place, tracking heap_pos_. */
    void siftDown(std::size_t hole, const HeapEntry &e);
    /** Store @p e at heap index @p pos and record the position. */
    void
    place(std::size_t pos, const HeapEntry &e)
    {
        heap_[pos] = e;
        e.ev->heap_pos_ = static_cast<std::uint32_t>(pos);
    }

    /** Run the earliest event if its tick is <= @p limit.
     *  @return false when nothing ran. */
    bool runNext(Tick limit);

    Tick now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::size_t live_ = 0;
    /** One-shot cell pool, kChunkSize cells per chunk; a handle's index
     *  i names cell i % kChunkSize of chunk i / kChunkSize. */
    std::vector<std::unique_ptr<Cell[]>> chunks_;
    Cell *free_ = nullptr; ///< Free-list head (nullptr: pool full).
    /** Run heads, a binary min-heap by (when, seq). */
    std::vector<HeapEntry> heap_;
    /** An empty slot: later than every real key (seqs never reach
     *  its own), so an empty slot never wins a before() compare. */
    static constexpr HeapEntry kNone{kTickMax, ~std::uint64_t{0}, nullptr};
    /** The front run's head, when one was opened strictly before
     *  every run in heap_ (front_.ev == nullptr: none). Its key is
     *  below every heap entry's, so it always fires first among runs. */
    HeapEntry front_ = kNone;
    /** Pending lanes, linked through Event::run_prev_/run_next_ in no
     *  particular order (nullptr: none). */
    Event *lanes_ = nullptr;
    /** The earliest pending lane's key (kNone: no lane pending). */
    HeapEntry lane_ = kNone;
    /** advanceIfNext() moves the clock only to ticks below this: the
     *  running runUntil()'s limit + 1, or 0 outside a run and after a
     *  stop(). */
    Tick horizon_ = 0;
    bool stopped_ = false; ///< Set by stop(), cleared as runUntil() starts.
    /** Tail of the newest run of each tick, at [when % kTailSlots]; it
     *  only ever names a pending event. */
    std::array<Event *, kTailSlots> tails_{};
    KernelStats stats_;
};

inline Event::~Event()
{
    if (queue_ != nullptr)
        queue_->deschedule(*this);
}

} // namespace leaky::sim

#endif // LEAKY_SIM_EVENT_QUEUE_HH
