/**
 * @file
 * Discrete-event simulation kernel. Components schedule callbacks at
 * absolute ticks; the queue executes them in (tick, insertion-order)
 * order so simulations are fully deterministic.
 *
 * The kernel is intrusive and slab-allocated: every scheduled occurrence
 * lives in a pooled Record (chunked slab, free-list reuse) identified by
 * a generation-counted handle. Steady-state scheduling performs no heap
 * allocation:
 *
 *  - reusable, member-bound Events (see sim::Event) carry only an
 *    object pointer and a function-pointer thunk;
 *  - one-shot callables are stored in a small-buffer SmallFn; only
 *    captures larger than SmallFn::kInlineBytes spill to the heap
 *    (counted in KernelStats::one_shot_spills);
 *  - cancellation unlinks the record eagerly and bumps its generation,
 *    so stale handles are rejected without a lookup.
 *
 * Ordering is one binary min-heap of *runs*. A run is a FIFO of
 * same-tick records in schedule (seq) order, linked through the
 * records; only run heads sit in the heap, keyed by (tick, seq). A
 * small table caches the tail of the newest run per tick (indexed by
 * the tick's low bits), and a schedule whose tick matches the cached
 * tail appends to that run instead of sifting. Because appends only go
 * to a tick's newest run, the runs of one tick hold disjoint seq
 * ranges, so a popped or cancelled head's successor takes over the
 * head's heap slot in place. The resulting fire order is the exact
 * global (tick, seq) order. See docs/ARCHITECTURE.md ("Run heap: event
 * ordering") for the invariant argument.
 */

#ifndef LEAKY_SIM_EVENT_QUEUE_HH
#define LEAKY_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/tick.hh"

namespace leaky::sim {

/** Identifier of one scheduled occurrence, usable for cancellation.
 *  Encodes (slot generation << 32) | (slot index + 1). */
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
        // inside noexcept moves (and slab growth); a throwing-move
        // payload goes to the heap cell, whose relocation only copies
        // a pointer.
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
 * timers). Scheduling a bound Event never allocates: the kernel stores
 * only the (context, thunk) pair. An Event may be scheduled at most
 * once at a time; use EventQueue::reschedule to move a pending one.
 *
 * Events must not outlive the queue they are scheduled on.
 */
class Event
{
  public:
    using Fn = void (*)(void *ctx);

    Event() = default;
    Event(void *ctx, Fn fn) : ctx_(ctx), fn_(fn) {}
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

    bool scheduled() const { return handle_ != kNoEvent; }

    /** Tick of the pending occurrence (valid only while scheduled()). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    void *ctx_ = nullptr;
    Fn fn_ = nullptr;
    EventQueue *queue_ = nullptr;
    EventHandle handle_ = kNoEvent;
    Tick when_ = 0;
};

/** Build an Event bound to a member function of @p obj, e.g.
 *  `memberEvent<&MemoryController::tick>(this)`. */
template <auto Method, typename T>
Event
memberEvent(T *obj)
{
    return Event(obj, [](void *ctx) { (static_cast<T *>(ctx)->*Method)(); });
}

/**
 * Deterministic discrete-event queue.
 *
 * Events with equal ticks run in schedule order. Cancellation unlinks
 * the record at once and bumps the slot's generation.
 */
class EventQueue
{
  public:
    /** Kernel health/perf counters (all monotonic). */
    struct KernelStats {
        std::uint64_t events_run = 0;      ///< Callbacks executed.
        std::uint64_t one_shot_spills = 0; ///< Captures too big for SBO.
        std::uint64_t pool_chunks = 0;     ///< Slab chunks allocated.
        std::uint64_t heap_events = 0;     ///< Every schedule.
        std::uint64_t run_appends = 0;     ///< Joined a same-tick run.
        // Always 0: the end-to-end benchmark still reads these two
        // names; its next revision drops them.
        std::uint64_t wheel_events = 0;
        std::uint64_t wheel_cascades = 0;
    };

    EventQueue() = default;
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
        const std::uint32_t idx = claimSlot();
        Record &r = record(idx);
        // Store the callable before the slot is published on the heap:
        // if construction throws (e.g. bad_alloc on a spilled capture),
        // no live-but-empty record must be reachable.
        try {
            if (!fn_slab_[idx].emplace(std::forward<F>(fn)))
                stats_.one_shot_spills += 1;
        } catch (...) {
            abortClaim(idx);
            throw;
        }
        r.has_fn = true;
        commitSlot(idx, when);
        return makeHandle(idx, r.gen);
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
     * stale handles (already executed, cancelled, or slot reused).
     */
    bool cancel(EventHandle handle);

    /** Run a single event. @return false if the queue was empty. */
    bool step();

    /** Run until empty or until @p limit is reached (inclusive). */
    void runUntil(Tick limit);

    /** Run until the queue is empty. */
    void run() { runUntil(kTickMax); }

    /** Tick of the next live event, or kTickMax when empty. */
    Tick
    nextEventTick() const
    {
        return heap_.empty() ? kTickMax : heap_.front().when;
    }

    const KernelStats &kernelStats() const { return stats_; }

    /** Total slots in the slab (grows in chunks, never shrinks). */
    std::size_t poolCapacity() const { return slab_.size(); }

  private:
    static constexpr std::uint32_t kChunkSize = 256; ///< Pool growth step.
    static constexpr std::uint32_t kNoFreeSlot = ~std::uint32_t{0};
    /** next_free value marking a live (allocated) record. */
    static constexpr std::uint32_t kLiveMark = kNoFreeSlot - 1;
    /** Size of the newest-run tail table (a power of two). Collisions
     *  only open extra runs, so it affects speed, never order. */
    static constexpr std::uint32_t kTailSlots = 256;

    /**
     * One pooled occurrence: its ordering keys, its links within its
     * same-tick run and, for a run head, its heap position.
     *
     * The record is exactly one cache line; a one-shot's SmallFn
     * payload lives in the parallel fn_slab_ (same index) and is only
     * touched when has_fn says so, so a member-bound event's whole
     * schedule/cancel/run cycle stays within this line.
     */
    struct alignas(64) Record {
        std::uint32_t gen = 1;  ///< Bumped on free; validates handles.
        std::uint32_t next_free = kNoFreeSlot;
        Tick when = 0;
        std::uint64_t seq = 0;  ///< Global schedule order (tie-break).
        std::uint32_t run_prev = kNoFreeSlot; ///< Same-tick run links.
        std::uint32_t run_next = kNoFreeSlot;
        std::uint32_t heap_pos = kNoFreeSlot; ///< Set for run heads only.
        bool has_fn = false;    ///< fn_slab_[idx] holds a payload.
        Event *bound = nullptr; ///< Non-null for member-bound events.
    };
    static_assert(sizeof(Record) == 64, "Record must stay one line");

    /** A run head's heap entry. The keys are copied here so sift
     *  compares never read the records. */
    struct HeapEntry {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx;

        bool
        before(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    Record &record(std::uint32_t idx) { return slab_[idx]; }
    const Record &record(std::uint32_t idx) const { return slab_[idx]; }

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

    /** Pop a free slot off the free list (growing the pool first if
     *  needed) and mark it live. It is not yet ordered. */
    std::uint32_t claimSlot();

    /** Publish a claimed slot at @p when: append it to the tick's
     *  newest run, or open a new run in the heap. */
    void commitSlot(std::uint32_t idx, Tick when);

    /** Return a claimed-but-unpublished slot to the free list. */
    void abortClaim(std::uint32_t idx);

    /** Release a slot: destroy payload, bump generation, link free. */
    void freeSlot(std::uint32_t idx);

    void growPool();

    static constexpr std::array<std::uint32_t, kTailSlots>
    emptyTails()
    {
        std::array<std::uint32_t, kTailSlots> t{};
        for (std::uint32_t &v : t)
            v = kNoFreeSlot;
        return t;
    }

    /** Remove live record @p idx from its run, the heap and the tail
     *  table. A head's successor inherits its heap slot in place. */
    void unlink(std::uint32_t idx);

    /** Move @p e up from @p hole to its place, tracking heap_pos. */
    void siftUp(std::size_t hole, const HeapEntry &e);
    /** Move @p e down from @p hole to its place, tracking heap_pos. */
    void siftDown(std::size_t hole, const HeapEntry &e);
    /** Store @p e at heap index @p pos and record the position. */
    void
    place(std::size_t pos, const HeapEntry &e)
    {
        heap_[pos] = e;
        record(e.idx).heap_pos = static_cast<std::uint32_t>(pos);
    }

    /** Execute record @p idx (slot is freed before invocation so the
     *  callback can reschedule the same bound event). */
    void runRecord(std::uint32_t idx);
    /** Run the earliest event if its tick is <= @p limit.
     *  @return false when nothing ran. */
    bool runNext(Tick limit);

    Tick now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::size_t live_ = 0;
    std::uint32_t free_head_ = kNoFreeSlot;
    /**
     * Record pool. Indexed by handle, so it may reallocate on growth
     * (records are movable); a chunk-sized reserve at a time keeps that
     * rare and steady-state scheduling allocation-free.
     */
    std::vector<Record> slab_;
    /** One-shot payloads, parallel to slab_ (same index). Kept out of
     *  Record so bound events never touch these lines (see Record). */
    std::vector<SmallFn> fn_slab_;
    /** Run heads, a binary min-heap by (when, seq). */
    std::vector<HeapEntry> heap_;
    /** Tail of the newest run of each tick, at [when % kTailSlots]. */
    std::array<std::uint32_t, kTailSlots> tails_ = emptyTails();
    KernelStats stats_;
};

inline Event::~Event()
{
    if (queue_ && handle_ != kNoEvent)
        queue_->deschedule(*this);
}

} // namespace leaky::sim

#endif // LEAKY_SIM_EVENT_QUEUE_HH
