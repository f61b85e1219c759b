#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace leaky::sim {

EventQueue::~EventQueue()
{
    // Unbind pending member events so their destructors do not call
    // back into this (already dying) queue.
    for (Record &r : slab_) {
        if (r.next_free == kLiveMark && r.bound) {
            r.bound->handle_ = kNoEvent;
            r.bound->queue_ = nullptr;
        }
    }
    // fn_slab_ destruction runs ~SmallFn on any undelivered one-shots.
}

void
EventQueue::failPast(Tick when) const
{
    panic("scheduling into the past (%llu < %llu)",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now_));
}

std::uint32_t
EventQueue::claimSlot()
{
    if (free_head_ == kNoFreeSlot)
        growPool();
    const std::uint32_t idx = free_head_;
    Record &r = record(idx);
    free_head_ = r.next_free;
    r.next_free = kLiveMark;
    // Free-list invariant: bound == nullptr and has_fn == false already
    // hold (freeSlot/growPool established them), so a claim writes
    // nothing but the list link.
    return idx;
}

void
EventQueue::commitSlot(std::uint32_t idx, Tick when)
{
    Record &r = record(idx);
    r.when = when;
    r.seq = next_seq_++;
    r.run_next = kNoFreeSlot;
    std::uint32_t &tail = tails_[when & (kTailSlots - 1)];
    if (tail != kNoFreeSlot && record(tail).when == when) {
        // The cached tail ends its tick's newest run, and this record
        // carries the highest seq yet, so appending keeps every run of
        // the tick a disjoint seq range.
        Record &t = record(tail);
        LEAKY_DCHECK(t.when == when && t.run_next == kNoFreeSlot,
                     "append to a run of tick %llu at tick %llu",
                     static_cast<unsigned long long>(t.when),
                     static_cast<unsigned long long>(when));
        t.run_next = idx;
        r.run_prev = tail;
        r.heap_pos = kNoFreeSlot;
        stats_.run_appends += 1;
    } else {
        r.run_prev = kNoFreeSlot;
        openRun(HeapEntry{when, r.seq, idx});
    }
    tail = idx;
    stats_.heap_events += 1;
    live_ += 1;
}

void
EventQueue::openRun(const HeapEntry &e)
{
    // Strictly earlier only: a new run at the front run's own tick
    // carries higher seqs, so it must queue behind it in the heap.
    if (e.when < nextEventTick()) {
        if (front_.idx != kNoFreeSlot) {
            heap_.emplace_back();
            siftUp(heap_.size() - 1, front_);
        }
        front_ = e;
        record(e.idx).heap_pos = kFrontPos;
        stats_.front_runs += 1;
        return;
    }
    heap_.emplace_back();
    siftUp(heap_.size() - 1, e);
}

void
EventQueue::abortClaim(std::uint32_t idx)
{
    // The slot was never published; its generation never escaped, so
    // no bump is needed.
    Record &r = record(idx);
    r.next_free = free_head_;
    free_head_ = idx;
}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    Record &r = record(idx);
    if (r.has_fn) {
        fn_slab_[idx].reset();
        r.has_fn = false;
    }
    r.bound = nullptr;
    r.gen += 1;
    r.next_free = free_head_;
    free_head_ = idx;
}

void
EventQueue::growPool()
{
    const std::size_t base = slab_.size();
    LEAKY_ASSERT(base + kChunkSize < kLiveMark, "event pool exhausted");
    slab_.resize(base + kChunkSize);
    fn_slab_.resize(base + kChunkSize);
    // Runs never outnumber live records, nor those the slots, so
    // reserving the heap here keeps steady-state scheduling
    // allocation-free.
    heap_.reserve(slab_.size());
    stats_.pool_chunks += 1;
    // Link the fresh records onto the free list, preserving index order.
    for (std::size_t i = base + kChunkSize; i > base; --i) {
        slab_[i - 1].next_free = free_head_;
        free_head_ = static_cast<std::uint32_t>(i - 1);
    }
}

void
EventQueue::siftUp(std::size_t hole, const HeapEntry &e)
{
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!e.before(heap_[parent]))
            break;
        place(hole, heap_[parent]);
        hole = parent;
    }
    place(hole, e);
}

void
EventQueue::siftDown(std::size_t hole, const HeapEntry &e)
{
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t child = 2 * hole + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_[child + 1].before(heap_[child]))
            child += 1;
        if (!heap_[child].before(e))
            break;
        place(hole, heap_[child]);
        hole = child;
    }
    place(hole, e);
}

inline void
EventQueue::unlink(std::uint32_t idx)
{
    const Record &r = record(idx);
    std::uint32_t &tail = tails_[r.when & (kTailSlots - 1)];
    if (tail == idx)
        tail = r.run_prev; // The run's new tail, or none.
    if (r.heap_pos == kNoFreeSlot) {
        // Inside a run: a plain list unlink. Only heads have no prev.
        record(r.run_prev).run_next = r.run_next;
        if (r.run_next != kNoFreeSlot)
            record(r.run_next).run_prev = r.run_prev;
        return;
    }
    const std::size_t pos = r.heap_pos;
    if (r.run_next != kNoFreeSlot) {
        // The successor's key grows but stays below every run ordered
        // after this head: runs of one tick hold disjoint seq ranges,
        // so a later run of the same tick holds only higher seqs. The
        // successor therefore keeps the slot (heap or front) with no
        // sift.
        Record &n = record(r.run_next);
        n.run_prev = kNoFreeSlot;
        const HeapEntry e{n.when, n.seq, r.run_next};
        if (pos == kFrontPos) {
            LEAKY_DCHECK(heap_.empty() || e.before(heap_.front()),
                         "promoted front successor after the heap top");
            front_ = e;
            n.heap_pos = kFrontPos;
            return;
        }
#ifdef LEAKY_DCHECKS_ENABLED
        for (std::size_t c = 2 * pos + 1; c <= 2 * pos + 2; ++c)
            LEAKY_DCHECK(c >= heap_.size() || !heap_[c].before(e),
                         "promoted run successor after heap child %zu", c);
#endif
        place(pos, e);
        return;
    }
    if (pos == kFrontPos) {
        front_ = kNoFront;
        return;
    }
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return;
    if (pos > 0 && last.before(heap_[(pos - 1) / 2]))
        siftUp(pos, last);
    else
        siftDown(pos, last);
}

bool
EventQueue::cancel(EventHandle handle)
{
    if (handle == kNoEvent)
        return false;
    const std::uint32_t idx =
        static_cast<std::uint32_t>(handle & 0xffffffffu) - 1;
    const std::uint32_t gen = static_cast<std::uint32_t>(handle >> 32);
    if (idx >= slab_.size())
        return false;
    Record &r = record(idx);
    if (r.next_free != kLiveMark || r.gen != gen)
        return false; // Stale: executed, cancelled, or slot reused.
    if (r.bound) {
        r.bound->handle_ = kNoEvent;
        r.bound->queue_ = nullptr;
    }
    unlink(idx);
    freeSlot(idx);
    live_ -= 1;
    return true;
}

void
EventQueue::schedule(Event &ev, Tick when)
{
    LEAKY_ASSERT(ev.fn_ != nullptr, "scheduling an unbound event");
    LEAKY_ASSERT(!ev.scheduled(),
                 "event already scheduled (use reschedule)");
    checkFuture(when);
    const std::uint32_t idx = claimSlot();
    Record &r = record(idx);
    r.bound = &ev;
    ev.queue_ = this;
    ev.handle_ = makeHandle(idx, r.gen);
    ev.when_ = when;
    commitSlot(idx, when);
}

void
EventQueue::reschedule(Event &ev, Tick when)
{
    if (ev.scheduled())
        deschedule(ev);
    schedule(ev, when);
}

bool
EventQueue::deschedule(Event &ev)
{
    if (!ev.scheduled())
        return false;
    LEAKY_ASSERT(ev.queue_ == this,
                 "descheduling an event pending on another queue");
    const bool cancelled = cancel(ev.handle_);
    LEAKY_ASSERT(cancelled, "scheduled event had a stale handle");
    return true;
}

void
EventQueue::runRecord(std::uint32_t idx)
{
    Record &r = record(idx);
    if (Event *ev = r.bound) {
        // Release the slot and clear the handle before invoking so the
        // callback can immediately reschedule the same event.
        freeSlot(idx);
        ev->handle_ = kNoEvent;
        ev->queue_ = nullptr;
        ev->fn_(ev->ctx_);
    } else {
        SmallFn fn = std::move(fn_slab_[idx]);
        freeSlot(idx);
        fn();
    }
}

bool
EventQueue::runNext(Tick limit)
{
    const bool front = front_.idx != kNoFreeSlot;
    if (!front && heap_.empty())
        return false;
    const HeapEntry top = front ? front_ : heap_.front();
    if (top.when > limit)
        return false;
    unlink(top.idx);
    now_ = top.when;
    live_ -= 1;
    stats_.events_run += 1;
    runRecord(top.idx);
    return true;
}

bool
EventQueue::step()
{
    return runNext(kTickMax);
}

void
EventQueue::runUntil(Tick limit)
{
    const Tick outer = horizon_;
    horizon_ = limit == kTickMax ? kTickMax : limit + 1;
    stopped_ = false;
    while (!stopped_ && runNext(limit)) {
    }
    horizon_ = outer;
    // Unless stopped (events of the stopping tick may still be pending),
    // all remaining events lie strictly after the limit, so the clock
    // can safely advance to it.
    if (!stopped_ && limit != kTickMax && now_ < limit)
        now_ = limit;
}

} // namespace leaky::sim
