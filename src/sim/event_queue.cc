#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace leaky::sim {

EventQueue::~EventQueue()
{
    // Unschedule every pending event, so the destructors of bound
    // events (and of the cells below) do not call back into this
    // (already dying) queue.
    const auto release = [](Event *ev) {
        for (; ev != nullptr; ev = ev->run_next_)
            ev->queue_ = nullptr;
    };
    release(front_.ev);
    for (const HeapEntry &e : heap_)
        release(e.ev);
    release(lanes_);
    // chunks_ destruction runs ~SmallFn on any undelivered one-shots.
}

void
EventQueue::failPast(Tick when) const
{
    panic("scheduling into the past (%llu < %llu)",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now_));
}

void
EventQueue::commit(Event &ev, Tick when)
{
    ev.when_ = when;
    ev.seq_ = next_seq_++;
    stats_.heap_events += 1;
    live_ += 1;
    if (ev.lane_) {
        linkLane(ev);
        return;
    }
    ev.run_next_ = nullptr;
    Event *&tail = tails_[when & (kTailSlots - 1)];
    if (tail != nullptr && tail->when_ == when) {
        // The cached tail ends its tick's newest run, and this event
        // carries the highest seq yet, so appending keeps every run of
        // the tick a disjoint seq range.
        LEAKY_DCHECK(tail->run_next_ == nullptr,
                     "append behind a run's middle at tick %llu",
                     static_cast<unsigned long long>(when));
        tail->run_next_ = &ev;
        ev.run_prev_ = tail;
        ev.heap_pos_ = kInRun;
        stats_.run_appends += 1;
    } else {
        ev.run_prev_ = nullptr;
        openRun(HeapEntry{when, ev.seq_, &ev});
    }
    tail = &ev;
}

void
EventQueue::openRun(const HeapEntry &e)
{
    // Strictly earlier only: a new run at the front run's own tick
    // carries higher seqs, so it must queue behind it in the heap.
    // Lanes do not count: the front slot only has to precede the heap.
    if (e.when < nextRunTick()) {
        if (front_.ev != nullptr) {
            heap_.emplace_back();
            siftUp(heap_.size() - 1, front_);
        }
        front_ = e;
        e.ev->heap_pos_ = kFrontPos;
        stats_.front_runs += 1;
        return;
    }
    heap_.emplace_back();
    siftUp(heap_.size() - 1, e);
}

void
EventQueue::linkLane(Event &ev)
{
    ev.run_prev_ = nullptr;
    ev.run_next_ = lanes_;
    if (lanes_ != nullptr)
        lanes_->run_prev_ = &ev;
    lanes_ = &ev;
    const HeapEntry e{ev.when_, ev.seq_, &ev};
    if (e.before(lane_))
        lane_ = e;
    stats_.lane_events += 1;
}

void
EventQueue::unlinkLane(Event &ev)
{
    if (ev.run_prev_ != nullptr)
        ev.run_prev_->run_next_ = ev.run_next_;
    else
        lanes_ = ev.run_next_;
    if (ev.run_next_ != nullptr)
        ev.run_next_->run_prev_ = ev.run_prev_;
    if (lane_.ev != &ev)
        return;
    lane_ = kNone;
    for (Event *l = lanes_; l != nullptr; l = l->run_next_) {
        const HeapEntry e{l->when_, l->seq_, l};
        if (e.before(lane_))
            lane_ = e;
    }
}

void
EventQueue::freeCell(Cell &c)
{
    c.fn.reset();
    c.gen += 1;
    c.next_free = free_;
    free_ = &c;
}

void
EventQueue::runCell(void *cell)
{
    Cell &c = *static_cast<Cell *>(cell);
    SmallFn fn = std::move(c.fn);
    c.owner->freeCell(c);
    fn();
}

void
EventQueue::growPool()
{
    const std::size_t base = poolCapacity();
    LEAKY_ASSERT(base + kChunkSize <= ~std::uint32_t{0},
                 "event pool exhausted");
    chunks_.push_back(std::make_unique<Cell[]>(kChunkSize));
    Cell *chunk = chunks_.back().get();
    // Runs never outnumber pending events, so reserving the heap along
    // with the pool keeps steady-state one-shot scheduling
    // allocation-free.
    heap_.reserve(poolCapacity());
    stats_.pool_chunks += 1;
    // Bind the fresh cells and link them onto the free list, preserving
    // index order.
    for (std::uint32_t i = kChunkSize; i-- > 0;) {
        Cell &c = chunk[i];
        c.ev.bind(&c, &EventQueue::runCell);
        c.owner = this;
        c.idx = static_cast<std::uint32_t>(base) + i;
        c.next_free = free_;
        free_ = &c;
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
EventQueue::unlink(Event &ev)
{
    Event *&tail = tails_[ev.when_ & (kTailSlots - 1)];
    if (tail == &ev)
        tail = ev.run_prev_; // The run's new tail, or none.
    if (ev.heap_pos_ == kInRun) {
        // Inside a run: a plain list unlink. Only heads have no prev.
        ev.run_prev_->run_next_ = ev.run_next_;
        if (ev.run_next_ != nullptr)
            ev.run_next_->run_prev_ = ev.run_prev_;
        return;
    }
    const std::size_t pos = ev.heap_pos_;
    if (Event *n = ev.run_next_) {
        // The successor's key grows but stays below every run ordered
        // after this head: runs of one tick hold disjoint seq ranges,
        // so a later run of the same tick holds only higher seqs. The
        // successor therefore keeps the slot (heap or front) with no
        // sift.
        n->run_prev_ = nullptr;
        const HeapEntry e{n->when_, n->seq_, n};
        if (pos == kFrontPos) {
            LEAKY_DCHECK(heap_.empty() || e.before(heap_.front()),
                         "promoted front successor after the heap top");
            front_ = e;
            n->heap_pos_ = kFrontPos;
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
        front_ = kNone;
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
    if (idx >= poolCapacity())
        return false;
    Cell &c = chunks_[idx / kChunkSize][idx % kChunkSize];
    // A cell is freed as it fires or is cancelled, which bumps its
    // generation; a free cell's current generation was never handed
    // out, so only a forged handle names it.
    if (c.gen != gen || !c.ev.scheduled())
        return false; // Stale: executed, cancelled, or cell reused.
    deschedule(c.ev);
    freeCell(c);
    return true;
}

void
EventQueue::schedule(Event &ev, Tick when)
{
    LEAKY_ASSERT(ev.fn_ != nullptr, "scheduling an unbound event");
    LEAKY_ASSERT(!ev.scheduled(),
                 "event already scheduled (use reschedule)");
    checkFuture(when);
    ev.queue_ = this;
    commit(ev, when);
}

void
EventQueue::reschedule(Event &ev, Tick when)
{
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
    if (ev.lane_)
        unlinkLane(ev);
    else
        unlink(ev);
    ev.queue_ = nullptr;
    live_ -= 1;
    return true;
}

bool
EventQueue::runNext(Tick limit)
{
    // The earliest run head and the earliest lane are each the minimum
    // of their own set, so the earlier of the two is the global one.
    const HeapEntry &run = front_.ev != nullptr ? front_
                           : heap_.empty()      ? kNone
                                                : heap_.front();
    const bool lane = lane_.before(run);
    const HeapEntry top = lane ? lane_ : run;
    if (top.ev == nullptr || top.when > limit)
        return false;
    Event &ev = *top.ev;
    if (lane)
        unlinkLane(ev);
    else
        unlink(ev);
    now_ = top.when;
    live_ -= 1;
    stats_.events_run += 1;
    // Idle before the call, so the callback can at once reschedule the
    // same event (a one-shot's thunk frees its cell first).
    ev.queue_ = nullptr;
    ev.fn_(ev.ctx_);
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
