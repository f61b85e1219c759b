/** @file MemoryController integration tests: latencies, refresh
 *  postponing, ABO back-off protocol, RFM tasks, write draining. */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "attack/counter_leak.hh"
#include "attack/covert.hh"
#include "attack/dram_addr.hh"
#include "attack/fingerprint.hh"
#include "attack/mapping_recovery.hh"
#include "attack/noise.hh"
#include "attack/probe.hh"
#include "core/experiments.hh"
#include "ctrl/controller.hh"
#include "defense/prac.hh"
#include "defense/prfm.hh"
#include "sim/event_queue.hh"
#include "sys/core.hh"
#include "sys/system.hh"
#include "workload/synthetic.hh"
#include "testing_alloc_counter.hh"

namespace {

using leaky::ctrl::CtrlConfig;
using leaky::ctrl::MemoryController;
using leaky::ctrl::PreventiveEvent;
using leaky::ctrl::Request;
using leaky::defense::PracConfig;
using leaky::defense::PracDefense;
using leaky::defense::PrfmConfig;
using leaky::defense::PrfmDefense;
using leaky::dram::Address;
using leaky::sim::EventQueue;
using leaky::sim::Tick;

/**
 * Read completions for controller-level tests. enqueue() presents a
 * read whose on_complete is one of this helper's sim::Events; when it
 * fires, @p done gets the completion tick. Events are recycled once
 * they fire (or when the controller rejects the read), so steady-state
 * service allocates nothing. Must outlive every read it enqueued.
 */
class Completions
{
  public:
    Completions(EventQueue &eq, std::function<void(Tick)> done)
        : eq_(eq), done_(std::move(done))
    {
    }
    // Slots point back at their owner.
    Completions(const Completions &) = delete;
    Completions &operator=(const Completions &) = delete;

    bool
    enqueue(MemoryController &ctrl, const Address &a)
    {
        if (!free_) {
            Slot &fresh = slots_.emplace_back();
            fresh.owner = this;
            fresh.ev.bind(&fresh, &Completions::fire);
            free_ = &fresh;
        }
        Slot *slot = free_;
        Request req;
        req.type = Request::Type::kRead;
        req.addr = a;
        req.on_complete = &slot->ev;
        if (!ctrl.enqueue(std::move(req)))
            return false;
        free_ = slot->next_free;
        return true;
    }

  private:
    struct Slot {
        leaky::sim::Event ev;
        Completions *owner = nullptr;
        Slot *next_free = nullptr;
    };

    static void
    fire(void *ctx)
    {
        Slot *slot = static_cast<Slot *>(ctx);
        Completions &self = *slot->owner;
        slot->next_free = self.free_;
        self.free_ = slot;
        self.done_(self.eq_.now());
    }

    EventQueue &eq_;
    std::function<void(Tick)> done_;
    std::deque<Slot> slots_;
    Slot *free_ = nullptr;
};

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest() : ctrl_(eq_, CtrlConfig{}) {}

    Address
    addr(std::uint32_t bg, std::uint32_t bank, std::uint32_t row,
         std::uint32_t col = 0) const
    {
        Address a;
        a.bankgroup = bg;
        a.bank = bank;
        a.row = row;
        a.column = col;
        return a;
    }

    /** Enqueue a read and return its completion tick when served.
     *  Steps in small increments so consecutive reads stay close
     *  together in time (no intervening refresh). */
    std::optional<Tick>
    readAndWait(const Address &a, Tick run_for = 2'000'000)
    {
        std::optional<Tick> done;
        Completions reads(eq_, [&done](Tick t) { done = t; });
        EXPECT_TRUE(reads.enqueue(ctrl_, a));
        const Tick deadline = eq_.now() + run_for;
        while (!done && eq_.now() < deadline)
            eq_.runUntil(eq_.now() + 1'000);
        return done;
    }

    EventQueue eq_;
    MemoryController ctrl_;
};

TEST_F(ControllerTest, ColdReadTakesActPlusClPlusBurst)
{
    const Tick start = eq_.now();
    const auto done = readAndWait(addr(0, 0, 10));
    ASSERT_TRUE(done.has_value());
    const auto &t = ctrl_.config().dram.timing;
    // ACT + tRCD + tCL + tBURST (plus the command-gap slack).
    EXPECT_GE(*done - start, t.tRCD + t.tCL + t.tBURST);
    EXPECT_LE(*done - start, t.tRCD + t.tCL + t.tBURST + 10'000);
    EXPECT_EQ(ctrl_.stats().reads_served, 1u);
    EXPECT_EQ(ctrl_.stats().row_misses, 1u);
}

TEST_F(ControllerTest, RowHitIsFasterThanConflict)
{
    const auto first = readAndWait(addr(0, 0, 10));
    ASSERT_TRUE(first.has_value());
    const Tick hit_start = eq_.now();
    const auto hit = readAndWait(addr(0, 0, 10, 1));
    ASSERT_TRUE(hit.has_value());
    const Tick hit_latency = *hit - hit_start;

    const Tick conflict_start = eq_.now();
    const auto conflict = readAndWait(addr(0, 0, 99));
    ASSERT_TRUE(conflict.has_value());
    const Tick conflict_latency = *conflict - conflict_start;

    EXPECT_LT(hit_latency, conflict_latency);
    EXPECT_EQ(ctrl_.stats().row_hits, 1u);
    EXPECT_EQ(ctrl_.stats().row_conflicts, 1u);
}

TEST_F(ControllerTest, QueueFullRejectsRequest)
{
    for (std::uint32_t i = 0; i < ctrl_.config().read_queue_depth; ++i) {
        Request req;
        req.type = Request::Type::kRead;
        req.addr = addr(i % 8, i % 4, i);
        EXPECT_TRUE(ctrl_.enqueue(req));
    }
    Request extra;
    extra.type = Request::Type::kRead;
    extra.addr = addr(0, 0, 12345);
    EXPECT_FALSE(ctrl_.enqueue(extra));
}

TEST_F(ControllerTest, EnqueueOutsideRunKeepsScheduledWake)
{
    // Outside runUntil() an arrival cannot run the controller in
    // place: it schedules the wake-up at the arrival tick, and the
    // read is served once the queue runs again.
    eq_.runUntil(1'000);
    std::optional<Tick> done;
    Completions reads(eq_, [&done](Tick t) { done = t; });
    ASSERT_TRUE(reads.enqueue(ctrl_, addr(0, 0, 10)));
    EXPECT_EQ(eq_.nextEventTick(), eq_.now());
    EXPECT_EQ(ctrl_.channel().commandCount(leaky::dram::Command::kAct), 0u);
    eq_.runUntil(eq_.now() + leaky::sim::kUs);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(ctrl_.stats().reads_served, 1u);
}

TEST_F(ControllerTest, SameTickArrivalsKeepFireOrder)
{
    // Two arrivals at one tick, then another event at that tick. The
    // controller wakes after all three, so it sees both requests: the
    // younger row hit goes before the older conflict, and the third
    // event observes no command issued yet.
    using leaky::dram::Command;
    ASSERT_TRUE(readAndWait(addr(0, 0, 20)).has_value());
    const auto &chan = ctrl_.channel();
    const auto pres = chan.commandCount(Command::kPre);
    const auto rds = chan.commandCount(Command::kRd);

    std::optional<Tick> conflict_done, hit_done;
    Completions conflict(eq_, [&](Tick t) { conflict_done = t; });
    Completions hit(eq_, [&](Tick t) { hit_done = t; });
    const Tick at = eq_.now() + 500'000;
    bool observed = false;
    eq_.schedule(at, [&] { conflict.enqueue(ctrl_, addr(0, 0, 10)); });
    eq_.schedule(at, [&] { hit.enqueue(ctrl_, addr(0, 0, 20, 1)); });
    eq_.schedule(at, [&] {
        observed = true;
        EXPECT_EQ(chan.commandCount(Command::kPre), pres);
        EXPECT_EQ(chan.commandCount(Command::kRd), rds);
    });
    eq_.runUntil(at + leaky::sim::kUs);
    ASSERT_TRUE(observed);
    ASSERT_TRUE(conflict_done.has_value());
    ASSERT_TRUE(hit_done.has_value());
    EXPECT_LT(*hit_done, *conflict_done);
}

TEST_F(ControllerTest, IdleSystemRefreshesEveryTrefi)
{
    eq_.runUntil(20 * ctrl_.config().dram.timing.tREFI);
    // ~20 intervals elapsed; allow slack for drain timing.
    EXPECT_GE(ctrl_.stats().refreshes, 18u);
    EXPECT_LE(ctrl_.stats().refreshes, 21u);
}

TEST_F(ControllerTest, BusyTrafficPostponesThenDoublesRefresh)
{
    // Dependent-load loop that keeps the controller busy: reissue on
    // completion, alternating rows.
    std::uint64_t served = 0;
    std::function<void()> next;
    Completions reads(eq_, [&](Tick) {
        served += 1;
        eq_.scheduleAfter(15'000, next);
    });
    next = [&] { reads.enqueue(ctrl_, addr(0, 0, served % 2 ? 10 : 20)); };

    std::vector<std::pair<Tick, Tick>> refreshes;
    ctrl_.setListener([&](PreventiveEvent ev, Tick start, Tick end,
                          const Address &) {
        if (ev == PreventiveEvent::kRefresh)
            refreshes.emplace_back(start, end);
    });

    next();
    const auto trefi = ctrl_.config().dram.timing.tREFI;
    eq_.runUntil(8 * trefi);

    // Refreshes come in back-to-back pairs roughly every 2 x tREFI.
    ASSERT_GE(refreshes.size(), 2u);
    bool found_pair = false;
    for (std::size_t i = 1; i < refreshes.size(); ++i) {
        if (refreshes[i].first - refreshes[i - 1].first <
            ctrl_.config().dram.timing.tRFC + 50'000) {
            found_pair = true;
        }
    }
    EXPECT_TRUE(found_pair) << "no back-to-back refresh pair observed";
}

class ControllerPracTest : public ControllerTest
{
  protected:
    ControllerPracTest()
    {
        PracConfig cfg;
        cfg.nbo = 16; // Small threshold: back-offs come quickly.
        cfg.rfms_per_backoff = 4;
        prac_ = std::make_unique<PracDefense>(ctrl_.config().dram, cfg,
                                              &ctrl_);
        ctrl_.setDeviceHooks(prac_.get());
    }

    std::unique_ptr<PracDefense> prac_;
};

TEST_F(ControllerPracTest, HammeringTriggersBackoffProtocol)
{
    std::vector<std::pair<Tick, Tick>> backoffs;
    ctrl_.setListener([&](PreventiveEvent ev, Tick start, Tick end,
                          const Address &) {
        if (ev == PreventiveEvent::kBackoff)
            backoffs.emplace_back(start, end);
    });

    // Alternate two rows: every access precharges the other row.
    std::uint64_t served = 0;
    std::function<void()> next;
    Completions reads(eq_, [&](Tick) {
        served += 1;
        if (served < 200)
            eq_.scheduleAfter(15'000, next);
    });
    next = [&] { reads.enqueue(ctrl_, addr(0, 0, served % 2 ? 100 : 200)); };
    next();
    eq_.runUntil(100 * leaky::sim::kUs);

    ASSERT_GE(backoffs.size(), 1u);
    EXPECT_EQ(ctrl_.stats().backoffs, backoffs.size());

    // The back-off window spans tABOACT plus 4 recovery RFM windows.
    const auto &t = ctrl_.config().dram.timing;
    const Tick span = backoffs[0].second - backoffs[0].first;
    EXPECT_GE(span, t.tABOACT + 4 * t.tRFM_backoff);
    EXPECT_LE(span, t.tABOACT + 4 * t.tRFM_backoff + 200'000);

    // Alert count matches controller back-off count.
    EXPECT_EQ(prac_->alertCount(), ctrl_.stats().backoffs);
}

TEST_F(ControllerPracTest, BackoffBlocksRequestsDuringRecovery)
{
    // Trigger a back-off, then measure a request issued mid-recovery.
    std::uint64_t served = 0;
    Tick backoff_start = 0;
    ctrl_.setListener([&](PreventiveEvent ev, Tick start, Tick,
                          const Address &) {
        if (ev == PreventiveEvent::kBackoff && backoff_start == 0)
            backoff_start = start;
    });
    std::function<void()> next;
    Completions reads(eq_, [&](Tick) {
        served += 1;
        if (backoff_start == 0)
            eq_.scheduleAfter(15'000, next);
    });
    next = [&] { reads.enqueue(ctrl_, addr(0, 0, served % 2 ? 100 : 200)); };
    next();
    eq_.runUntil(100 * leaky::sim::kUs);
    ASSERT_GT(backoff_start, 0u);

    // A fresh request right after the alert waits out the recovery.
    const Tick start = eq_.now();
    const auto done = readAndWait(addr(7, 3, 5));
    ASSERT_TRUE(done.has_value());
    EXPECT_GT(*done, start);
}

TEST_F(ControllerTest, PrfmIssuesRfmEveryTrfmActivations)
{
    PrfmConfig cfg;
    cfg.trfm = 8;
    PrfmDefense prfm(ctrl_.config().dram, cfg);
    ctrl_.setControllerDefense(&prfm);

    std::uint64_t rfms_seen = 0;
    ctrl_.setListener([&](PreventiveEvent ev, Tick, Tick,
                          const Address &) {
        if (ev == PreventiveEvent::kRfm)
            rfms_seen += 1;
    });

    std::uint64_t served = 0;
    std::function<void()> next;
    Completions reads(eq_, [&](Tick) {
        served += 1;
        if (served < 64)
            eq_.scheduleAfter(15'000, next);
    });
    next = [&] { reads.enqueue(ctrl_, addr(0, 0, served % 2 ? 100 : 200)); };
    next();
    eq_.runUntil(50 * leaky::sim::kUs);

    // 64 activations at TRFM=8 -> ~8 RFMs (the last may be pending).
    EXPECT_GE(rfms_seen, 6u);
    EXPECT_LE(rfms_seen, 9u);
    EXPECT_EQ(ctrl_.stats().rfms, rfms_seen);
}

TEST_F(ControllerTest, WriteDrainingServesWriteBurst)
{
    for (std::uint32_t i = 0; i < leaky::ctrl::kWqDrainHigh; ++i) {
        Request req;
        req.type = Request::Type::kWrite;
        req.addr = addr(i % 8, i % 4, i % 32);
        ASSERT_TRUE(ctrl_.enqueue(req));
    }
    eq_.runUntil(eq_.now() + 20 * leaky::sim::kUs);
    EXPECT_GE(ctrl_.stats().writes_served,
              leaky::ctrl::kWqDrainHigh - leaky::ctrl::kWqDrainLow);
}

// ---------------------------------------------------------------------
// Livelock detector vs the batched-issue path. A wake-up that issues
// nothing must still count as a stall (the batching loop must not mask
// it), while legitimate same-tick batches (cmd_gap == 0) and long
// filter-blocked waits with forward-moving wake-ups must not trip.

/** A buggy defense that demands a same-tick wake-up forever without
 *  ever having work: the classic livelock the detector exists for. */
class SameTickDefense final : public leaky::ctrl::ControllerDefense
{
  public:
    void onActivate(const Address &, Tick) override {}
    std::optional<leaky::ctrl::RfmRequest> pendingRfm(Tick) override
    {
        return std::nullopt;
    }
    void onRfmIssued(const leaky::ctrl::RfmRequest &, Tick, Tick) override
    {
    }
    Tick nextEventTick(Tick now) const override { return now; }
};

TEST_F(ControllerTest, LivelockDetectorTripsOnZeroProgressSpin)
{
    // A queued request whose bank a back-off task's filter blocks, plus
    // a defense pinning the wake-up to the current tick: once nothing
    // is issuable, the controller re-wakes at one tick forever and the
    // detector must panic rather than spin silently.
    SameTickDefense defense;
    ctrl_.setControllerDefense(&defense);
    Request req;
    req.type = Request::Type::kRead;
    req.addr = addr(0, 0, 10);
    ASSERT_TRUE(ctrl_.enqueue(req));
    leaky::dram::AlertInfo info;
    info.bank_scoped = true;
    info.bank = addr(0, 0, 0);
    ctrl_.raiseAlert(info);
    EXPECT_DEATH(eq_.runUntil(10 * leaky::sim::kUs), "livelocked");
}

TEST_F(ControllerTest, SameTickBatchWithZeroGapDoesNotTrip)
{
    // cmd_gap == 0 makes a whole row-hit burst issuable at one tick;
    // the batched loop drains it in a single wake-up. Progress at an
    // unchanged tick must reset the stall counter, not trip it.
    CtrlConfig cfg;
    cfg.cmd_gap = 0;
    MemoryController ctrl(eq_, cfg);
    std::uint64_t completions = 0;
    Completions reads(eq_, [&completions](Tick) { completions += 1; });
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(
            reads.enqueue(ctrl, addr(0, 0, 10, static_cast<std::uint32_t>(i))));
    eq_.runUntil(eq_.now() + 2 * leaky::sim::kUs);
    EXPECT_EQ(completions, 8u);
    EXPECT_EQ(ctrl.stats().reads_served, 8u);
}

TEST_F(ControllerTest, FilterBlockedRequestWaitsWithoutTripping)
{
    // A bank back-off blocks the only queued request's bank for the
    // whole recovery burst; the wake-ups keep moving forward, so the
    // wait is legitimate and the request completes afterwards.
    leaky::dram::AlertInfo info;
    info.bank_scoped = true;
    info.bank = addr(0, 0, 0);
    ctrl_.raiseAlert(info);
    // Enter the post-window phase first: the filter only blocks new
    // activations once tAlert + tABOACT have elapsed and the recovery
    // RFMs are being slotted in.
    const auto &t = ctrl_.config().dram.timing;
    eq_.runUntil(eq_.now() + t.tAlert + t.tABOACT + 1);
    const auto done = readAndWait(addr(0, 0, 10), 20'000'000);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(ctrl_.stats().bank_backoffs, 1u);
    EXPECT_EQ(ctrl_.stats().reads_served, 1u);
}

// ---------------------------------------------------------------------
// Zero-allocation steady state: controller tick(), the scheduler scan
// and request completion must not touch the heap once every pool and
// queue has grown to its high-water mark (see testing_alloc_counter.hh).

TEST_F(ControllerTest, SteadyStateServiceDoesNotAllocate)
{
    std::uint64_t completions = 0;
    Completions reads(eq_, [&completions](Tick) { completions += 1; });
    const auto read = [&](int i) {
        return reads.enqueue(ctrl_,
                             addr(static_cast<std::uint32_t>(i) % 8,
                                  (static_cast<std::uint32_t>(i) / 8) % 4,
                                  static_cast<std::uint32_t>(i) % 64));
    };

    // Warm-up: grow the event slab, the request queues' packed mirrors
    // and the scheduler's status scratch past their high-water marks,
    // and cross at least one refresh drain. Retry rejected enqueues so
    // every request eventually lands (the queue saturates at depth).
    for (int i = 0; i < 200; ++i) {
        while (!read(i))
            eq_.runUntil(eq_.now() + 5'000);
        eq_.runUntil(eq_.now() + 5'000);
    }
    eq_.runUntil(eq_.now() + 5'000'000);
    const std::uint64_t warmed = completions;

    // Steady state: the enqueue -> scan -> issue -> complete cycle,
    // including periodic refreshes, with the heap untouched.
    const std::uint64_t before = leaky_test_heap_allocs.load();
    for (int i = 0; i < 500; ++i) {
        while (!read(i))
            eq_.runUntil(eq_.now() + 5'000);
        eq_.runUntil(eq_.now() + 5'000);
    }
    eq_.runUntil(eq_.now() + 5'000'000);
    const std::uint64_t after = leaky_test_heap_allocs.load();

    EXPECT_EQ(after, before);
    EXPECT_EQ(completions, warmed + 500);
}

/** Preventive-event timeline of one Listing-1 probe run. */
struct Timeline {
    std::uint64_t digest = 0xcbf29ce484222325ULL; ///< FNV-1a offset basis.
    std::array<std::uint64_t, 6> counts{};        ///< Per PreventiveEvent.
    /** REF rounds that reuse the previous round's start: the second
     *  half of a postponed back-to-back pair. */
    std::uint64_t catch_up_refs = 0;
    Tick last_ref_start = leaky::sim::kTickMax;

    void
    mix(std::uint64_t value, int bytes)
    {
        for (int i = 0; i < bytes; ++i) {
            digest ^= (value >> (8 * i)) & 0xff;
            digest *= 0x100000001b3ULL; // FNV-1a 64-bit prime.
        }
    }
};

/** Hammer rows 1000/2000 of bank 0 on @p cfg and fold every listener
 *  event as (kind, start, end, rank) into a digest. */
Timeline
probeTimeline(const leaky::sys::SystemConfig &cfg)
{
    using namespace leaky;
    sys::System system(cfg);
    Timeline tl;
    system.setPreventiveListener(
        0, [&tl](PreventiveEvent ev, Tick start, Tick end,
                 const Address &a) {
            tl.counts[static_cast<std::size_t>(ev)] += 1;
            if (ev == PreventiveEvent::kRefresh) {
                tl.catch_up_refs += start == tl.last_ref_start;
                tl.last_ref_start = start;
            }
            tl.mix(static_cast<std::uint64_t>(ev), 1);
            tl.mix(start, 8);
            tl.mix(end, 8);
            tl.mix(a.rank, 4);
        });
    attack::ProbeConfig probe_cfg;
    probe_cfg.addrs = {
        attack::rowAddress(system.mapper(), 0, 0, 0, 0, 1000),
        attack::rowAddress(system.mapper(), 0, 0, 0, 0, 2000)};
    probe_cfg.iterations = 2000;
    attack::LatencyProbe probe(system, probe_cfg);
    bool done = false;
    probe.start([&done] { done = true; });
    while (!done)
        system.run(sim::kMs);
    return tl;
}

TEST_F(ControllerTest, PreventiveTimelinePinned)
{
    // Exact command timing of every preventive action the controller
    // drives on the paper's 2-rank system: PRAC's ABO drains and
    // postponed double REFs, Bank-Level PRAC's bank back-offs, PRFM's
    // bank RFMs, and FR-RFM's scheduled RFMs and deterministic REFs.
    // The golden CSVs see only decoded cells; this pins the timeline.
    using leaky::defense::DefenseKind;
    struct Case {
        const char *name;
        leaky::sys::SystemConfig cfg;
        std::uint64_t digest;
        // refresh, backoff, bank_backoff, rfm, targeted, counter_fetch.
        std::array<std::uint64_t, 6> counts;
        std::uint64_t catch_up_refs;
    };
    auto prac_bank = leaky::core::pracAttackSystem();
    prac_bank.defense.kind = DefenseKind::kPracBank;
    const Case cases[] = {
        {"PRAC", leaky::core::pracAttackSystem(), 15456107697108900112ULL,
         {256, 7, 0, 0, 0, 0}, 23},
        {"PRAC-Bank", prac_bank, 17042794170340087999ULL,
         {256, 0, 7, 0, 0, 0}, 23},
        {"PRFM", leaky::core::prfmAttackSystem(), 10092292416973616434ULL,
         {256, 0, 0, 50, 0, 0}, 0},
        {"FR-RFM", leaky::sys::SystemConfig::paper(DefenseKind::kFrRfm),
         9271629694519365010ULL, {256, 0, 0, 2275, 0, 0}, 0},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ASSERT_EQ(c.cfg.ctrl.dram.org.ranks, 2u);
        const Timeline tl = probeTimeline(c.cfg);
        EXPECT_EQ(tl.counts, c.counts);
        EXPECT_EQ(tl.catch_up_refs, c.catch_up_refs);
        EXPECT_EQ(tl.digest, c.digest);
    }
}

/**
 * A MemoryPort in front of a System that folds every read's issue tick
 * and completion tick into an FNV-1a digest, in completion order. It
 * is every read's sink toward the System: a free-listed record table
 * keeps the requestor's sink and tag and the issue tick, and the
 * record's index is the tag the System sees.
 */
class ServiceRecorder final : public leaky::sys::MemoryPort,
                              private leaky::sys::ReadSink
{
  public:
    explicit ServiceRecorder(leaky::sys::System &system) : sys_(system) {}

    Tick now() const override { return sys_.now(); }
    void
    schedule(Tick delay, std::function<void()> fn) override
    {
        sys_.schedule(delay, std::move(fn));
    }
    void
    schedule(Tick delay, leaky::sim::Event &ev) override
    {
        sys_.schedule(delay, ev);
    }
    void
    issueRead(std::uint64_t phys_addr, leaky::sys::ReadSink &sink,
              std::uint64_t tag) override
    {
        if (free_ == kNoRecord) {
            free_ = records_.size();
            records_.emplace_back();
        }
        const std::uint64_t index = free_;
        Record &record = records_[index];
        free_ = record.next_free;
        record = {&sink, tag, sys_.now(), kNoRecord};
        sys_.issueRead(phys_addr, *this, index);
    }
    void
    issueWrite(std::uint64_t phys_addr, std::int32_t source) override
    {
        sys_.issueWrite(phys_addr, source);
    }
    const leaky::dram::MappingFunction &
    mapper() const override
    {
        return sys_.mapper();
    }

    std::uint64_t digest() const { return tl_.digest; }
    std::uint64_t reads() const { return reads_; }

  private:
    static constexpr std::uint64_t kNoRecord = ~std::uint64_t{0};
    struct Record {
        leaky::sys::ReadSink *sink = nullptr;
        std::uint64_t tag = 0;
        Tick issued = 0;
        std::uint64_t next_free = kNoRecord;
    };

    void
    readDone(std::uint64_t index, Tick done) override
    {
        // Free the record before passing the read on: the requestor
        // may issue its next read from readDone().
        Record &record = records_[index];
        leaky::sys::ReadSink &sink = *record.sink;
        const std::uint64_t tag = record.tag;
        tl_.mix(record.issued, 8);
        tl_.mix(done, 8);
        reads_ += 1;
        record.next_free = free_;
        free_ = index;
        sink.readDone(tag, done);
    }

    leaky::sys::System &sys_;
    std::vector<Record> records_;
    std::uint64_t free_ = kNoRecord;
    Timeline tl_;
    std::uint64_t reads_ = 0;
};

TEST_F(ControllerTest, ServiceTimelinePinned)
{
    // Exact service timing of every DRAM read in a short Fig. 13-style
    // four-core read/write mix (warm counters), one case per defense
    // family at a threshold where it acts. It pins the interleaving of
    // arrivals, scheduler decisions and preventive actions that the
    // timeline above leaves out: a wake-up that moves by one tick moves
    // some read's completion. An arrival that stopped waking the
    // controller when it could issue nothing at once changes the PRAC
    // and PRFM digests.
    using leaky::defense::DefenseKind;
    struct Case {
        DefenseKind kind;
        std::uint32_t nrh;
        std::uint64_t digest;
        std::uint64_t reads;
        std::uint64_t writes;     ///< CtrlStats::writes_served.
        std::uint64_t preventive; ///< CtrlStats::preventiveActions().
    };
    const Case cases[] = {
        {DefenseKind::kPrac, 1024, 13469624282640009387ULL, 72775, 793, 51},
        {DefenseKind::kPrfm, 256, 1972112869671764489ULL, 72753, 772, 641},
        {DefenseKind::kPara, 1024, 11572473067724227063ULL, 73097, 840,
         808},
        {DefenseKind::kGraphene, 256, 4576312800434407979ULL, 68734, 567,
         10112},
        {DefenseKind::kHydra, 64, 6706305139847396522ULL, 73057, 840, 114},
        {DefenseKind::kFrRfm, 256, 17800067615440630708ULL, 54912, 103,
         2604},
    };
    const leaky::workload::Mix mix = leaky::workload::makeMixes(1).front();
    for (const Case &c : cases) {
        SCOPED_TRACE(leaky::defense::defenseName(c.kind));
        auto cfg = leaky::sys::SystemConfig::paper(c.kind, c.nrh);
        cfg.defense.warm_counters = true;
        leaky::sys::System system(cfg);
        ServiceRecorder port(system);
        std::vector<std::unique_ptr<leaky::sys::TraceCore>> cores;
        for (const auto &app : mix.apps) {
            leaky::sys::CoreConfig core_cfg;
            core_cfg.mshrs = app.mlp;
            cores.push_back(std::make_unique<leaky::sys::TraceCore>(
                port, core_cfg,
                [stream = leaky::workload::AppTraceStream(
                     app, system.mapper())]() mutable {
                    return stream.next();
                },
                leaky::workload::kAppTracePeriod,
                static_cast<std::int32_t>(cores.size())));
        }
        for (const auto &core : cores)
            core->start();
        system.run(2 * leaky::sim::kMs);
        EXPECT_EQ(port.reads(), c.reads);
        EXPECT_EQ(system.stats(0).writes_served, c.writes);
        EXPECT_EQ(system.stats(0).preventiveActions(), c.preventive);
        EXPECT_EQ(port.digest(), c.digest);
    }
}

TEST_F(ControllerTest, WakeUpsTakeTheLane)
{
    // The controller's wake-up moves on every read: an in-place
    // arrival cancels it and the wake-up's end re-arms it. It is a
    // queue lane, so none of those moves opens a run in the run heap.
    // In a paced PRAC read loop (as BM_ControllerPacedReads) every
    // other schedule then opens a run strictly before all pending
    // runs and takes the front slot, so nothing is pushed at all.
    using namespace leaky;
    constexpr std::uint64_t kReads = 2000;
    sys::System system(sys::SystemConfig::paper(defense::DefenseKind::kPrac));
    attack::ProbeConfig cfg;
    cfg.addrs = {attack::rowAddress(system.mapper(), 0, 0, 0, 0, 1000),
                 attack::rowAddress(system.mapper(), 0, 0, 0, 0, 2000)};
    cfg.iterations = kReads;
    attack::LatencyProbe probe(system, cfg);
    probe.start([&system] { system.stop(); });
    system.run(sim::kMs);
    ASSERT_EQ(probe.samples().size(), kReads);

    const auto &k = system.eventQueue().kernelStats();
    EXPECT_GE(k.lane_events, kReads);
    // Every schedule either joins a run, opens the front run, opens a
    // run in the heap or arms a lane.
    const std::uint64_t heap_pushes =
        k.heap_events - k.lane_events - k.run_appends - k.front_runs;
    EXPECT_EQ(heap_pushes, 0u);
}

/** Run @p system until an agent's completion stops it. */
void
runToDone(leaky::sys::System &system, const bool &done)
{
    system.run(100 * leaky::sim::kMs);
    EXPECT_TRUE(done);
}

/** One covert pair over @p port, from a shared epoch 2 us out.
 *  attack::runCovertChannel drives a System directly, so the pair is
 *  built here to put the recording port between it and the System. */
void
runPair(leaky::sys::System &system, ServiceRecorder &port,
        const leaky::attack::CovertConfig &cfg,
        const std::vector<std::uint8_t> &symbols)
{
    // lint:allow(single-covert-loop): endpoints on a recording port
    leaky::attack::CovertSender sender(port, cfg);
    // lint:allow(single-covert-loop): endpoints on a recording port
    leaky::attack::CovertReceiver receiver(port, cfg);
    const Tick epoch = system.now() + 2 * leaky::sim::kUs;
    sender.transmit(symbols, epoch);
    bool done = false;
    receiver.listen(symbols.size(), epoch, [&] {
        done = true;
        system.stop();
    });
    runToDone(system, done);
}

TEST(AttackAgents, ReadTimelinePinned)
{
    // Exact issue and completion tick of every read each attack agent
    // makes: the Listing-1 probe, covert pairs (binary, multibit with
    // sender gaps that straddle a window start, PRFM with the refresh
    // blackout, a fuzz-sequence sender), the counter-leak victim and
    // attacker, the fingerprint probe beside a noise generator, and
    // mapping recovery. The golden CSVs see these agents only through
    // decoded figure cells; this pins when each read happens.
    using namespace leaky;
    using Setup = std::function<void(sys::System &, ServiceRecorder &)>;
    const std::vector<std::uint8_t> binary = {1, 0, 1, 1, 0, 0, 1, 0,
                                              1, 1, 1, 0, 1, 0, 0, 1};
    struct Case {
        const char *name;
        sys::SystemConfig cfg;
        Setup setup;
        std::uint64_t digest;
        std::uint64_t reads;
    };
    const Case cases[] = {
        {"probe", core::pracAttackSystem(),
         [](sys::System &system, ServiceRecorder &port) {
             attack::ProbeConfig cfg;
             cfg.addrs = attack::rowsInBank(system.mapper(), 0, 0, 0, 0,
                                            1000, 2, 1000);
             cfg.iterations = 2000;
             attack::LatencyProbe probe(port, cfg);
             bool done = false;
             probe.start([&] {
                 done = true;
                 system.stop();
             });
             runToDone(system, done);
         },
         1139030537325682017ULL, 2000},
        {"prac-binary", core::pracAttackSystem(),
         [&binary](sys::System &system, ServiceRecorder &port) {
             runPair(system, port,
                     attack::makeChannelConfig(
                         system, attack::ChannelKind::kPrac),
                     binary);
         },
         1547486318318609886ULL, 5269},
        {"prac-4-level", core::pracAttackSystem(),
         [](sys::System &system, ServiceRecorder &port) {
             // A 15 us window ends before most slow-symbol back-offs,
             // so gapped sender steps and reads straddle window starts.
             auto cfg = attack::makeChannelConfig(
                 system, attack::ChannelKind::kPrac, 4);
             cfg.window = 15 * sim::kUs;
             runPair(system, port, cfg,
                     {3, 1, 0, 2, 1, 3, 2, 0, 3, 3, 1, 2,
                      1, 1, 2, 0, 1, 2, 1, 3, 0, 1, 2, 1});
         },
         7248375558489858300ULL, 4581},
        {"prac-4-level-two-rows", core::pracAttackSystem(),
         [](sys::System &system, ServiceRecorder &port) {
             // A receiver in another bank (§9.1) and a second sender
             // row: each sender read's row, and so whether it hits,
             // follows the count of returned reads, stale ones included.
             auto cfg = attack::makeChannelConfig(
                 system, attack::ChannelKind::kPrac, 4);
             cfg.window = 15 * sim::kUs;
             cfg.sender_addr2 =
                 attack::rowAddress(system.mapper(), 0, 0, 0, 0, 1500);
             cfg.receiver_addr =
                 attack::rowAddress(system.mapper(), 0, 0, 1, 0, 2000);
             runPair(system, port, cfg,
                     {3, 1, 0, 2, 1, 3, 2, 0, 3, 3, 1, 2,
                      1, 1, 2, 0, 1, 2, 1, 3, 0, 1, 2, 1});
         },
         15726048814708382527ULL, 6760},
        {"prfm-blackout", core::prfmAttackSystem(),
         [&binary](sys::System &system, ServiceRecorder &port) {
             auto cfg = attack::makeChannelConfig(
                 system, attack::ChannelKind::kRfm);
             cfg.refresh_blackout = true;
             runPair(system, port, cfg, binary);
         },
         2390210053248923298ULL, 5389},
        {"fuzz-sequence", core::pracAttackSystem(),
         [&binary](sys::System &system, ServiceRecorder &port) {
             auto cfg = attack::makeChannelConfig(
                 system, attack::ChannelKind::kPrac);
             cfg.sender_sequence = attack::rowsInBank(
                 system.mapper(), 0, 0, 0, 0, 1000, 3, 64);
             cfg.sender_sequence.push_back(
                 attack::rowAddress(system.mapper(), 0, 0, 1, 0, 500));
             runPair(system, port, cfg, binary);
         },
         8429965043057350309ULL, 6011},
        {"counter-leak", core::pracAttackSystem(),
         [](sys::System &system, ServiceRecorder &port) {
             attack::CounterLeakConfig cfg;
             cfg.shared_addr =
                 attack::rowAddress(system.mapper(), 0, 0, 0, 0, 1000);
             cfg.conflict_addr =
                 attack::rowAddress(system.mapper(), 0, 0, 0, 0, 3000);
             cfg.classifier = attack::LatencyClassifier::forTiming(
                 system.config().ctrl.dram.timing);
             attack::CounterLeakVictim victim(
                 port, cfg.shared_addr,
                 attack::rowAddress(system.mapper(), 0, 0, 0, 0, 2000));
             attack::CounterLeakAttacker attacker(port, cfg);
             bool done = false;
             victim.prime(40, [&] {
                 attacker.leak([&](const attack::CounterLeakResult &) {
                     done = true;
                     system.stop();
                 });
             });
             runToDone(system, done);
         },
         11778495741420233972ULL, 259},
        {"fingerprint+noise", core::pracAttackSystem(),
         [](sys::System &system, ServiceRecorder &port) {
             attack::NoiseConfig noise_cfg;
             noise_cfg.addrs = attack::rowsInBank(system.mapper(), 0, 0, 0,
                                                  0, 3000, 6, 512);
             noise_cfg.sleep = 200'000;
             attack::NoiseAgent noise(port, noise_cfg);
             attack::FingerprintConfig cfg;
             cfg.rows = attack::rowsInBank(system.mapper(), 0, 1, 7, 3, 500,
                                           8, 64);
             cfg.t_accesses = 127;
             cfg.duration = 300 * sim::kUs;
             cfg.classifier = attack::LatencyClassifier::forTiming(
                 system.config().ctrl.dram.timing);
             attack::FingerprintProbe probe(port, cfg);
             noise.start();
             bool done = false;
             probe.start([&] {
                 noise.stop();
                 done = true;
                 system.stop();
             });
             runToDone(system, done);
             EXPECT_FALSE(probe.backoffTimes().empty());
         },
         16128606314004214233ULL, 6394},
        {"mapping-recovery",
         sys::SystemConfig::paper(defense::DefenseKind::kPrac, 160),
         [](sys::System &system, ServiceRecorder &port) {
             attack::MappingRecoveryConfig cfg;
             cfg.classifier = attack::LatencyClassifier::forTiming(
                 system.config().ctrl.dram.timing);
             attack::MappingRecovery attacker(port, cfg);
             bool done = false;
             attacker.start([&] {
                 done = true;
                 system.stop();
             });
             runToDone(system, done);
             EXPECT_TRUE(attacker.result().bank_solved);
         },
         4395661734363552180ULL, 11040},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        sys::System system(c.cfg);
        ServiceRecorder port(system);
        c.setup(system, port);
        EXPECT_EQ(port.reads(), c.reads);
        EXPECT_EQ(port.digest(), c.digest);
    }
}

} // namespace
