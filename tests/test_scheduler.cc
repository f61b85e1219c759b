/** @file FR-FCFS scheduler tests: hit priority, FCFS, column cap. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "ctrl/scheduler.hh"
#include "sim/rng.hh"

namespace {

using leaky::ctrl::BankFilter;
using leaky::ctrl::FrFcfsScheduler;
using leaky::ctrl::QueueEntry;
using leaky::ctrl::Request;
using leaky::ctrl::RequestQueue;
using leaky::ctrl::SchedDecision;
using leaky::dram::Address;
using leaky::dram::Command;
using leaky::dram::DramChannel;
using leaky::dram::DramConfig;
using leaky::dram::RowStatus;
using leaky::sim::Tick;

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
        : cfg_(DramConfig::ddr5Paper()), chan_(cfg_),
          sched_(cfg_.org, 16)
    {
    }

    QueueEntry
    entry(std::uint32_t bg, std::uint32_t bank, std::uint32_t row)
    {
        QueueEntry e;
        e.req.type = Request::Type::kRead;
        e.req.addr.bankgroup = bg;
        e.req.addr.bank = bank;
        e.req.addr.row = row;
        return e;
    }

    /** Build a RequestQueue from entries, oldest first (push annotates
     *  addresses; queue position is the FCFS age). */
    template <typename... Es>
    RequestQueue
    queue(Es... es)
    {
        RequestQueue q(cfg_.org);
        (q.push(std::move(es)), ...);
        return q;
    }

    /** BankFilter that blocks nothing. */
    static constexpr BankFilter noneBlocked{};

    DramConfig cfg_;
    DramChannel chan_;
    FrFcfsScheduler sched_;
};

TEST_F(SchedulerTest, EmptyQueueYieldsNothing)
{
    RequestQueue q(cfg_.org);
    EXPECT_EQ(sched_.pick(q, chan_, noneBlocked, 0).index,
              SchedDecision::kNone);
}

TEST_F(SchedulerTest, ClosedBankGetsActivate)
{
    auto q = queue(entry(0, 0, 5));
    const auto d = sched_.pick(q, chan_, noneBlocked, 0);
    ASSERT_NE(d.index, SchedDecision::kNone);
    EXPECT_EQ(d.cmd, Command::kAct);
    EXPECT_EQ(d.index, 0u);
}

TEST_F(SchedulerTest, RowHitBeatsOlderConflict)
{
    chan_.issue(Command::kAct, entry(0, 0, 5).req.addr, 0);
    // Older request conflicts (row 9), newer request hits (row 5).
    auto q = queue(entry(0, 0, 9), entry(0, 0, 5));
    const auto d = sched_.pick(q, chan_, noneBlocked,
                               cfg_.timing.tRCD);
    ASSERT_NE(d.index, SchedDecision::kNone);
    EXPECT_EQ(d.index, 1u);
    EXPECT_EQ(d.cmd, Command::kRd);
}

TEST_F(SchedulerTest, ConflictGetsPrecharge)
{
    chan_.issue(Command::kAct, entry(0, 0, 5).req.addr, 0);
    auto q = queue(entry(0, 0, 9));
    const auto d = sched_.pick(q, chan_, noneBlocked, 0);
    ASSERT_NE(d.index, SchedDecision::kNone);
    EXPECT_EQ(d.cmd, Command::kPre);
}

TEST_F(SchedulerTest, FcfsAmongEqualCandidates)
{
    auto q = queue(entry(1, 0, 6), entry(2, 0, 7), entry(0, 0, 5));
    const auto d = sched_.pick(q, chan_, noneBlocked, 0);
    ASSERT_NE(d.index, SchedDecision::kNone);
    EXPECT_EQ(d.index, 0u); // The first pushed entry is the oldest.
}

TEST_F(SchedulerTest, ColumnCapYieldsToOlderConflict)
{
    const auto hit_addr = entry(0, 0, 5).req.addr;
    chan_.issue(Command::kAct, hit_addr, 0);
    // Saturate the hit streak for that bank.
    for (int i = 0; i < 16; ++i)
        sched_.onIssue(hit_addr, Command::kRd, true);

    // Older conflict (pushed first) + newer hit: the cap forces
    // the conflict now.
    auto q = queue(entry(0, 0, 9), entry(0, 0, 5));
    const auto d = sched_.pick(q, chan_, noneBlocked, cfg_.timing.tRCD);
    ASSERT_NE(d.index, SchedDecision::kNone);
    EXPECT_EQ(d.index, 0u);
    EXPECT_EQ(d.cmd, Command::kPre);
}

TEST_F(SchedulerTest, CapIgnoredWithoutOlderConflict)
{
    const auto hit_addr = entry(0, 0, 5).req.addr;
    chan_.issue(Command::kAct, hit_addr, 0);
    for (int i = 0; i < 20; ++i)
        sched_.onIssue(hit_addr, Command::kRd, true);
    // Only hits (no older non-hit): keep streaming.
    auto q = queue(entry(0, 0, 5));
    const auto d = sched_.pick(q, chan_, noneBlocked, cfg_.timing.tRCD);
    ASSERT_NE(d.index, SchedDecision::kNone);
    EXPECT_EQ(d.cmd, Command::kRd);
}

TEST_F(SchedulerTest, ActivateResetsStreak)
{
    const auto hit_addr = entry(0, 0, 5).req.addr;
    chan_.issue(Command::kAct, hit_addr, 0);
    for (int i = 0; i < 16; ++i)
        sched_.onIssue(hit_addr, Command::kRd, true);
    sched_.onIssue(hit_addr, Command::kAct, false);

    auto q = queue(entry(0, 0, 9), entry(0, 0, 5));
    const auto d = sched_.pick(q, chan_, noneBlocked, cfg_.timing.tRCD);
    ASSERT_NE(d.index, SchedDecision::kNone);
    EXPECT_EQ(d.index, 1u); // Hit priority restored.
}

TEST_F(SchedulerTest, BlockedBanksAreSkipped)
{
    auto q = queue(entry(0, 0, 5), entry(1, 1, 6));
    const BankFilter blocked{[](const void *, const Address &a) {
        return a.bankgroup == 0 && a.bank == 0;
    }, nullptr};
    const auto d = sched_.pick(q, chan_, blocked, 0);
    ASSERT_NE(d.index, SchedDecision::kNone);
    EXPECT_EQ(d.index, 1u);
}

TEST_F(SchedulerTest, AllBlockedYieldsNothing)
{
    auto q = queue(entry(0, 0, 5));
    const BankFilter blocked{
        [](const void *, const Address &) { return true; }, nullptr};
    EXPECT_EQ(sched_.pick(q, chan_, blocked, 0).index, SchedDecision::kNone);
}

TEST_F(SchedulerTest, NothingSchedulableIsTheNoneDecision)
{
    // The whole decision, not just its index, is the default one, so
    // a kept "nothing to do" compares equal to a fresh one.
    const SchedDecision none{};
    EXPECT_EQ(none.index, SchedDecision::kNone);
    const RequestQueue empty(cfg_.org);
    EXPECT_TRUE(sched_.pick(empty, chan_, noneBlocked, 7) == none);
    auto q = queue(entry(0, 0, 5), entry(1, 1, 6));
    const BankFilter all{
        [](const void *, const Address &) { return true; }, nullptr};
    EXPECT_TRUE(sched_.pick(q, chan_, all, 7) == none);
}

TEST_F(SchedulerTest, WriteHitPicksWriteCommand)
{
    const auto a = entry(0, 0, 5).req.addr;
    chan_.issue(Command::kAct, a, 0);
    QueueEntry e = entry(0, 0, 5);
    e.req.type = Request::Type::kWrite;
    auto q = queue(e);
    const auto d = sched_.pick(q, chan_, noneBlocked, cfg_.timing.tRCD);
    ASSERT_NE(d.index, SchedDecision::kNone);
    EXPECT_EQ(d.cmd, Command::kWr);
}

// ------------------------------------------- differential vs reference

/**
 * Reference FR-FCFS with a column cap: the straightforward two-pass
 * algorithm (classify every entry and record each bank's oldest usable
 * non-hit, then take the oldest uncapped hit, else the oldest usable
 * entry), ranking by queue position. Keeps its own hit streaks,
 * updated by the same rule as FrFcfsScheduler::onIssue.
 */
class ReferenceScheduler
{
  public:
    ReferenceScheduler(const DramConfig &cfg, std::uint32_t cap)
        : org_(cfg.org), cap_(cap), hit_streak_(cfg.org.totalBanks(), 0)
    {
    }

    void
    onIssue(const Address &addr, Command cmd, bool was_hit)
    {
        const auto fb = org_.flatOf(addr);
        if ((cmd == Command::kRd || cmd == Command::kWr) && was_hit)
            hit_streak_[fb] += 1;
        else if (cmd == Command::kAct)
            hit_streak_[fb] = 0;
    }

    SchedDecision
    pick(const RequestQueue &q, const DramChannel &chan,
         const BankFilter &blocked, Tick now) const
    {
        const std::size_t n = q.size();
        constexpr std::size_t kNone = ~std::size_t{0};
        std::vector<std::size_t> oldest_nonhit(org_.totalBanks(), kNone);
        std::vector<std::optional<RowStatus>> status(n);
        std::size_t oldest_any = kNone;
        for (std::size_t i = 0; i < n; ++i) {
            const auto &a = q[i].req.addr;
            const RowStatus st = chan.rowStatus(a);
            if (st != RowStatus::kHit && blocked(a))
                continue;
            status[i] = st;
            oldest_any = std::min(oldest_any, i);
            if (st != RowStatus::kHit) {
                auto &o = oldest_nonhit[org_.flatOf(a)];
                o = std::min(o, i);
            }
        }
        std::size_t best_hit = kNone;
        for (std::size_t i = 0; i < n; ++i) {
            if (status[i] != RowStatus::kHit)
                continue;
            const auto fb = org_.flatOf(q[i].req.addr);
            const bool capped = hit_streak_[fb] >= cap_ &&
                                oldest_nonhit[fb] != kNone &&
                                oldest_nonhit[fb] < i;
            if (!capped)
                best_hit = std::min(best_hit, i);
        }
        const std::size_t choice = best_hit != kNone ? best_hit
                                                     : oldest_any;
        if (choice == kNone)
            return SchedDecision{};
        SchedDecision d;
        d.index = static_cast<std::uint32_t>(choice);
        d.cmd = leaky::ctrl::nextCommandFor(q[choice].req, *status[choice]);
        d.earliest =
            std::max(now, chan.earliestIssue(d.cmd, q[choice].req.addr));
        return d;
    }

  private:
    leaky::dram::Organization org_;
    std::uint32_t cap_;
    std::vector<std::uint32_t> hit_streak_;
};

/** The bank-filter shapes the controller produces. */
struct FilterCase {
    enum class Kind { kOneBank, kRankBankPair, kAll } kind = Kind::kAll;
    Address target;

    static bool
    blocks(const void *ctx, const Address &a)
    {
        const auto &f = *static_cast<const FilterCase *>(ctx);
        switch (f.kind) {
          case Kind::kOneBank: // A bank-level back-off.
            return a.rank == f.target.rank &&
                   a.bankgroup == f.target.bankgroup &&
                   a.bank == f.target.bank;
          case Kind::kRankBankPair: // RFMsb: one bank in every group.
            return a.rank == f.target.rank && a.bank == f.target.bank;
          case Kind::kAll:
            return true;
        }
        return false;
    }
};

TEST(SchedulerDifferential, OnePassMatchesTwoPassReference)
{
    const DramConfig cfg = DramConfig::ddr5Paper();
    constexpr int kCases = 12'000;
    constexpr std::array<std::uint32_t, 3> kCaps = {1, 2, 16};
    std::size_t hits_chosen = 0;
    std::size_t capped_cases = 0;

    for (int c = 0; c < kCases; ++c) {
        leaky::sim::Rng rng(leaky::sim::seedFanout(2024, c));
        const std::uint32_t cap = kCaps[rng.below(kCaps.size())];
        FrFcfsScheduler sched(cfg.org, cap);
        ReferenceScheduler ref(cfg, cap);
        DramChannel chan(cfg);

        // 2-4 banks from a small pool in which (rank, bank) pairs recur
        // across bank groups, so RFMsb-style filters straddle banks.
        std::vector<Address> banks(rng.range(2, 4));
        for (auto &b : banks) {
            b.rank = static_cast<std::uint32_t>(rng.below(2));
            b.bankgroup = static_cast<std::uint32_t>(rng.below(3));
            b.bank = static_cast<std::uint32_t>(rng.below(2));
            cfg.org.annotate(b);
        }

        // Random open rows (row 3 is never queued: an all-conflict
        // bank), and hit streaks driven across the cap.
        Tick t = 0;
        for (auto b : banks) {
            if (chan.openRow(b) == DramChannel::kNoRow && rng.chance(0.7)) {
                b.row = static_cast<std::uint32_t>(rng.below(4));
                t = std::max(t, chan.earliestIssue(Command::kAct, b));
                chan.issue(Command::kAct, b, t);
            }
            const auto streak = rng.below(cap + 3);
            for (std::uint64_t i = 0; i < streak; ++i) {
                sched.onIssue(b, Command::kRd, true);
                ref.onIssue(b, Command::kRd, true);
            }
            capped_cases += streak >= cap;
        }

        RequestQueue q(cfg.org);
        const auto depth = rng.below(65);
        for (std::uint64_t i = 0; i < depth; ++i) {
            QueueEntry e;
            e.req.type = rng.chance(0.5) ? Request::Type::kRead
                                         : Request::Type::kWrite;
            e.req.addr = banks[rng.below(banks.size())];
            e.req.addr.row = static_cast<std::uint32_t>(rng.below(3));
            q.push(std::move(e));
        }

        FilterCase filter;
        BankFilter blocked;
        const auto shape = rng.below(4);
        if (shape > 0) {
            filter.kind = static_cast<FilterCase::Kind>(shape - 1);
            filter.target = banks[rng.below(banks.size())];
            blocked = BankFilter{&FilterCase::blocks, &filter};
        }

        const Tick now = t + rng.below(200);
        const auto got = sched.pick(q, chan, blocked, now);
        const auto want = ref.pick(q, chan, blocked, now);
        ASSERT_EQ(got.index == SchedDecision::kNone,
                  want.index == SchedDecision::kNone) << "case " << c;
        if (want.index == SchedDecision::kNone)
            continue;
        ASSERT_EQ(got.index, want.index) << "case " << c;
        ASSERT_EQ(got.cmd, want.cmd) << "case " << c;
        ASSERT_EQ(got.earliest, want.earliest) << "case " << c;
        hits_chosen += want.cmd == Command::kRd ||
                       want.cmd == Command::kWr;
    }
    // The draw reaches both sides of the cap and both decision kinds.
    EXPECT_GT(capped_cases, 1000u);
    EXPECT_GT(hits_chosen, 1000u);
}

} // namespace
