/**
 * @file
 * PRAC / PRAC-RIAC / Bank-Level PRAC defense unit tests, a
 * differential test of the cached per-bank top counter against a
 * brute-force reference, and the steady-state zero-allocation contract.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "defense/prac.hh"
#include "testing_alloc_counter.hh"

namespace {

using leaky::defense::PracConfig;
using leaky::defense::PracDefense;
using leaky::dram::AlertInfo;
using leaky::dram::AlertSink;
using leaky::dram::Address;
using leaky::dram::Command;
using leaky::dram::DramConfig;
using leaky::sim::Tick;

class RecordingSink final : public AlertSink
{
  public:
    void raiseAlert(const AlertInfo &info) override
    {
        alerts.push_back(info);
    }
    std::vector<AlertInfo> alerts;
};

Address
addr(std::uint32_t bg, std::uint32_t bank, std::uint32_t row,
     std::uint32_t rank = 0)
{
    Address a;
    a.rank = rank;
    a.bankgroup = bg;
    a.bank = bank;
    a.row = row;
    return a;
}

class PracTest : public ::testing::Test
{
  protected:
    PracTest() : dram_cfg_(DramConfig::ddr5Paper()) {}

    std::unique_ptr<PracDefense>
    make(PracConfig cfg)
    {
        return std::make_unique<PracDefense>(dram_cfg_, cfg, &sink_);
    }

    /** Close @p row in its bank @p times (each close increments). */
    static void
    close(PracDefense &prac, const Address &a, std::uint32_t times,
          Tick start = 0)
    {
        for (std::uint32_t i = 0; i < times; ++i)
            prac.onPrecharge(a, start + i * 100'000);
    }

    DramConfig dram_cfg_;
    RecordingSink sink_;
};

TEST_F(PracTest, CountsIncrementOnPrechargeNotActivate)
{
    PracConfig cfg;
    cfg.nbo = 100;
    auto prac = make(cfg);
    const auto a = addr(0, 0, 7);
    prac->onActivate(a, 0);
    EXPECT_EQ(prac->counterValue(a), 0u);
    prac->onPrecharge(a, 10);
    EXPECT_EQ(prac->counterValue(a), 1u);
}

TEST_F(PracTest, AlertAtNbo)
{
    PracConfig cfg;
    cfg.nbo = 5;
    auto prac = make(cfg);
    close(*prac, addr(0, 0, 7), 4);
    EXPECT_TRUE(sink_.alerts.empty());
    close(*prac, addr(0, 0, 7), 1, 1'000'000);
    ASSERT_EQ(sink_.alerts.size(), 1u);
    EXPECT_FALSE(sink_.alerts[0].bank_scoped);
}

TEST_F(PracTest, NoReAlertWhileRecoveryOutstanding)
{
    PracConfig cfg;
    cfg.nbo = 5;
    auto prac = make(cfg);
    close(*prac, addr(0, 0, 7), 10);
    EXPECT_EQ(sink_.alerts.size(), 1u); // Suppressed until recovery.
}

TEST_F(PracTest, RecoveryRfmResetsTopCounterAndArmsCooldown)
{
    PracConfig cfg;
    cfg.nbo = 5;
    cfg.rfms_per_backoff = 4;
    cfg.cooldown = 1'000'000;
    auto prac = make(cfg);
    const auto hot = addr(0, 0, 7);
    const auto warm = addr(0, 0, 9);
    close(*prac, hot, 5);
    close(*prac, warm, 3);
    ASSERT_EQ(sink_.alerts.size(), 1u);

    // Full recovery: rfms_per_backoff x ranks RFMab windows.
    Address rank0 = addr(0, 0, 0);
    Address rank1 = addr(0, 0, 0, 1);
    const Tick t0 = 2'000'000;
    for (std::uint32_t i = 0; i < cfg.rfms_per_backoff; ++i) {
        prac->onRfm(Command::kRfmAll, rank0, true,
                    t0 + i * 305'000);
        prac->onRfm(Command::kRfmAll, rank1, true,
                    t0 + i * 305'000);
    }
    // The hottest row was serviced (reset), the warm one next, etc.
    EXPECT_EQ(prac->counterValue(hot), 0u);
    EXPECT_EQ(prac->counterValue(warm), 0u);

    // Immediately after recovery the cooldown suppresses alerts...
    close(*prac, hot, 5, t0 + 4 * 305'000 + 1);
    EXPECT_EQ(sink_.alerts.size(), 1u);
    // ...but after the cooldown a new alert fires.
    close(*prac, hot, 1, t0 + 4 * 305'000 + cfg.cooldown + 400'000);
    EXPECT_EQ(sink_.alerts.size(), 2u);
}

TEST_F(PracTest, EachRfmServicesOneAggressor)
{
    PracConfig cfg;
    cfg.nbo = 100;
    auto prac = make(cfg);
    close(*prac, addr(0, 0, 1), 30);
    close(*prac, addr(1, 2, 2), 20);
    close(*prac, addr(2, 3, 3), 10);

    Address rank0 = addr(0, 0, 0);
    prac->onRfm(Command::kRfmAll, rank0, false, 0);
    // Only the hottest row across the rank is reset.
    EXPECT_EQ(prac->counterValue(addr(0, 0, 1)), 0u);
    EXPECT_EQ(prac->counterValue(addr(1, 2, 2)), 20u);
    EXPECT_EQ(prac->counterValue(addr(2, 3, 3)), 10u);
}

TEST_F(PracTest, RfmSameBankScopesToBankIndex)
{
    PracConfig cfg;
    cfg.nbo = 100;
    auto prac = make(cfg);
    close(*prac, addr(0, 1, 5), 40); // Bank index 1.
    close(*prac, addr(0, 2, 6), 50); // Bank index 2 (hotter).

    Address target = addr(0, 1, 0);
    prac->onRfm(Command::kRfmSameBank, target, false, 0);
    // Only bank index 1 is in scope, so its row resets even though a
    // hotter row exists in bank 2.
    EXPECT_EQ(prac->counterValue(addr(0, 1, 5)), 0u);
    EXPECT_EQ(prac->counterValue(addr(0, 2, 6)), 50u);
}

TEST_F(PracTest, BankLevelAlertsCarryBankCoordinates)
{
    PracConfig cfg;
    cfg.nbo = 5;
    cfg.bank_level = true;
    auto prac = make(cfg);
    close(*prac, addr(3, 1, 7), 5);
    ASSERT_EQ(sink_.alerts.size(), 1u);
    EXPECT_TRUE(sink_.alerts[0].bank_scoped);
    EXPECT_EQ(sink_.alerts[0].bank.bankgroup, 3u);
    EXPECT_EQ(sink_.alerts[0].bank.bank, 1u);

    // Another bank can alert independently while the first recovers.
    close(*prac, addr(5, 2, 9), 5, 1'000'000);
    EXPECT_EQ(sink_.alerts.size(), 2u);
}

TEST_F(PracTest, RiacInitialisesCountersRandomly)
{
    PracConfig cfg;
    cfg.nbo = 128;
    cfg.riac = true;
    cfg.seed = 99;
    auto prac = make(cfg);

    // First close materialises a random initial value; across many rows
    // the values should span [0, nbo) rather than all being zero.
    std::uint32_t max_seen = 0;
    std::uint32_t min_seen = ~0u;
    for (std::uint32_t row = 0; row < 200; ++row) {
        const auto a = addr(0, 0, row);
        prac->onPrecharge(a, row * 1000);
        const auto v = prac->counterValue(a);
        max_seen = std::max(max_seen, v);
        min_seen = std::min(min_seen, v);
    }
    EXPECT_GT(max_seen, 64u);
    EXPECT_LT(min_seen, 32u);
}

TEST_F(PracTest, RiacCanAlertEarly)
{
    PracConfig cfg;
    cfg.nbo = 128;
    cfg.riac = true;
    cfg.seed = 7;
    auto prac = make(cfg);
    // Closing 200 distinct rows once each: with random init in
    // [0, 128), some row starts at 127 and alerts on its first close.
    for (std::uint32_t row = 0; row < 200 && sink_.alerts.empty(); ++row)
        prac->onPrecharge(addr(0, 0, row), row * 1000);
    EXPECT_FALSE(sink_.alerts.empty());
}

TEST_F(PracTest, RiacIsSeedDeterministic)
{
    PracConfig cfg;
    cfg.nbo = 128;
    cfg.riac = true;
    cfg.seed = 1234;
    auto a = make(cfg);
    auto b = make(cfg);
    for (std::uint32_t row = 0; row < 50; ++row) {
        a->onPrecharge(addr(0, 0, row), row);
        b->onPrecharge(addr(0, 0, row), row);
        EXPECT_EQ(a->counterValue(addr(0, 0, row)),
                  b->counterValue(addr(0, 0, row)));
    }
}

// ------------------------------------------- differential vs reference

/**
 * Brute-force PRAC counter model: an ordered map of counters per bank,
 * scanned in full on every RFM. Within a bank the hottest row wins and
 * the lowest row id breaks ties; across banks the earliest bank in the
 * command's scope order keeps a tie. Draws initial values from its own
 * generator in the same order the defense does (first touch, then
 * every service), so the two agree exactly when the selections agree.
 */
class ReferencePrac
{
  public:
    ReferencePrac(const DramConfig &dram_cfg, const PracConfig &cfg)
        : org_(dram_cfg.org), cfg_(cfg), rng_(cfg.seed),
          banks_(dram_cfg.org.totalBanks())
    {
        if (cfg_.riac && cfg_.riac_init_max == 0)
            cfg_.riac_init_max = cfg_.nbo;
    }

    void
    onPrecharge(const Address &a)
    {
        auto &rows = banks_[org_.flatOf(a)];
        auto it = rows.find(a.row);
        if (it == rows.end()) {
            const std::uint32_t first =
                cfg_.warm_start && !cfg_.riac
                    ? static_cast<std::uint32_t>(rng_.below(cfg_.nbo))
                    : initValue();
            it = rows.emplace(a.row, first).first;
        }
        it->second += 1;
    }

    void
    onRfm(Command kind, const Address &a)
    {
        std::vector<std::uint32_t> scope;
        for (std::uint32_t bg = 0; bg < org_.bankgroups; ++bg) {
            for (std::uint32_t b = 0; b < org_.banks_per_group; ++b) {
                const bool in_scope =
                    kind == Command::kRfmAll ||
                    (kind == Command::kRfmSameBank && b == a.bank) ||
                    (kind == Command::kRfmOneBank && bg == a.bankgroup &&
                     b == a.bank);
                if (in_scope)
                    scope.push_back(org_.flatBank(a.rank, bg, b));
            }
        }
        std::uint32_t *top = nullptr;
        for (const auto fb : scope) {
            for (auto &[row, count] : banks_[fb]) {
                // Ascending row order: strict > keeps the lowest row
                // within a bank and the earliest bank across banks.
                if (top == nullptr || count > *top)
                    top = &count;
            }
        }
        if (top != nullptr)
            *top = initValue();
    }

    const std::vector<std::map<std::uint32_t, std::uint32_t>> &
    banks() const
    {
        return banks_;
    }

  private:
    std::uint32_t
    initValue()
    {
        return cfg_.riac ? static_cast<std::uint32_t>(
                               rng_.below(cfg_.riac_init_max))
                         : 0;
    }

    leaky::dram::Organization org_;
    PracConfig cfg_;
    leaky::sim::Rng rng_;
    std::vector<std::map<std::uint32_t, std::uint32_t>> banks_;
};

TEST_F(PracTest, CachedTopCounterMatchesBruteForceReference)
{
    const auto &org = dram_cfg_.org;
    std::size_t rfms = 0;
    for (int variant = 0; variant < 4; ++variant) {
        for (std::uint64_t seq = 0; seq < 40; ++seq) {
            PracConfig cfg;
            cfg.nbo = 32;
            cfg.seed = leaky::sim::seedFanout(77, seq);
            cfg.warm_start = variant == 1;
            cfg.riac = variant == 2;
            cfg.bank_level = variant == 3;
            if (cfg.riac)
                cfg.riac_init_max = 4; // Small draws keep ties common.
            auto prac = make(cfg);
            ReferencePrac ref(dram_cfg_, cfg);

            leaky::sim::Rng rng(leaky::sim::seedFanout(99, seq));
            for (int step = 0; step < 1500; ++step) {
                // Few banks and rows, so ties within a bank, across
                // banks and across RFMsb bank groups are frequent.
                Address a = addr(static_cast<std::uint32_t>(rng.below(3)),
                                 static_cast<std::uint32_t>(rng.below(2)),
                                 static_cast<std::uint32_t>(rng.below(5)),
                                 static_cast<std::uint32_t>(rng.below(2)));
                const Tick now = static_cast<Tick>(step) * 1000;
                if (!rng.chance(0.15)) {
                    prac->onPrecharge(a, now);
                    ref.onPrecharge(a);
                    continue;
                }
                constexpr Command kKinds[] = {Command::kRfmAll,
                                              Command::kRfmSameBank,
                                              Command::kRfmOneBank};
                const Command kind = kKinds[rng.below(3)];
                prac->onRfm(kind, a, rng.chance(0.5), now);
                ref.onRfm(kind, a);
                rfms += 1;

                for (std::uint32_t fb = 0; fb < org.totalBanks(); ++fb) {
                    for (const auto &[row, count] : ref.banks()[fb]) {
                        Address probe;
                        probe.rank = fb / org.banksPerRank();
                        probe.bankgroup = fb / org.banks_per_group %
                                          org.bankgroups;
                        probe.bank = fb % org.banks_per_group;
                        probe.row = row;
                        ASSERT_EQ(prac->counterValue(probe), count)
                            << "variant " << variant << " seq " << seq
                            << " step " << step << " bank " << fb
                            << " row " << row;
                    }
                }
            }
        }
    }
    EXPECT_GT(rfms, 20'000u);
}

// -------------------------------------------- zero-allocation contract

/** Alert sink that records without allocating. */
class CountingSink final : public AlertSink
{
  public:
    void
    raiseAlert(const AlertInfo &info) override
    {
        alerts += 1;
        last = info;
    }
    std::uint64_t alerts = 0;
    AlertInfo last;
};

// The PRAC counterpart of Tracker.SteadyStateDoesNotAllocate: once
// every touched row has a counter, closes and RFMs (including the
// recovery RFMs of repeated back-offs) never reach the heap.
TEST(Prac, SteadyStateDoesNotAllocate)
{
    const auto dram_cfg = DramConfig::ddr5Paper();
    for (int variant = 0; variant < 3; ++variant) {
        PracConfig cfg;
        cfg.nbo = 16;
        cfg.riac = variant == 1;
        cfg.bank_level = variant == 2;
        CountingSink sink;
        PracDefense prac(dram_cfg, cfg, &sink);

        const Address a = addr(0, 0, 10);
        const Address b = addr(0, 0, 11);
        Tick now = 0;
        std::uint64_t serviced = 0;
        const auto hammer = [&](int rounds) {
            for (int i = 0; i < rounds; ++i) {
                now += 100'000;
                prac.onPrecharge(a, now);
                prac.onPrecharge(b, now);
                if (sink.alerts == serviced)
                    continue;
                serviced = sink.alerts;
                // Back-off recovery, as the controller issues it.
                for (std::uint32_t k = 0; k < cfg.rfms_per_backoff; ++k) {
                    if (sink.last.bank_scoped) {
                        prac.onRfm(Command::kRfmOneBank, sink.last.bank,
                                   true, now);
                        continue;
                    }
                    for (std::uint32_t r = 0; r < dram_cfg.org.ranks; ++r)
                        prac.onRfm(Command::kRfmAll, addr(0, 0, 0, r), true,
                                   now);
                }
            }
        };
        hammer(256); // Materialise both counters, run a few back-offs.

        const std::uint64_t alerts_before = sink.alerts;
        const std::uint64_t before = leaky_test_heap_allocs.load();
        hammer(4096);
        const std::uint64_t after = leaky_test_heap_allocs.load();
        EXPECT_EQ(after, before) << "variant " << variant;
        EXPECT_GT(sink.alerts, alerts_before + 10) << "variant " << variant;
    }
}

} // namespace
