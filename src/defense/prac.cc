#include "defense/prac.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace leaky::defense {

using dram::Command;

PracDefense::PracDefense(const dram::DramConfig &dram_cfg,
                         const PracConfig &cfg, dram::AlertSink *sink)
    : dram_cfg_(dram_cfg), cfg_(cfg), sink_(sink), rng_(cfg.seed),
      banks_(dram_cfg.org.totalBanks()),
      bank_alert_active_(dram_cfg.org.totalBanks(), false),
      bank_cooldown_until_(dram_cfg.org.totalBanks(), 0),
      bank_recovery_left_(dram_cfg.org.totalBanks(), 0)
{
    LEAKY_ASSERT(sink_ != nullptr, "PRAC needs an alert sink");
    if (cfg_.riac && cfg_.riac_init_max == 0)
        cfg_.riac_init_max = cfg_.nbo;
}

std::uint32_t
PracDefense::flatBank(const Address &a) const
{
    return dram_cfg_.org.flatOf(a);
}

std::uint32_t
PracDefense::initValue()
{
    // RIAC: randomise on boot AND after every service (§11.2).
    if (cfg_.riac)
        return static_cast<std::uint32_t>(
            rng_.below(cfg_.riac_init_max));
    return 0;
}

PracDefense::BankCounters::Table::value_type &
PracDefense::counter(BankCounters &bank, std::uint32_t row)
{
    auto it = bank.rows.find(row);
    if (it == bank.rows.end()) {
        // First touch: warm-started counters model mid-lifetime state.
        const std::uint32_t first =
            cfg_.warm_start && !cfg_.riac
                ? static_cast<std::uint32_t>(rng_.below(cfg_.nbo))
                : initValue();
        it = bank.rows.emplace(row, first).first;
    }
    return *it;
}

std::uint32_t
PracDefense::counterValue(const Address &addr) const
{
    const auto &rows = banks_[flatBank(addr)].rows;
    const auto it = rows.find(addr.row);
    // Untouched rows under RIAC have an as-yet-unsampled random value;
    // report 0 (the value is only materialised on first close).
    return it == rows.end() ? 0 : it->second;
}

void
PracDefense::onActivate(const Address &, Tick)
{
    // PRAC counts at row close (paper §6.1), not at activation.
}

void
PracDefense::onPrecharge(const Address &addr, Tick now)
{
    auto &bank = banks_[flatBank(addr)];
    auto &entry = counter(bank, addr.row);
    entry.second += 1;
    bank.offer(entry);
    if (entry.second >= cfg_.nbo)
        tryRaise(addr, now);
}

void
PracDefense::onRefresh(std::uint32_t, Tick)
{
    // Activation counters persist across periodic refreshes; they are
    // only serviced by RFMs (back-off recovery).
}

void
PracDefense::tryRaise(const Address &addr, Tick now)
{
    if (cfg_.bank_level) {
        const auto fb = flatBank(addr);
        if (bank_alert_active_[fb] || now < bank_cooldown_until_[fb])
            return;
        bank_alert_active_[fb] = true;
        bank_recovery_left_[fb] = cfg_.rfms_per_backoff;
        alerts_ += 1;
        dram::AlertInfo info;
        info.asserted_at = now;
        info.bank_scoped = true;
        info.bank = addr;
        sink_->raiseAlert(info);
        return;
    }

    if (alert_active_ || now < cooldown_until_)
        return;
    alert_active_ = true;
    recovery_rfms_left_ =
        cfg_.rfms_per_backoff * dram_cfg_.org.ranks;
    alerts_ += 1;
    dram::AlertInfo info;
    info.asserted_at = now;
    info.bank_scoped = false;
    sink_->raiseAlert(info);
}

void
PracDefense::resetTopCounter(std::uint32_t first, std::uint32_t count,
                             std::uint32_t stride)
{
    BankCounters *winner = nullptr;
    for (std::uint32_t i = 0; i < count; ++i) {
        BankCounters &bank = banks_[first + i * stride];
        if (bank.top != nullptr &&
            (winner == nullptr || bank.top_count > winner->top_count))
            winner = &bank;
    }
    if (winner == nullptr)
        return;
    // Refreshing the victims of the top aggressor resets its counter;
    // RIAC re-randomises instead (§11.2). Only the winner's bank lost
    // its top, so only it is rescanned.
    winner->top->second = initValue();
    winner->top = nullptr;
    for (auto &entry : winner->rows)
        winner->offer(entry);
}

void
PracDefense::onRfm(Command kind, const Address &addr, bool during_backoff,
                   Tick now)
{
    // Each RFM window services ONE aggressor row: the device refreshes
    // the victims of the highest activation counter reachable by the
    // command's scope (§6.1: a 4-RFM back-off covers four aggressors).
    // The scope is walked in place, so an RFM never allocates.
    const auto &org = dram_cfg_.org;
    if (kind == Command::kRfmAll) {
        resetTopCounter(org.flatBank(addr.rank, 0, 0), org.banksPerRank(),
                        1);
    } else if (kind == Command::kRfmSameBank) {
        resetTopCounter(org.flatBank(addr.rank, 0, addr.bank),
                        org.bankgroups, org.banks_per_group);
    } else if (kind == Command::kRfmOneBank) {
        resetTopCounter(flatBank(addr), 1, 1);
    }

    if (!during_backoff)
        return;

    const Tick window = dram_cfg_.timing.tRFM_backoff;
    if (cfg_.bank_level && kind == Command::kRfmOneBank) {
        const auto fb = flatBank(addr);
        if (bank_recovery_left_[fb] > 0) {
            bank_recovery_left_[fb] -= 1;
            if (bank_recovery_left_[fb] == 0) {
                bank_alert_active_[fb] = false;
                bank_cooldown_until_[fb] = now + window + cfg_.cooldown;
            }
        }
    } else if (!cfg_.bank_level && recovery_rfms_left_ > 0) {
        recovery_rfms_left_ -= 1;
        if (recovery_rfms_left_ == 0) {
            alert_active_ = false;
            cooldown_until_ = now + window + cfg_.cooldown;
        }
    }
}

} // namespace leaky::defense
