#include "defense/graphene.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace leaky::defense {

using ctrl::Address;
using ctrl::PreventiveActionKind;
using ctrl::RfmRequest;
using dram::Command;
using sim::Tick;

GrapheneDefense::GrapheneDefense(const dram::DramConfig &dram_cfg,
                                 const GrapheneConfig &cfg)
    : dram_cfg_(dram_cfg), cfg_(cfg),
      entry_row_(static_cast<std::size_t>(dram_cfg.org.totalBanks()) *
                     cfg.table_entries,
                 kNoRow),
      entry_count_(entry_row_.size(), 0),
      spill_(dram_cfg.org.totalBanks(), 0),
      used_(dram_cfg.org.totalBanks(), 0)
{
    LEAKY_ASSERT(cfg_.threshold > 0, "Graphene threshold must be > 0");
    LEAKY_ASSERT(cfg_.table_entries > 0, "Graphene table must be > 0");
}

std::uint32_t
GrapheneDefense::slotBegin(std::uint32_t flat_bank) const
{
    return flat_bank * cfg_.table_entries;
}

std::uint32_t
GrapheneDefense::findSlot(std::uint32_t flat_bank, std::uint32_t row) const
{
    // Occupied slots are packed at the front of the bank's range, so
    // the scan is O(live entries), not O(table size).
    const auto begin = slotBegin(flat_bank);
    const auto end = begin + used_[flat_bank];
    for (std::uint32_t s = begin; s < end; ++s) {
        if (entry_row_[s] == row)
            return s;
    }
    return kNoRow;
}

void
GrapheneDefense::requestVrr(const Address &addr, std::uint32_t row)
{
    RfmRequest req;
    req.kind = Command::kVrr;
    req.action = PreventiveActionKind::kVictimRefresh;
    req.target = addr;
    req.target.row = row;
    pending_.push(req);
}

void
GrapheneDefense::maybeReset(Tick now)
{
    if (cfg_.reset_period == 0 || now < next_reset_)
        return;
    next_reset_ = now + cfg_.reset_period;
    std::fill(entry_row_.begin(), entry_row_.end(), kNoRow);
    std::fill(entry_count_.begin(), entry_count_.end(), 0);
    std::fill(spill_.begin(), spill_.end(), 0);
    std::fill(used_.begin(), used_.end(), 0);
}

void
GrapheneDefense::onActivate(const Address &addr, Tick now)
{
    maybeReset(now);
    const auto fb = dram_cfg_.org.flatOf(addr);
    auto slot = findSlot(fb, addr.row);

    if (slot == kNoRow) {
        if (used_[fb] < cfg_.table_entries) {
            // Free entry: adopt the row. The count starts one above the
            // spillover counter -- the Misra-Gries invariant that an
            // untracked row may have been activated up to spill times.
            slot = slotBegin(fb) + used_[fb];
            used_[fb] += 1;
            entry_row_[slot] = addr.row;
            entry_count_[slot] = spill_[fb] + 1;
        } else {
            // Full table: the spillover counter absorbs the activation
            // until it catches up with the coldest entry, which is then
            // evicted and replaced by the incoming row at the spillover
            // count (the Graphene swap rule).
            spill_[fb] += 1;
            const auto begin = slotBegin(fb);
            std::uint32_t min_slot = begin;
            for (std::uint32_t s = begin + 1;
                 s < begin + cfg_.table_entries; ++s) {
                if (entry_count_[s] < entry_count_[min_slot])
                    min_slot = s;
            }
            if (spill_[fb] < entry_count_[min_slot])
                return; // Still colder than every tracked row.
            slot = min_slot;
            entry_row_[slot] = addr.row;
            entry_count_[slot] = spill_[fb];
        }
    } else {
        entry_count_[slot] += 1;
    }

    if (entry_count_[slot] >= cfg_.threshold) {
        // The victims get refreshed; the aggressor's count restarts.
        // The entry stays resident (it is clearly a hot row).
        entry_count_[slot] = 0;
        requestVrr(addr, addr.row);
    }
}

std::optional<RfmRequest>
GrapheneDefense::pendingRfm(Tick)
{
    if (pending_.empty())
        return std::nullopt;
    const RfmRequest req = pending_.pop();
    vrrs_ += 1;
    return req;
}

void
GrapheneDefense::onRfmIssued(const RfmRequest &, Tick, Tick)
{
    // Counter state was already reset when the VRR was requested.
}

Tick
GrapheneDefense::nextEventTick(Tick) const
{
    // No timer. An activation does not wake the controller at its next
    // command slot, so a VRR queued by onActivate() waits for the
    // controller's next wake-up, and arrivals move that wake-up: when it
    // issues depends on the traffic around it. The figure goldens pin this
    // timing.
    return sim::kTickMax;
}

std::uint32_t
GrapheneDefense::trackedCount(const Address &addr) const
{
    const auto slot = findSlot(dram_cfg_.org.flatOf(addr), addr.row);
    return slot == kNoRow ? 0 : entry_count_[slot];
}

std::uint32_t
GrapheneDefense::spillCount(const Address &addr) const
{
    return spill_[dram_cfg_.org.flatOf(addr)];
}

std::uint32_t
GrapheneDefense::tableOccupancy(const Address &addr) const
{
    return used_[dram_cfg_.org.flatOf(addr)];
}

} // namespace leaky::defense
