#include "defense/prfm.hh"

namespace leaky::defense {

using ctrl::Address;
using ctrl::RfmRequest;
using dram::Command;
using sim::Tick;

PrfmDefense::PrfmDefense(const dram::DramConfig &dram_cfg,
                         const PrfmConfig &cfg)
    : dram_cfg_(dram_cfg), cfg_(cfg),
      raa_(dram_cfg.org.totalBanks(), 0),
      inflight_(dram_cfg.org.ranks * dram_cfg.org.banks_per_group, false)
{
}

std::uint32_t
PrfmDefense::pairIndex(std::uint32_t rank, std::uint32_t bank) const
{
    return rank * dram_cfg_.org.banks_per_group + bank;
}

std::uint32_t
PrfmDefense::raaCount(const Address &addr) const
{
    return raa_[dram_cfg_.org.flatOf(addr)];
}

void
PrfmDefense::onActivate(const Address &addr, Tick)
{
    const auto fb = dram_cfg_.org.flatOf(addr);
    raa_[fb] += 1;
    const auto pair = pairIndex(addr.rank, addr.bank);
    if (raa_[fb] >= cfg_.trfm && !inflight_[pair]) {
        inflight_[pair] = true;
        RfmRequest req;
        req.kind = Command::kRfmSameBank;
        req.target.channel = addr.channel;
        req.target.rank = addr.rank;
        req.target.bank = addr.bank;
        pending_.push(req);
    }
}

std::optional<RfmRequest>
PrfmDefense::pendingRfm(Tick)
{
    if (pending_.empty())
        return std::nullopt;
    RfmRequest req = pending_.pop();
    rfms_ += 1;
    return req;
}

void
PrfmDefense::onRfmIssued(const RfmRequest &req, Tick, Tick)
{
    for (std::uint32_t bg = 0; bg < dram_cfg_.org.bankgroups; ++bg) {
        auto &count = raa_[dram_cfg_.org.flatBank(req.target.rank, bg,
                                                  req.target.bank)];
        count = count > cfg_.trfm ? count - cfg_.trfm : 0;
    }
    inflight_[pairIndex(req.target.rank, req.target.bank)] = false;
}

Tick
PrfmDefense::nextEventTick(Tick) const
{
    // No timer. An activation does not wake the controller at its next
    // command slot, so an RFM queued by onActivate() waits for the
    // controller's next wake-up, and arrivals move that wake-up: when it
    // issues depends on the traffic around it. The figure goldens pin this
    // timing.
    return sim::kTickMax;
}

} // namespace leaky::defense
