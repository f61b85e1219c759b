#include "defense/para.hh"

namespace leaky::defense {

using ctrl::RfmRequest;
using sim::Tick;

ParaDefense::ParaDefense(const ParaConfig &cfg) : cfg_(cfg), rng_(cfg.seed)
{
}

void
ParaDefense::onActivate(const ctrl::Address &addr, Tick)
{
    if (!rng_.chance(cfg_.probability))
        return;
    RfmRequest req;
    req.kind = dram::Command::kRfmOneBank;
    req.action = ctrl::PreventiveActionKind::kVictimRefresh;
    req.target = addr;
    req.latency_override = cfg_.refresh_latency;
    pending_.push(req);
}

std::optional<RfmRequest>
ParaDefense::pendingRfm(Tick)
{
    if (pending_.empty())
        return std::nullopt;
    RfmRequest req = pending_.pop();
    refreshes_ += 1;
    return req;
}

void
ParaDefense::onRfmIssued(const RfmRequest &, Tick, Tick)
{
}

Tick
ParaDefense::nextEventTick(Tick) const
{
    return sim::kTickMax;
}

} // namespace leaky::defense
