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
    req.latency_override = kParaRefreshLatency;
    pending_.push(req);
}

std::optional<RfmRequest>
ParaDefense::pendingRfm(Tick)
{
    if (pending_.empty())
        return std::nullopt;
    return pending_.pop();
}

void
ParaDefense::onRfmIssued(const RfmRequest &, Tick, Tick)
{
}

Tick
ParaDefense::nextEventTick(Tick) const
{
    // No timer. An activation does not wake the controller at its next
    // command slot, so a victim refresh queued by onActivate() waits for the
    // controller's next wake-up, and arrivals move that wake-up: when it
    // issues depends on the traffic around it. The figure goldens pin this
    // timing.
    return sim::kTickMax;
}

} // namespace leaky::defense
