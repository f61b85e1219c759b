#include "attack/noise.hh"

#include "sim/logging.hh"

namespace leaky::attack {

NoiseAgent::NoiseAgent(sys::MemoryPort &port, const NoiseConfig &cfg)
    : cfg_(cfg), loop_(port, *this)
{
    LEAKY_ASSERT(cfg_.addrs.size() >= 2,
                 "noise agent needs at least two row addresses");
}

void
NoiseAgent::start()
{
    if (running_)
        return;
    running_ = true;
    loop_.arm(cfg_.sleep);
}

std::optional<std::uint64_t>
NoiseAgent::step()
{
    if (!running_)
        return std::nullopt;
    const std::uint64_t addr = cfg_.addrs[next_];
    next_ = (next_ + 1) % cfg_.addrs.size();
    loop_.arm(cfg_.sleep);
    return addr;
}

void
NoiseAgent::onRead(Tick, Tick, Tick)
{
    accesses_ += 1;
}

} // namespace leaky::attack
