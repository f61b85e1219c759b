#include "attack/probe.hh"

#include "sim/logging.hh"

namespace leaky::attack {

AccessLoop::AccessLoop(sys::MemoryPort &port, Agent &agent)
    : port_(port), agent_(agent),
      step_(sim::memberEvent<&AccessLoop::fire>(this))
{
}

void
AccessLoop::arm(Tick gap)
{
    port_.schedule(kIterOverhead + gap, step_);
}

void
AccessLoop::fire()
{
    const std::optional<std::uint64_t> addr = agent_.step();
    if (!addr)
        return;
    port_.issueRead(*addr, *this, port_.now());
}

void
AccessLoop::readDone(std::uint64_t tag, Tick done)
{
    const Tick latency = done - mark_;
    mark_ = done;
    agent_.onRead(tag, done, latency);
}

LatencyClassifier
LatencyClassifier::forTiming(const dram::Timing &timing, Tick base_latency,
                             std::uint32_t rfms_per_backoff)
{
    LatencyClassifier c;
    // A conflict costs tRP + tRCD + tCL on top of the loop floor.
    c.conflict_min = base_latency / 2 + timing.tRP;
    // An RFM window adds tRFM; a (double) postponed refresh adds 2xtRFC;
    // a back-off adds tABOACT + N recovery RFM windows. The back-off
    // threshold sits at ~60% of the nominal back-off latency, which for
    // small N collapses into the refresh band (Fig. 11).
    c.rfm_min = base_latency / 2 + timing.tRFM / 2 + timing.tRP;
    c.refresh_min = base_latency + timing.tRFC + timing.tRFC / 2;
    c.backoff_min = base_latency + timing.tABOACT +
                    rfms_per_backoff * timing.tRFM_backoff * 6 / 10;
    return c;
}

LatencyProbe::LatencyProbe(sys::MemoryPort &port, ProbeConfig cfg)
    : cfg_(std::move(cfg)), loop_(port, *this)
{
    LEAKY_ASSERT(!cfg_.addrs.empty(), "probe needs at least one address");
    // The channel field is the collector's contract (stats are read
    // from it); every probe row must actually decode onto it.
    for (auto addr : cfg_.addrs)
        LEAKY_ASSERT(port.mapper().decode(addr).channel == cfg_.channel,
                     "probe address does not decode onto channel %u",
                     cfg_.channel);
    samples_.reserve(cfg_.iterations);
}

void
LatencyProbe::start(std::function<void()> on_done)
{
    on_done_ = std::move(on_done);
    loop_.restart();
    iterate();
}

void
LatencyProbe::iterate()
{
    if (iter_ >= cfg_.iterations) {
        if (on_done_)
            on_done_();
        return;
    }
    loop_.arm();
}

std::optional<std::uint64_t>
LatencyProbe::step()
{
    return cfg_.addrs[iter_++ % cfg_.addrs.size()];
}

void
LatencyProbe::onRead(Tick, Tick done, Tick latency)
{
    samples_.push_back({done, latency});
    iterate();
}

} // namespace leaky::attack
