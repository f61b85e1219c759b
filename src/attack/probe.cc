#include "attack/probe.hh"

#include "sim/logging.hh"

namespace leaky::attack {

namespace {

/** Requestor id of this agent's reads. */
constexpr std::int32_t kProbeSource = 100;

} // namespace

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
    : port_(port), cfg_(std::move(cfg))
{
    LEAKY_ASSERT(!cfg_.addrs.empty(), "probe needs at least one address");
    // The channel field is the collector's contract (stats are read
    // from it); every probe row must actually decode onto it.
    for (auto addr : cfg_.addrs)
        LEAKY_ASSERT(port_.mapper().decode(addr).channel == cfg_.channel,
                     "probe address does not decode onto channel %u",
                     cfg_.channel);
    samples_.reserve(cfg_.iterations);
}

void
LatencyProbe::start(std::function<void()> on_done)
{
    on_done_ = std::move(on_done);
    mark_ = port_.now();
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
    const std::uint64_t addr = cfg_.addrs[iter_ % cfg_.addrs.size()];
    iter_ += 1;
    // clflush + loop overhead, then the (cache-bypassing) access.
    port_.schedule(kIterOverhead, [this, addr] {
        port_.issueRead(addr, kProbeSource, [this](Tick done) {
            samples_.push_back({done, done - mark_});
            mark_ = done;
            iterate();
        });
    });
}

} // namespace leaky::attack
