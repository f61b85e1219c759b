#include "attack/counter_leak.hh"

#include <cmath>

#include "sim/logging.hh"

namespace leaky::attack {

namespace {

/** Requestor ids of the attacker's and the victim's reads. */
constexpr std::int32_t kAttackerSource = 500;
constexpr std::int32_t kVictimSource = 501;

} // namespace

CounterLeakAttacker::CounterLeakAttacker(sys::MemoryPort &port,
                                         const CounterLeakConfig &cfg)
    : port_(port), cfg_(cfg)
{
    LEAKY_ASSERT(cfg_.shared_addr != 0 && cfg_.conflict_addr != 0,
                 "counter leak needs shared and conflict rows");
    // PRAC counters are per-channel; both rows must live on the
    // channel the config names.
    LEAKY_ASSERT(port_.mapper().decode(cfg_.shared_addr).channel ==
                         cfg_.channel &&
                     port_.mapper().decode(cfg_.conflict_addr).channel ==
                         cfg_.channel,
                 "counter-leak rows do not decode onto channel %u",
                 cfg_.channel);
}

void
CounterLeakAttacker::leak(
    std::function<void(const CounterLeakResult &)> on_done)
{
    on_done_ = std::move(on_done);
    start_ = port_.now();
    mark_ = start_;
    shared_activations_ = 0;
    next_shared_ = true;
    iterate();
}

void
CounterLeakAttacker::iterate()
{
    const bool shared = next_shared_;
    next_shared_ = !next_shared_;
    const std::uint64_t addr = shared ? cfg_.shared_addr
                                      : cfg_.conflict_addr;
    port_.schedule(kIterOverhead, [this, addr, shared] {
        port_.issueRead(addr, kAttackerSource, [this, shared](Tick done) {
            const Tick latency = done - mark_;
            mark_ = done;
            if (shared)
                shared_activations_ += 1;
            if (cfg_.classifier.classify(latency) ==
                LatencyClass::kBackoff) {
                CounterLeakResult result;
                result.attacker_activations = shared_activations_;
                result.leaked_count =
                    cfg_.nbo > shared_activations_
                        ? cfg_.nbo - shared_activations_
                        : 0;
                result.elapsed = done - start_;
                result.bits = std::log2(static_cast<double>(cfg_.nbo));
                result.throughput =
                    result.bits /
                    (static_cast<double>(result.elapsed) * 1e-12);
                if (on_done_)
                    on_done_(result);
                return;
            }
            iterate();
        });
    });
}

CounterLeakVictim::CounterLeakVictim(sys::MemoryPort &port,
                                     std::uint64_t shared_addr,
                                     std::uint64_t conflict_addr)
    : port_(port), shared_addr_(shared_addr), conflict_addr_(conflict_addr)
{
}

void
CounterLeakVictim::prime(std::uint32_t activations,
                         std::function<void()> on_done)
{
    on_done_ = std::move(on_done);
    remaining_ = activations;
    next_shared_ = true;
    iterate();
}

void
CounterLeakVictim::iterate()
{
    if (remaining_ == 0) {
        if (on_done_)
            on_done_();
        return;
    }
    const bool shared = next_shared_;
    next_shared_ = !next_shared_;
    const std::uint64_t addr = shared ? shared_addr_ : conflict_addr_;
    port_.schedule(kIterOverhead, [this, addr, shared] {
        port_.issueRead(addr, kVictimSource, [this, shared](Tick) {
            if (shared && remaining_ > 0)
                remaining_ -= 1;
            iterate();
        });
    });
}

} // namespace leaky::attack
