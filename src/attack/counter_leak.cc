#include "attack/counter_leak.hh"

#include <cmath>

#include "sim/logging.hh"

namespace leaky::attack {

CounterLeakAttacker::CounterLeakAttacker(sys::MemoryPort &port,
                                         const CounterLeakConfig &cfg)
    : port_(port), cfg_(cfg), loop_(port, *this)
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
    loop_.restart();
    shared_activations_ = 0;
    next_shared_ = true;
    loop_.arm();
}

std::optional<std::uint64_t>
CounterLeakAttacker::step()
{
    return next_shared_ ? cfg_.shared_addr : cfg_.conflict_addr;
}

void
CounterLeakAttacker::onRead(Tick, Tick done, Tick latency)
{
    if (next_shared_)
        shared_activations_ += 1;
    next_shared_ = !next_shared_;
    if (cfg_.classifier.classify(latency) != LatencyClass::kBackoff) {
        loop_.arm();
        return;
    }
    CounterLeakResult result;
    result.attacker_activations = shared_activations_;
    result.leaked_count = cfg_.nbo > shared_activations_
                              ? cfg_.nbo - shared_activations_
                              : 0;
    result.elapsed = done - start_;
    result.bits = std::log2(static_cast<double>(cfg_.nbo));
    result.throughput =
        result.bits / (static_cast<double>(result.elapsed) * 1e-12);
    if (on_done_)
        on_done_(result);
}

CounterLeakVictim::CounterLeakVictim(sys::MemoryPort &port,
                                     std::uint64_t shared_addr,
                                     std::uint64_t conflict_addr)
    : shared_addr_(shared_addr), conflict_addr_(conflict_addr),
      loop_(port, *this)
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
    loop_.arm();
}

std::optional<std::uint64_t>
CounterLeakVictim::step()
{
    return next_shared_ ? shared_addr_ : conflict_addr_;
}

void
CounterLeakVictim::onRead(Tick, Tick, Tick)
{
    if (next_shared_ && remaining_ > 0)
        remaining_ -= 1;
    next_shared_ = !next_shared_;
    iterate();
}

} // namespace leaky::attack
