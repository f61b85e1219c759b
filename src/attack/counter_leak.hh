/**
 * @file
 * Activation-counter value leakage (paper §9.1, Table 3's row-granular
 * column): when the attacker shares a DRAM row with the victim, PRAC's
 * per-row counter aggregates both parties' activations. The attacker
 * hammers the shared row (alternating with a private conflict row) and
 * counts its own activations until the back-off fires: if the back-off
 * threshold is NBO and the attacker contributed `a` activations, the
 * victim must have contributed NBO - a, leaking log2(NBO) bits in one
 * shot. The paper measures 7 bits in 13.6 us on average (501 Kbps).
 */

#ifndef LEAKY_ATTACK_COUNTER_LEAK_HH
#define LEAKY_ATTACK_COUNTER_LEAK_HH

#include <cstdint>
#include <functional>

#include "attack/probe.hh"
#include "sys/port.hh"

namespace leaky::attack {

/** Counter-leak attack parameters. */
struct CounterLeakConfig {
    std::uint64_t shared_addr = 0;   ///< Row shared with the victim.
    std::uint64_t conflict_addr = 0; ///< Attacker's same-bank row.
    /** Channel both rows live on (PRAC counters are per-channel). */
    std::uint32_t channel = 0;
    std::uint32_t nbo = 128;
    LatencyClassifier classifier;
};

/** Result of one leak. */
struct CounterLeakResult {
    std::uint32_t attacker_activations = 0; ///< `a` above.
    std::uint32_t leaked_count = 0;         ///< NBO - a.
    Tick elapsed = 0;
    double bits = 0.0;       ///< log2(NBO).
    double throughput = 0.0; ///< bits / second.
};

/** The attacker process of §9.1. */
class CounterLeakAttacker final : private AccessLoop::Agent
{
  public:
    CounterLeakAttacker(sys::MemoryPort &port,
                        const CounterLeakConfig &cfg);

    /** Hammer until the back-off fires, then report the leak. */
    void leak(std::function<void(const CounterLeakResult &)> on_done);

  private:
    std::optional<std::uint64_t> step() override;
    void onRead(Tick issued, Tick done, Tick latency) override;

    sys::MemoryPort &port_;
    CounterLeakConfig cfg_;
    AccessLoop loop_;
    std::function<void(const CounterLeakResult &)> on_done_;
    Tick start_ = 0;
    bool next_shared_ = true;
    std::uint32_t shared_activations_ = 0;
};

/**
 * A scripted victim that activates the shared row a secret number of
 * times (priming the counter), then hands control to @p on_done.
 */
class CounterLeakVictim final : private AccessLoop::Agent
{
  public:
    CounterLeakVictim(sys::MemoryPort &port, std::uint64_t shared_addr,
                      std::uint64_t conflict_addr);

    void prime(std::uint32_t activations, std::function<void()> on_done);

  private:
    void iterate();
    std::optional<std::uint64_t> step() override;
    void onRead(Tick issued, Tick done, Tick latency) override;

    std::uint64_t shared_addr_;
    std::uint64_t conflict_addr_;
    AccessLoop loop_;
    std::function<void()> on_done_;
    std::uint32_t remaining_ = 0;
    bool next_shared_ = true;
};

} // namespace leaky::attack

#endif // LEAKY_ATTACK_COUNTER_LEAK_HH
