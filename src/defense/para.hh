/**
 * @file
 * PARA (Probabilistic Adjacent Row Activation, Kim et al. ISCA'14) as a
 * stateless baseline for the §12 trigger-algorithm taxonomy: on every
 * activation the controller refreshes the neighbours with probability p.
 * The preventive action is observable but cannot be reliably triggered,
 * which is exactly why the paper classifies random trigger algorithms as
 * hard to exploit.
 */

#ifndef LEAKY_DEFENSE_PARA_HH
#define LEAKY_DEFENSE_PARA_HH

#include <cstdint>

#include "ctrl/defense_iface.hh"
#include "defense/request_queue.hh"
#include "dram/config.hh"
#include "sim/rng.hh"

namespace leaky::defense {

/** PARA configuration. */
struct ParaConfig {
    double probability = 0.02; ///< Neighbour-refresh chance per ACT.
    sim::Tick refresh_latency = 96'000; ///< Two row cycles (blast radius 1).
    std::uint64_t seed = 7;
};

/** Controller-side PARA defense. */
class ParaDefense final : public ctrl::ControllerDefense
{
  public:
    explicit ParaDefense(const ParaConfig &cfg);

    // ctrl::ControllerDefense
    void onActivate(const ctrl::Address &addr, sim::Tick now) override;
    std::optional<ctrl::RfmRequest> pendingRfm(sim::Tick now) override;
    void onRfmIssued(const ctrl::RfmRequest &req, sim::Tick issued,
                     sim::Tick end) override;
    sim::Tick nextEventTick(sim::Tick now) const override;

    std::uint64_t refreshCount() const { return refreshes_; }

  private:
    ParaConfig cfg_;
    sim::Rng rng_;
    RequestQueue pending_;
    std::uint64_t refreshes_ = 0;
};

} // namespace leaky::defense

#endif // LEAKY_DEFENSE_PARA_HH
