/**
 * @file
 * Periodic RFM (PRFM) controller-side defense (paper §7.1): the
 * controller keeps a rolling-activation (RAA) counter per DRAM bank;
 * when a bank's counter reaches TRFM it issues a same-bank RFM command
 * (blocking that bank index in every bank group of the rank) and
 * decrements the affected counters by TRFM.
 */

#ifndef LEAKY_DEFENSE_PRFM_HH
#define LEAKY_DEFENSE_PRFM_HH

#include <cstdint>
#include <vector>

#include "ctrl/defense_iface.hh"
#include "defense/request_queue.hh"
#include "dram/config.hh"

namespace leaky::defense {

/** PRFM configuration. */
struct PrfmConfig {
    std::uint32_t trfm = 40; ///< Bank activation threshold (paper §7.1).
};

/** Controller-side PRFM defense. */
class PrfmDefense final : public ctrl::ControllerDefense
{
  public:
    PrfmDefense(const dram::DramConfig &dram_cfg, const PrfmConfig &cfg);

    // ctrl::ControllerDefense
    void onActivate(const ctrl::Address &addr, sim::Tick now) override;
    std::optional<ctrl::RfmRequest> pendingRfm(sim::Tick now) override;
    void onRfmIssued(const ctrl::RfmRequest &req, sim::Tick issued,
                     sim::Tick end) override;
    sim::Tick nextEventTick(sim::Tick now) const override;

    /** RAA counter of one bank (tests). */
    std::uint32_t raaCount(const ctrl::Address &addr) const;

    /** Total RFMs this defense has requested so far. */
    std::uint64_t rfmCount() const { return rfms_; }

  private:
    /** Same-bank pair identifying an RFMsb target: (rank, bank index). */
    std::uint32_t pairIndex(std::uint32_t rank, std::uint32_t bank) const;

    dram::DramConfig dram_cfg_;
    PrfmConfig cfg_;
    std::vector<std::uint32_t> raa_;      ///< Per flat bank.
    std::vector<bool> inflight_;          ///< Per (rank, bank) pair.
    RequestQueue pending_;
    std::uint64_t rfms_ = 0;
};

} // namespace leaky::defense

#endif // LEAKY_DEFENSE_PRFM_HH
