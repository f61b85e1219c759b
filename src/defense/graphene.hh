/**
 * @file
 * Graphene-style frequent-item tracker (Park et al., MICRO'20) as a
 * controller-side defense: each bank keeps a Misra-Gries summary (a
 * bounded table of (row, count) entries plus a spillover counter) over
 * its activation stream. When a tracked row's count reaches the
 * targeted-refresh threshold the defense asks the controller to issue a
 * VRR (victim-row refresh) for that row and resets the count — the
 * preventive action the tracker covert channel observes (the paper's
 * channel analysis generalises: *any* activation-triggered preventive
 * action is a latency observable; Graphene's is per-aggressor instead
 * of PRAC's channel-wide back-off).
 *
 * The summary guarantees that any row activated more than
 * W / (entries + 1) times within a window of W activations occupies a
 * table entry, so with entries >= W / T no row reaches T activations
 * untracked (policy.hh derives the sizes from NRH).
 */

#ifndef LEAKY_DEFENSE_GRAPHENE_HH
#define LEAKY_DEFENSE_GRAPHENE_HH

#include <cstdint>
#include <vector>

#include "ctrl/defense_iface.hh"
#include "defense/request_queue.hh"
#include "dram/config.hh"

namespace leaky::defense {

/** Graphene configuration (see policy.hh for the NRH derivations). */
struct GrapheneConfig {
    /** Targeted-refresh threshold T: a tracked row reaching it gets a
     *  VRR and a counter reset. */
    std::uint32_t threshold = 80;
    /** Misra-Gries entries per bank (the CAM size in hardware). */
    std::uint32_t table_entries = 64;
    /**
     * Tables and spillover counters reset every refresh window (the
     * periodic refresh wipes the retention clock Graphene reasons
     * about, and the W in the entries = W / T sizing is per-window).
     * 0 disables the reset (tests). Applied lazily on the first
     * activation past the window edge -- no timer needed.
     */
    sim::Tick reset_period = 32'000'000'000; ///< tREFW, 32 ms.
};

/** Controller-side Graphene-style tracker. */
class GrapheneDefense final : public ctrl::ControllerDefense
{
  public:
    GrapheneDefense(const dram::DramConfig &dram_cfg,
                    const GrapheneConfig &cfg);

    // ctrl::ControllerDefense
    void onActivate(const ctrl::Address &addr, sim::Tick now) override;
    std::optional<ctrl::RfmRequest> pendingRfm(sim::Tick now) override;
    void onRfmIssued(const ctrl::RfmRequest &req, sim::Tick issued,
                     sim::Tick end) override;
    sim::Tick nextEventTick(sim::Tick now) const override;

    /** Tracked activation count of @p addr's row (0 if untracked). */
    std::uint32_t trackedCount(const ctrl::Address &addr) const;

    /** Spillover-counter value of @p addr's bank (tests). */
    std::uint32_t spillCount(const ctrl::Address &addr) const;

    /** Occupied table entries of @p addr's bank (tests). */
    std::uint32_t tableOccupancy(const ctrl::Address &addr) const;

    /** Total targeted refreshes requested so far. */
    std::uint64_t vrrCount() const { return vrrs_; }

  private:
    static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

    /** Table slot range [begin, end) of one flat bank. */
    std::uint32_t slotBegin(std::uint32_t flat_bank) const;

    /** Slot of @p row in @p flat_bank's table, or kNoRow. */
    std::uint32_t findSlot(std::uint32_t flat_bank,
                           std::uint32_t row) const;

    void requestVrr(const ctrl::Address &addr, std::uint32_t row);

    /** Per-refresh-window table wipe (lazy; see reset_period). */
    void maybeReset(sim::Tick now);

    dram::DramConfig dram_cfg_;
    GrapheneConfig cfg_;
    /** Entry arrays, all banks concatenated: bank b owns slots
     *  [b * entries, (b + 1) * entries). row kNoRow = free slot. */
    std::vector<std::uint32_t> entry_row_;
    std::vector<std::uint32_t> entry_count_;
    std::vector<std::uint32_t> spill_;    ///< Per flat bank.
    std::vector<std::uint32_t> used_;     ///< Live entries per flat bank.
    RequestQueue pending_;
    sim::Tick next_reset_ = 0;
    std::uint64_t vrrs_ = 0;
};

} // namespace leaky::defense

#endif // LEAKY_DEFENSE_GRAPHENE_HH
