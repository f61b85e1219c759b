/**
 * @file
 * Hydra-style two-level RowHammer tracker (Qureshi et al., ISCA'22) as
 * a controller-side defense. Level one is a Group Count Table (GCT): one
 * counter per group of consecutive rows, cheap enough to keep on-chip
 * for every group. While a group's counter is below the group threshold
 * no row in it can be near the RowHammer threshold, so nothing else is
 * tracked. When a group crosses the threshold it escalates to per-row
 * counting: the authoritative Row Count Table (RCT) lives in reserved
 * DRAM, fronted by an on-chip set-associative **counter cache**. A
 * cache hit costs nothing; a miss must fetch the counter line from
 * DRAM — modelled as a short bank-blocking command on the row's bank —
 * which is exactly the second observable this defense leaks: attacker-
 * visible latency that depends on *someone's* access history, in
 * addition to the targeted victim-row refresh issued when a row counter
 * reaches the refresh threshold.
 *
 * Escalated rows start at the group threshold (the worst case the group
 * counter admits), so the defense never under-counts (Hydra's security
 * argument).
 */

#ifndef LEAKY_DEFENSE_HYDRA_HH
#define LEAKY_DEFENSE_HYDRA_HH

#include <cstdint>
#include <vector>

#include "ctrl/defense_iface.hh"
#include "defense/request_queue.hh"
#include "dram/config.hh"

namespace leaky::defense {

/** DRAM busy window of one counter-line fetch (ACT + RD + PRE). */
inline constexpr sim::Tick kHydraFetchLatency = 60'000;

/** Hydra configuration (see policy.hh for the NRH derivations). */
struct HydraConfig {
    /** Per-row targeted-refresh threshold (VRR + reset at this count). */
    std::uint32_t row_threshold = 80;
    /** GCT escalation threshold: groups below it stay untracked. */
    std::uint32_t group_threshold = 40;
    /** Consecutive rows sharing one GCT counter. */
    std::uint32_t rows_per_group = 128;
    /** Counter-cache entries (ways x sets; sets derived). */
    std::uint32_t cc_entries = 2048;
    /** Counter-cache associativity. */
    std::uint32_t cc_ways = 4;
    /**
     * GCT, RCT shadow and counter cache reset every refresh window
     * (Hydra zeroes its counters each tREFW -- without the reset,
     * escalation would be permanent and the shadow would grow without
     * bound). 0 disables (tests); applied lazily on activation.
     */
    sim::Tick reset_period = 32'000'000'000; ///< tREFW, 32 ms.
};

/** Controller-side Hydra-style two-level tracker. */
class HydraDefense final : public ctrl::ControllerDefense
{
  public:
    HydraDefense(const dram::DramConfig &dram_cfg, const HydraConfig &cfg);

    // ctrl::ControllerDefense
    void onActivate(const ctrl::Address &addr, sim::Tick now) override;
    std::optional<ctrl::RfmRequest> pendingRfm(sim::Tick now) override;
    void onRfmIssued(const ctrl::RfmRequest &req, sim::Tick issued,
                     sim::Tick end) override;
    sim::Tick nextEventTick(sim::Tick now) const override;

    /** GCT counter of @p addr's row group (tests). */
    std::uint32_t groupCount(const ctrl::Address &addr) const;

    /** Per-row count of @p addr's row, 0 when not escalated (tests). */
    std::uint32_t rowCount(const ctrl::Address &addr) const;

    std::uint64_t ccHits() const { return cc_hits_; }
    std::uint64_t ccMisses() const { return cc_misses_; }
    std::uint64_t vrrCount() const { return vrrs_; }

  private:
    static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

    std::uint64_t rowKey(std::uint32_t flat_bank,
                         std::uint32_t row) const;
    std::size_t groupIndex(std::uint32_t flat_bank,
                           std::uint32_t row) const;

    /** Counter-cache lookup; fills/evicts on miss. @return hit. */
    bool cacheAccess(std::uint64_t key);

    /** Authoritative row count slot (open addressing, grows on 3/4
     *  load so the steady state never allocates). */
    std::uint32_t &shadowCount(std::uint64_t key);
    void growShadow();

    /** Per-refresh-window counter wipe (lazy; see reset_period). */
    void maybeReset(sim::Tick now);

    dram::DramConfig dram_cfg_;
    HydraConfig cfg_;
    std::uint32_t groups_per_bank_;
    std::vector<std::uint32_t> gct_;      ///< Per (bank, group).

    // Counter cache: sets x ways arrays + LRU stamps.
    std::uint32_t cc_sets_;
    std::vector<std::uint64_t> cc_key_;
    std::vector<std::uint64_t> cc_stamp_;
    std::uint64_t cc_clock_ = 0;

    // RCT shadow: the authoritative per-row counts of escalated rows.
    std::vector<std::uint64_t> shadow_key_;
    std::vector<std::uint32_t> shadow_count_;
    std::size_t shadow_used_ = 0;

    RequestQueue pending_;
    sim::Tick next_reset_ = 0;
    std::uint64_t cc_hits_ = 0;
    std::uint64_t cc_misses_ = 0;
    std::uint64_t vrrs_ = 0;
};

} // namespace leaky::defense

#endif // LEAKY_DEFENSE_HYDRA_HH
