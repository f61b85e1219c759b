/**
 * @file
 * Defense selection and construction. A DefenseSpec names one of the
 * mechanisms studied in the paper plus the NRH it must defend; the
 * factory derives secure parameters via policy.hh (unless overridden)
 * and produces the device-side hooks and/or controller-side defense to
 * attach to a memory controller.
 */

#ifndef LEAKY_DEFENSE_FACTORY_HH
#define LEAKY_DEFENSE_FACTORY_HH

#include <memory>
#include <tuple>

#include "ctrl/defense_iface.hh"
#include "defense/policy.hh"
#include "dram/config.hh"
#include "dram/hooks.hh"

namespace leaky::defense {

/** The defenses evaluated in the paper, plus the tracker family the
 *  channel analysis generalises to (Graphene / Hydra). */
enum class DefenseKind : std::uint8_t {
    kNone,     ///< Baseline: no RowHammer mitigation.
    kPrac,     ///< PRAC (§6).
    kPracRiac, ///< PRAC + randomly initialised counters (§11.2).
    kPracBank, ///< Bank-Level PRAC (§11.3).
    kPrfm,     ///< Periodic RFM (§7).
    kFrRfm,    ///< Fixed-Rate RFM (§11.1).
    kPara,     ///< PARA baseline (§12).
    kGraphene, ///< Misra-Gries frequent-item tracker (Graphene-style).
    kHydra     ///< Two-level filter + counter cache (Hydra-style).
};

const char *defenseName(DefenseKind kind);

/** What to build and for which threat level. */
struct DefenseSpec {
    DefenseKind kind = DefenseKind::kNone;
    std::uint32_t nrh = 1024; ///< RowHammer threshold to defend.

    // Optional overrides (0 = derive from policy.hh / defaults).
    std::uint32_t nbo_override = 0;
    std::uint32_t trfm_override = 0;
    std::uint32_t rfms_per_backoff = 4;
    sim::Tick backoff_rfm_latency = 0; ///< Fig. 12 latency sweep.
    /** Override the normal-traffic window after an alert (Fig. 12
     *  models the preventive action as immediate). */
    sim::Tick aboact_override = 0;
    sim::Tick fr_rfm_period_override = 0;
    double para_probability = 0.02;
    /** Tracker (Graphene/Hydra) targeted-refresh threshold override
     *  (0 = trackerThresholdFor(nrh)); the tracker-threshold figure
     *  sweeps it. */
    std::uint32_t tracker_threshold_override = 0;
    /** Hydra counter-cache entries (0 = the 2048-entry default). */
    std::uint32_t hydra_cc_entries = 0;
    /** Warm-start PRAC counters (performance studies; see prac.hh). */
    bool warm_counters = false;
    std::uint64_t seed = 1;

    /** All fields as one tuple — THE canonical field list; a new knob
     *  must be added here too (spec-match guards compare via this). */
    auto
    tied() const
    {
        return std::tie(kind, nrh, nbo_override, trfm_override,
                        rfms_per_backoff, backoff_rfm_latency,
                        aboact_override, fr_rfm_period_override,
                        para_probability, tracker_threshold_override,
                        hydra_cc_entries, warm_counters, seed);
    }

    bool
    operator==(const DefenseSpec &o) const
    {
        return tied() == o.tied();
    }
};

/** Field-drift guard (same pattern as CtrlStats): adding a knob
 *  changes the size and fails this assert until tied() visits the
 *  field. 80 = the LP64 layout of the 13 fields above + padding. */
static_assert(sizeof(DefenseSpec) == 80,
              "update DefenseSpec::tied() for the new field, then "
              "adjust this size guard");

/** Constructed defense objects plus controller config adjustments. */
struct DefenseBundle {
    std::unique_ptr<dram::DeviceHooks> device;
    std::unique_ptr<ctrl::ControllerDefense> controller;
    bool deterministic_refresh = false; ///< FR-RFM pins REF times too.
    std::uint32_t rfms_per_backoff = 4;
    sim::Tick backoff_rfm_latency = 0;
};

/**
 * Build a defense for one channel.
 * @param spec What to build.
 * @param dram_cfg Channel geometry/timing.
 * @param drain_lead Controller's precise-drain lead (FR-RFM needs it).
 * @param sink Alert sink (the channel's controller) for PRAC variants.
 */
DefenseBundle makeDefense(const DefenseSpec &spec,
                          const dram::DramConfig &dram_cfg,
                          sim::Tick drain_lead, dram::AlertSink *sink);

} // namespace leaky::defense

#endif // LEAKY_DEFENSE_FACTORY_HH
