#include "defense/factory.hh"

#include <algorithm>

#include "defense/fr_rfm.hh"
#include "defense/graphene.hh"
#include "defense/hydra.hh"
#include "defense/para.hh"
#include "defense/prac.hh"
#include "defense/prfm.hh"
#include "sim/logging.hh"

namespace leaky::defense {

const char *
defenseName(DefenseKind kind)
{
    switch (kind) {
      case DefenseKind::kNone: return "None";
      case DefenseKind::kPrac: return "PRAC";
      case DefenseKind::kPracRiac: return "PRAC-RIAC";
      case DefenseKind::kPracBank: return "PRAC-Bank";
      case DefenseKind::kPrfm: return "PRFM";
      case DefenseKind::kFrRfm: return "FR-RFM";
      case DefenseKind::kPara: return "PARA";
      case DefenseKind::kGraphene: return "Graphene";
      case DefenseKind::kHydra: return "Hydra";
    }
    return "?";
}

DefenseBundle
makeDefense(const DefenseSpec &spec, const dram::DramConfig &dram_cfg,
            sim::Tick drain_lead, dram::AlertSink *sink)
{
    DefenseBundle bundle;
    bundle.rfms_per_backoff = spec.rfms_per_backoff;
    bundle.backoff_rfm_latency = spec.backoff_rfm_latency;

    const auto nbo = spec.nbo_override ? spec.nbo_override
                                       : nboFor(spec.nrh);
    const auto trfm = spec.trfm_override ? spec.trfm_override
                                         : trfmFor(spec.nrh);

    switch (spec.kind) {
      case DefenseKind::kNone:
        break;
      case DefenseKind::kPrac:
      case DefenseKind::kPracRiac:
      case DefenseKind::kPracBank: {
        LEAKY_ASSERT(sink != nullptr, "PRAC variants need an alert sink");
        PracConfig cfg;
        cfg.nbo = nbo;
        cfg.rfms_per_backoff = spec.rfms_per_backoff;
        cfg.riac = spec.kind == DefenseKind::kPracRiac;
        cfg.bank_level = spec.kind == DefenseKind::kPracBank;
        // RIAC randomises over [0, NBO): re-initialised counters can
        // land arbitrarily close to the threshold, so concurrent
        // activity triggers unintentional back-offs (§11.2).
        cfg.riac_init_max = nbo;
        cfg.warm_start = spec.warm_counters;
        cfg.seed = spec.seed;
        cfg.cooldown = dram_cfg.timing.tABOCooldown;
        bundle.device = std::make_unique<PracDefense>(dram_cfg, cfg, sink);
        break;
      }
      case DefenseKind::kPrfm: {
        PrfmConfig cfg;
        cfg.trfm = trfm;
        bundle.controller = std::make_unique<PrfmDefense>(dram_cfg, cfg);
        break;
      }
      case DefenseKind::kFrRfm: {
        FrRfmConfig cfg;
        cfg.period = spec.fr_rfm_period_override
                         ? spec.fr_rfm_period_override
                         : frRfmPeriodFor(spec.nrh, dram_cfg.timing,
                                          drain_lead);
        cfg.drain_lead = drain_lead;
        bundle.controller = std::make_unique<FrRfmDefense>(cfg);
        bundle.deterministic_refresh = true;
        break;
      }
      case DefenseKind::kPara: {
        ParaConfig cfg;
        cfg.probability = spec.para_probability;
        cfg.seed = spec.seed;
        bundle.controller = std::make_unique<ParaDefense>(cfg);
        break;
      }
      case DefenseKind::kGraphene: {
        GrapheneConfig cfg;
        cfg.threshold = spec.tracker_threshold_override
                            ? spec.tracker_threshold_override
                            : trackerThresholdFor(spec.nrh);
        cfg.table_entries =
            grapheneEntriesFor(spec.nrh, dram_cfg.timing);
        bundle.controller =
            std::make_unique<GrapheneDefense>(dram_cfg, cfg);
        break;
      }
      case DefenseKind::kHydra: {
        HydraConfig cfg;
        // Clamp to >= 2 so any override leaves room for a group
        // threshold strictly below the row threshold.
        cfg.row_threshold = std::max<std::uint32_t>(
            2, spec.tracker_threshold_override
                   ? spec.tracker_threshold_override
                   : trackerThresholdFor(spec.nrh));
        // Keep the two-level invariant even when the sweep pins the
        // row threshold below the policy's group threshold.
        cfg.group_threshold =
            std::min(hydraGroupThresholdFor(spec.nrh),
                     cfg.row_threshold > 1 ? cfg.row_threshold - 1 : 1);
        if (spec.hydra_cc_entries)
            cfg.cc_entries = spec.hydra_cc_entries;
        bundle.controller = std::make_unique<HydraDefense>(dram_cfg, cfg);
        break;
      }
    }
    return bundle;
}

} // namespace leaky::defense
