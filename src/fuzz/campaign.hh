/**
 * @file
 * The fuzzing loop (ROADMAP item 1): drive generated HammerPatterns
 * through the covert channel against the defense families and score them by
 * covert capacity + preventive-action leakage. One fuzz::Campaign is a
 * small evolutionary search against ONE defense — deliberately
 * sequential, so a campaign is a pure function of its config and runs
 * as a single sweep job; the fuzz-search figure and `leakyhammer fuzz`
 * fan the seven campaigns out over the work-stealing SweepPool, which
 * makes the whole search bit-identical for any thread count.
 *
 * A pattern is evaluated as core::crossDefenseScenario of the target
 * defense, run by core::runScenario; only the sender differs: it walks
 * the pattern's expanded rows (CovertScenario::sender_rows) instead of
 * the hand-written single-row hammer, with the pattern's gap as
 * pacing.
 */

#ifndef LEAKY_FUZZ_CAMPAIGN_HH
#define LEAKY_FUZZ_CAMPAIGN_HH

#include <cstdint>
#include <vector>

#include "attack/covert.hh"
#include "defense/factory.hh"
#include "fuzz/builder.hh"
#include "fuzz/pattern.hh"

namespace leaky::fuzz {

/** The seven defenses the fuzzer searches against: the paper's
 *  alert/RFM family (PRAC, PRAC-RIAC, PRFM, FR-RFM, PARA) plus the
 *  tracker family (Graphene, Hydra). */
const std::vector<defense::DefenseKind> &campaignDefenses();

/**
 * The evaluation seed of defense @p kind under campaign base seed
 * @p base (seed fan-out by defense kind). One shared rule, so a
 * pattern discovered by the fuzz-search campaign replays under the
 * SAME defense seed in the fuzz-replay figure and in tests — scores
 * transfer exactly instead of re-rolling a seed-sensitive cell.
 */
std::uint64_t evalSeedFor(std::uint64_t base, defense::DefenseKind kind);

/** One pattern evaluation point: defense + message size + seed. */
struct EvalSpec {
    defense::DefenseKind defense = defense::DefenseKind::kGraphene;
    std::size_t message_bytes = 4;
    std::uint64_t seed = 1;
};

/** Outcome of evaluating one pattern. */
struct EvalResult {
    attack::ChannelResult channel;
    double score = 0.0;   ///< scoreResult(channel).
    double leakage = 0.0; ///< Preventive actions per window.
};

/** Ground-truth preventive actions of a run (back-offs + RFMs +
 *  targeted refreshes; counter fetches are sub-band traffic, not
 *  preventive actions). */
std::uint64_t preventiveActions(const attack::ChannelResult &r);

/**
 * Fuzzing objective: covert capacity (bits/s) plus a small
 * preventive-action-leakage tie-break (actions per window, x1e-3) so
 * that among equal-capacity patterns the search prefers the one with
 * the stronger observable margin. Pure arithmetic — allocation-free
 * (the fuzz hot-loop pin covers it).
 */
double scoreResult(const attack::ChannelResult &r);

/** Evaluate @p p in the cross-defense cell of @p spec.defense. */
EvalResult evaluatePattern(const HammerPattern &p, const EvalSpec &spec);

/** One campaign: an elitist (mu + lambda) search against one defense. */
struct CampaignConfig {
    defense::DefenseKind defense = defense::DefenseKind::kGraphene;
    FuzzParams params;  ///< params.seed drives the pattern stream.
    std::uint32_t population = 6;
    std::uint32_t generations = 3;
    std::uint32_t elites = 2;
    std::size_t message_bytes = 4;
    std::uint64_t eval_seed = 1; ///< Defense seed, fixed per campaign.
};

/** A scored pattern (origin = stream index, the deterministic
 *  tie-break). */
struct PatternScore {
    HammerPattern pattern;
    double score = 0.0;
    double capacity = 0.0;
    double error = 0.0;
    std::uint64_t actions = 0;
    std::uint64_t origin = 0;
};

/** Per-generation search progress (the fuzz-search figure's rows). */
struct GenerationStat {
    std::uint32_t generation = 0;
    double best_score = 0.0;
    double best_capacity = 0.0;
    double best_error = 0.0;
    double mean_score = 0.0;
    std::uint64_t best_actions = 0;
};

struct CampaignResult {
    std::vector<GenerationStat> stats; ///< One entry per generation.
    PatternScore best;                 ///< Best of the final population.
};

/** Run one campaign to completion (sequential, deterministic). */
CampaignResult runCampaign(const CampaignConfig &cfg);

} // namespace leaky::fuzz

#endif // LEAKY_FUZZ_CAMPAIGN_HH
