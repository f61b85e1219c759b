#include "fuzz/campaign.hh"

#include <algorithm>
#include <utility>

#include "attack/message.hh"
#include "core/experiments.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace leaky::fuzz {
namespace {

/**
 * Row slot -> DRAM row. Slot 0 is the stock cross-defense sender row
 * (1000), so the trivial one-aggressor pattern replays the hand-written
 * baseline exactly; further slots stride by 2 to keep the aggressors in
 * distinct rows while staying well clear of the receiver row (2000).
 */
constexpr std::uint32_t kPatternRowBase = 1000;
constexpr std::uint32_t kPatternRowStride = 2;

static_assert(kPatternRowBase +
                      kPatternRowStride * (HammerPattern::kMaxRows - 1) <
                  2000,
              "pattern rows must not collide with the receiver row");

} // namespace

const std::vector<defense::DefenseKind> &campaignDefenses()
{
    static const std::vector<defense::DefenseKind> kinds = {
        defense::DefenseKind::kPrac,  defense::DefenseKind::kPracRiac,
        defense::DefenseKind::kPrfm,  defense::DefenseKind::kFrRfm,
        defense::DefenseKind::kPara,  defense::DefenseKind::kGraphene,
        defense::DefenseKind::kHydra,
    };
    return kinds;
}

std::uint64_t evalSeedFor(std::uint64_t base, defense::DefenseKind kind)
{
    return sim::seedFanout(base, static_cast<std::uint64_t>(kind));
}

std::uint64_t preventiveActions(const attack::ChannelResult &r)
{
    return r.backoffs + r.rfms + r.targeted_refreshes;
}

double scoreResult(const attack::ChannelResult &r)
{
    const std::size_t windows = r.sent.empty() ? 1 : r.sent.size();
    const double leakage =
        static_cast<double>(preventiveActions(r)) /
        static_cast<double>(windows);
    return r.capacity + 1e-3 * leakage;
}

EvalResult evaluatePattern(const HammerPattern &p, const EvalSpec &spec)
{
    std::string error;
    LEAKY_ASSERT(p.validate(&error), "cannot evaluate invalid pattern: %s",
                 error.c_str());

    core::CovertScenario scenario = core::crossDefenseScenario(spec.defense);
    scenario.system.defense.seed = spec.seed;
    for (const std::uint32_t slot : p.expand())
        scenario.sender_rows.push_back(kPatternRowBase +
                                       kPatternRowStride * slot);
    scenario.sender_gap = p.gap;
    scenario.bits = attack::patternBits(attack::MessagePattern::kCheckered0,
                                        spec.message_bytes * 8);
    EvalResult out;
    out.channel = core::runScenario(scenario).pairs.front();
    out.score = scoreResult(out.channel);
    const std::size_t windows =
        out.channel.sent.empty() ? 1 : out.channel.sent.size();
    out.leakage = static_cast<double>(preventiveActions(out.channel)) /
                  static_cast<double>(windows);
    return out;
}

namespace {

/** Deterministic ranking: score descending, stream origin as the
 *  tie-break (earlier generation/index wins). */
bool betterThan(const PatternScore &a, const PatternScore &b)
{
    if (a.score != b.score) {
        return a.score > b.score;
    }
    return a.origin < b.origin;
}

PatternScore evaluateCandidate(HammerPattern pattern, std::uint64_t origin,
                               const EvalSpec &spec)
{
    const EvalResult r = evaluatePattern(pattern, spec);
    PatternScore out;
    out.pattern = std::move(pattern);
    out.score = r.score;
    out.capacity = r.channel.capacity;
    out.error = r.channel.symbol_error;
    out.actions = preventiveActions(r.channel);
    out.origin = origin;
    return out;
}

} // namespace

CampaignResult runCampaign(const CampaignConfig &cfg)
{
    LEAKY_ASSERT(cfg.population >= 1, "campaign needs a population");
    LEAKY_ASSERT(cfg.generations >= 1, "campaign needs >= 1 generation");
    LEAKY_ASSERT(cfg.elites >= 1 && cfg.elites <= cfg.population,
                 "elites must be in 1..population (%u vs %u)", cfg.elites,
                 cfg.population);

    const PatternBuilder builder(cfg.params);
    const EvalSpec spec{cfg.defense, cfg.message_bytes, cfg.eval_seed};

    CampaignResult result;
    result.stats.reserve(cfg.generations);

    std::vector<PatternScore> pop;
    pop.reserve(cfg.population);
    HammerPattern scratch;
    for (std::uint32_t g = 0; g < cfg.generations; ++g) {
        if (g == 0) {
            for (std::uint32_t i = 0; i < cfg.population; ++i) {
                pop.push_back(evaluateCandidate(builder.generate(i), i, spec));
            }
        } else {
            // Elitist (mu + lambda): keep the best `elites` with their
            // scores, refill the tail with mutants of the elites. The
            // mutation stream index g*population + j never collides
            // across generations, so the whole search is one pure
            // function of (params.seed, eval_seed).
            std::stable_sort(pop.begin(), pop.end(), betterThan);
            pop.resize(cfg.elites);
            for (std::uint32_t j = 0; j + cfg.elites < cfg.population; ++j) {
                const std::uint64_t idx =
                    static_cast<std::uint64_t>(g) * cfg.population + j;
                builder.mutateInto(pop[j % cfg.elites].pattern, idx,
                                   &scratch);
                pop.push_back(evaluateCandidate(scratch, idx, spec));
            }
        }

        const PatternScore &best =
            *std::min_element(pop.begin(), pop.end(),
                              [](const PatternScore &a,
                                 const PatternScore &b) {
                                  return betterThan(a, b);
                              });
        GenerationStat stat;
        stat.generation = g;
        stat.best_score = best.score;
        stat.best_capacity = best.capacity;
        stat.best_error = best.error;
        stat.best_actions = best.actions;
        double sum = 0.0;
        for (const PatternScore &p : pop) {
            sum += p.score;
        }
        stat.mean_score = sum / static_cast<double>(pop.size());
        result.stats.push_back(stat);
    }

    std::stable_sort(pop.begin(), pop.end(), betterThan);
    result.best = pop.front();
    return result;
}

} // namespace leaky::fuzz
