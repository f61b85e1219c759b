/**
 * @file
 * Pattern-fuzzer figure family (ROADMAP item 1): the fuzzer turns the
 * frequency/phase/amplitude pattern space into registry figures.
 *
 *  - `fuzz-search`: one evolutionary campaign per defense, one CSV row
 *    per generation (best/mean score, best capacity/error, preventive
 *    actions of the best) — "does searching the pattern space beat the
 *    hand-written sender, and how fast does it converge".
 *  - `fuzz-replay`: the deterministic replayer as a figure — every
 *    catalogue pattern (hand-written baselines + pinned discoveries)
 *    replayed against each defense under identical cells.
 *
 * One sweep job = one COMPLETE sequential campaign (or one replayed
 * pattern), so both figures are bit-identical for any thread count.
 */

#include "runner/figures_internal.hh"

#include <string>

#include "core/report.hh"
#include "fuzz/campaign.hh"
#include "fuzz/replay.hh"

namespace leaky::runner {

namespace {

using defense::DefenseKind;

/** Search budget per scale; evaluation cost is population +
 *  (generations-1) x (population - elites) covert runs per defense. */
fuzz::CampaignConfig
campaignAt(Scale scale, DefenseKind kind, std::uint64_t stream_seed,
           std::uint64_t base_seed)
{
    fuzz::CampaignConfig cfg;
    cfg.defense = kind;
    cfg.population = byScale<std::uint32_t>(scale, 4, 8, 16);
    cfg.generations = byScale<std::uint32_t>(scale, 3, 5, 8);
    cfg.elites = 2;
    cfg.message_bytes = byScale<std::size_t>(scale, 4, 8, 20);
    cfg.params.seed = stream_seed;
    // Shared seed rule (evalSeedFor): the fuzz-replay figure and the
    // acceptance tests evaluate under the same defense seed, so a
    // discovered pattern's score transfers exactly.
    cfg.eval_seed = fuzz::evalSeedFor(base_seed, kind);
    return cfg;
}

std::vector<double>
fuzzDefenseAxis(Scale scale)
{
    std::vector<double> values;
    if (scale == Scale::kSmoke) {
        // The PRAC family's back-off channel plus both trackers — the
        // cells the acceptance pins (discovered beats baseline).
        for (DefenseKind kind : {DefenseKind::kPrac, DefenseKind::kGraphene,
                                 DefenseKind::kHydra})
            values.push_back(static_cast<double>(kind));
    } else {
        for (DefenseKind kind : fuzz::campaignDefenses())
            values.push_back(static_cast<double>(kind));
    }
    return values;
}

} // namespace

SweepSpec
fuzzSearchSpec(const RunOptions &opts,
               std::vector<fuzz::CampaignResult> *capture)
{
    const Scale scale = scaleOf(opts);
    SweepSpec spec;
    spec.name = "fuzz-search";
    spec.base_seed = seedOr(opts, 1);
    spec.axes = {{"defense", fuzzDefenseAxis(scale)}};
    spec.columns = {"defense",       "generation",  "best_score",
                    "best_capacity", "best_error",  "best_actions",
                    "mean_score"};
    if (capture) {
        capture->assign(jobCount(spec), fuzz::CampaignResult{});
    }
    const std::uint64_t base_seed = spec.base_seed;
    spec.job = [scale, capture, base_seed](const Job &job) -> JobRows {
        const auto kind = static_cast<DefenseKind>(
            static_cast<int>(job.param("defense")));
        const fuzz::CampaignResult result = fuzz::runCampaign(
            campaignAt(scale, kind, job.seed, base_seed));
        JobRows rows;
        rows.reserve(result.stats.size());
        for (const fuzz::GenerationStat &stat : result.stats) {
            rows.push_back({job.param("defense"),
                            static_cast<double>(stat.generation),
                            stat.best_score, stat.best_capacity,
                            stat.best_error,
                            static_cast<double>(stat.best_actions),
                            stat.mean_score});
        }
        if (capture)
            (*capture)[job.index] = result;
        return rows;
    };
    return spec;
}

namespace {

Figure
fuzzSearchFigure()
{
    Figure fig;
    fig.name = "fuzz-search";
    fig.title = "Fuzzer search progress: best pattern score per "
                "generation and defense";
    fig.paper_ref = "§6-§7, §13 (pattern-space search beyond the "
                    "hand-written senders)";
    fig.csv_name = "fig_fuzz_search.csv";
    fig.make = [](const RunOptions &opts) {
        return fuzzSearchSpec(opts, nullptr);
    };
    fig.summarize = [](const SweepResult &result) {
        core::Table table({"defense", "generation", "best score",
                           "best capacity (Kbps)", "best error",
                           "mean score"});
        for (const auto &row : result.rows) {
            const auto kind =
                static_cast<DefenseKind>(static_cast<int>(row[0]));
            table.addRow({defense::defenseName(kind), core::fmt(row[1], 0),
                          core::fmt(row[2] / 1000.0, 1),
                          core::fmt(row[3] / 1000.0, 1),
                          core::fmt(row[4], 3),
                          core::fmt(row[6] / 1000.0, 1)});
        }
        return table.str() +
               "\nThe search only ever improves (elitism), and against "
               "the tracker family it finds multi-row patterns that "
               "beat the single-row hand-written sender — the covert "
               "channel is a property of the pattern SPACE, not of one "
               "crafted attack.\n";
    };
    return fig;
}

Figure
fuzzReplayFigure()
{
    Figure fig;
    fig.name = "fuzz-replay";
    fig.title = "Replayed patterns vs defenses: discovered patterns "
                "against hand-written baselines";
    fig.paper_ref = "§6-§7, §13 (replayable evidence)";
    fig.csv_name = "fig_fuzz_replay.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "fuzz-replay";
        spec.base_seed = seedOr(opts, 1);
        spec.axes = {
            {"pattern",
             iota(static_cast<std::uint32_t>(fuzz::replayCatalogue()
                                                 .size()))},
            {"defense", fuzzDefenseAxis(scale)}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 8, 20);
        spec.columns = {"pattern",  "defense", "discovered",
                        "capacity", "error_probability", "score",
                        "actions",  "leakage"};
        const std::uint64_t base_seed = spec.base_seed;
        spec.job = [bytes, base_seed](const Job &job) -> JobRows {
            const auto &entry = fuzz::replayCatalogue().at(
                static_cast<std::size_t>(job.param("pattern")));
            fuzz::EvalSpec eval;
            eval.defense = static_cast<DefenseKind>(
                static_cast<int>(job.param("defense")));
            eval.message_bytes = bytes;
            // Same per-defense seed as the search campaigns
            // (evalSeedFor), so discovered scores transfer exactly.
            eval.seed = fuzz::evalSeedFor(base_seed, eval.defense);
            std::vector<double> row = {job.param("pattern"),
                                       job.param("defense"),
                                       entry.discovered ? 1.0 : 0.0};
            for (double value : fuzz::replaySerialized(entry.text, eval))
                row.push_back(value);
            return {row};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        core::Table table({"pattern", "origin", "defense", "error prob",
                           "capacity (Kbps)", "actions"});
        for (const auto &row : result.rows) {
            const auto &entry = fuzz::replayCatalogue().at(
                static_cast<std::size_t>(row[0]));
            const auto kind =
                static_cast<DefenseKind>(static_cast<int>(row[1]));
            table.addRow({entry.name,
                          entry.discovered ? "fuzzer" : "hand-written",
                          defense::defenseName(kind),
                          core::fmt(row[4], 3),
                          core::fmt(row[3] / 1000.0, 1),
                          core::fmt(row[6], 0)});
        }
        return table.str() +
               "\nAny serialized pattern is a reproducible experiment: "
               "the pinned fuzzer discoveries replay here against the "
               "same cells as the hand-written baselines they beat.\n";
    };
    return fig;
}

} // namespace

std::vector<Figure>
fuzzFigures()
{
    std::vector<Figure> figures;
    figures.push_back(fuzzSearchFigure());
    figures.push_back(fuzzReplayFigure());
    return figures;
}

} // namespace leaky::runner
