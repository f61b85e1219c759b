/**
 * @file
 * Tracker-defense figure family: the paper's channel analysis says
 * *every* activation-triggered preventive action is a timing channel;
 * these entries test that claim beyond the defenses the paper measured,
 * against the counter-table trackers dominant in the surveys (Graphene's
 * Misra-Gries summaries, Hydra's two-level filter + counter cache).
 *
 *  - `cross-defense`: one covert-capacity comparison across the
 *    alert/RFM family AND the tracker family, at several noise levels,
 *    with the per-action-type ground truth (back-offs, RFMs, targeted
 *    refreshes, counter fetches) in the CSV.
 *  - `tracker-threshold`: the targeted-refresh threshold swept until
 *    the preventive action becomes too rare to carry a symbol per
 *    window -- the tracker analogue of Fig. 11's sensitivity study.
 */

#include "runner/figures_internal.hh"

#include <string>

#include "attack/message.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "stats/channel_metrics.hh"

namespace leaky::runner {

namespace {

using defense::DefenseKind;

// -------------------------------------------- cross-defense capacity

Figure
crossDefenseFigure()
{
    Figure fig;
    fig.name = "cross-defense";
    fig.title = "Covert-channel capacity across the alert/RFM and "
                "tracker defense families";
    fig.paper_ref = "§13 (generalisation of §6-§7)";
    fig.csv_name = "fig_cross_defense_capacity.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "cross-defense";
        spec.base_seed = seedOr(opts, 1);
        std::vector<double> defenses;
        if (scale == Scale::kSmoke) {
            defenses = {static_cast<double>(DefenseKind::kPrac),
                        static_cast<double>(DefenseKind::kGraphene),
                        static_cast<double>(DefenseKind::kHydra)};
        } else {
            defenses = {static_cast<double>(DefenseKind::kPrac),
                        static_cast<double>(DefenseKind::kPrfm),
                        static_cast<double>(DefenseKind::kGraphene),
                        static_cast<double>(DefenseKind::kHydra),
                        static_cast<double>(DefenseKind::kFrRfm)};
        }
        spec.axes = {
            {"defense", std::move(defenses)},
            {"intensity",
             byScale(scale, std::vector<double>{1, 100},
                     std::vector<double>{1, 50, 100},
                     std::vector<double>{1, 25, 50, 75, 88, 100})}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 20, 100);
        spec.columns = {"defense",   "intensity",
                        "raw_bit_rate", "error_probability",
                        "capacity",  "backoffs",
                        "rfms",      "targeted_refreshes",
                        "counter_fetches"};
        spec.job = [bytes](const Job &job) -> JobRows {
            const auto kind = static_cast<DefenseKind>(
                static_cast<int>(job.param("defense")));
            auto cell = core::crossDefenseScenario(kind);
            cell.system.defense.seed = job.seed;
            cell.noise_sleep = stats::sleepForIntensity(
                job.param("intensity"), 200'000, 2'000'000);
            cell.bits = attack::patternBits(
                attack::MessagePattern::kCheckered0, bytes * 8);
            const auto result = core::runScenario(cell).pairs.front();
            return {{job.param("defense"), job.param("intensity"),
                     result.raw_bit_rate, result.symbol_error,
                     result.capacity,
                     static_cast<double>(result.backoffs),
                     static_cast<double>(result.rfms),
                     static_cast<double>(result.targeted_refreshes),
                     static_cast<double>(result.counter_fetches)}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        core::Table table({"defense", "intensity (%)", "error prob",
                           "capacity (Kbps)", "observable actions"});
        for (const auto &row : result.rows) {
            const auto kind = static_cast<DefenseKind>(
                static_cast<int>(row[0]));
            const double actions = row[5] + row[6] + row[7];
            table.addRow({defense::defenseName(kind),
                          core::fmt(row[1], 0), core::fmt(row[3], 3),
                          core::fmt(row[4] / 1000.0, 1),
                          core::fmt(actions, 0)});
        }
        return table.str() +
               "\nEvery activation-triggered defense (PRAC back-offs, "
               "PRFM RFMs, Graphene/Hydra targeted refreshes) carries "
               "a usable channel; only the time-triggered FR-RFM grid "
               "does not -- the paper's §13 claim, generalised.\n";
    };
    return fig;
}

// ------------------------------------------ tracker threshold sweep

Figure
trackerThresholdFigure()
{
    Figure fig;
    fig.name = "tracker-threshold";
    fig.title = "Tracker covert channel vs targeted-refresh threshold "
                "(Graphene and Hydra)";
    fig.paper_ref = "§13 (Fig. 11 analogue)";
    fig.csv_name = "fig_tracker_threshold.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "tracker-threshold";
        // Sparser targeted refreshes degrade the channel until no
        // action fits one window.
        spec.base_seed = seedOr(opts, 1);
        spec.axes = {
            {"tracker",
             {static_cast<double>(DefenseKind::kGraphene),
              static_cast<double>(DefenseKind::kHydra)}},
            {"threshold",
             byScale(scale, std::vector<double>{80, 512},
                     std::vector<double>{16, 48, 80, 160, 512},
                     std::vector<double>{16, 32, 48, 64, 80, 128, 160,
                                         256, 512})}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 16, 50);
        spec.columns = {"tracker", "threshold", "error_probability",
                        "capacity", "targeted_refreshes",
                        "counter_fetches"};
        spec.job = [bytes](const Job &job) -> JobRows {
            const auto kind = static_cast<DefenseKind>(
                static_cast<int>(job.param("tracker")));
            auto cell = core::crossDefenseScenario(kind);
            cell.system.defense.tracker_threshold_override =
                static_cast<std::uint32_t>(job.param("threshold"));
            cell.system.defense.seed = job.seed;
            cell.bits = attack::patternBits(
                attack::MessagePattern::kCheckered0, bytes * 8);
            const auto result = core::runScenario(cell).pairs.front();
            return {{job.param("tracker"), job.param("threshold"),
                     result.symbol_error, result.capacity,
                     static_cast<double>(result.targeted_refreshes),
                     static_cast<double>(result.counter_fetches)}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        core::Table table({"tracker", "threshold", "error prob",
                           "capacity (Kbps)", "VRRs", "CC fetches"});
        for (const auto &row : result.rows) {
            const auto kind = static_cast<DefenseKind>(
                static_cast<int>(row[0]));
            table.addRow({defense::defenseName(kind),
                          core::fmt(row[1], 0), core::fmt(row[2], 3),
                          core::fmt(row[3] / 1000.0, 1),
                          core::fmt(row[4], 0), core::fmt(row[5], 0)});
        }
        return table.str() +
               "\nLow thresholds give several targeted refreshes per "
               "window (a clean channel); past the per-window "
               "activation budget the action starves and capacity "
               "collapses -- raising the threshold trades RowHammer "
               "safety margin for covert-channel hygiene.\n";
    };
    return fig;
}

} // namespace

std::vector<Figure>
trackerFigures()
{
    std::vector<Figure> figures;
    figures.push_back(crossDefenseFigure());
    figures.push_back(trackerThresholdFigure());
    return figures;
}

} // namespace leaky::runner
