/**
 * @file
 * Countermeasure and leakage-scope figure family: capacity vs
 * RowHammer threshold, the Fig. 13 performance study, the §11.4
 * countermeasure evaluation, the §9.1 counter-value leak, Table 3's
 * colocation-granularity matrix, and the §12 trigger-algorithm
 * taxonomy.
 */

#include "runner/figures_internal.hh"

#include <memory>
#include <mutex>
#include <string>

#include "attack/message.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "sim/rng.hh"
#include "workload/synthetic.hh"

namespace leaky::runner {

namespace {

using attack::ChannelKind;
using defense::DefenseKind;

// ------------------------------------------- capacity vs threshold

Figure
thresholdFigure()
{
    Figure fig;
    fig.name = "threshold";
    fig.title = "Covert-channel capacity vs RowHammer threshold "
                "across defenses";
    fig.paper_ref = "§6, §7, §11 (Figs. 11-13 axis)";
    fig.csv_name = "fig_capacity_vs_threshold.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "threshold";
        spec.base_seed = seedOr(opts, 1);
        std::vector<double> defenses;
        if (scale == Scale::kSmoke) {
            defenses = {
                static_cast<double>(DefenseKind::kPrac),
                static_cast<double>(DefenseKind::kPrfm),
                static_cast<double>(DefenseKind::kFrRfm)};
        } else {
            defenses = {
                static_cast<double>(DefenseKind::kPrac),
                static_cast<double>(DefenseKind::kPracRiac),
                static_cast<double>(DefenseKind::kPracBank),
                static_cast<double>(DefenseKind::kPrfm),
                static_cast<double>(DefenseKind::kFrRfm)};
        }
        spec.axes = {
            {"defense", std::move(defenses)},
            {"nrh", scale == Scale::kSmoke
                        ? std::vector<double>{256, 128, 64}
                        : std::vector<double>{1024, 512, 256, 128, 64}}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 20, 100);
        spec.columns = {"defense", "nrh", "raw_bit_rate",
                        "error_probability", "capacity", "backoffs",
                        "rfms"};
        spec.job = [bytes](const Job &job) -> JobRows {
            const auto kind =
                static_cast<DefenseKind>(static_cast<int>(
                    job.param("defense")));
            const auto nrh =
                static_cast<std::uint32_t>(job.param("nrh"));
            // Secure parameters derive from NRH via policy.hh; only
            // the RIAC variant consumes randomness.
            core::CovertScenario scenario;
            scenario.system = sys::SystemConfig::paper(kind, nrh);
            scenario.system.defense.seed = job.seed;
            // The receiver listens for the defense's own preventive
            // action: back-offs for the PRAC family, RFM latency
            // events for the RFM family.
            if (kind == DefenseKind::kPrfm || kind == DefenseKind::kFrRfm)
                scenario.kind = ChannelKind::kRfm;
            scenario.bits = attack::patternBits(
                attack::MessagePattern::kCheckered0, bytes * 8);
            const auto result = core::runScenario(scenario).pairs.front();
            return {{job.param("defense"), job.param("nrh"),
                     result.raw_bit_rate, result.symbol_error,
                     result.capacity,
                     static_cast<double>(result.backoffs),
                     static_cast<double>(result.rfms)}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        core::Table table({"defense", "NRH", "error prob",
                           "capacity (Kbps)"});
        for (const auto &row : result.rows)
            table.addRow({defense::defenseName(static_cast<DefenseKind>(
                              static_cast<int>(row[0]))),
                          core::fmt(row[1], 0), core::fmt(row[3], 3),
                          core::fmt(row[4] / 1000.0, 1)});
        return table.str() +
               "\nFR-RFM's fixed grid carries no information "
               "(capacity ~0) at any threshold -- the paper's §11.1 "
               "countermeasure.\n";
    };
    return fig;
}

// ----------------------------------------------------------- Fig. 13

Figure
mitigationFigure()
{
    Figure fig;
    fig.name = "mitigation";
    fig.title = "Performance of RowHammer defenses vs threshold "
                "(normalized weighted speedup)";
    fig.paper_ref = "Fig. 13";
    fig.csv_name = "fig_mitigation_performance.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "mitigation";
        spec.base_seed = seedOr(opts, 42);
        std::vector<double> defenses;
        std::vector<double> nrhs;
        std::uint32_t mixes = 3;
        std::uint64_t insts = 100'000;
        if (scale == Scale::kSmoke) {
            defenses = {static_cast<double>(DefenseKind::kPrac),
                        static_cast<double>(DefenseKind::kPrfm),
                        static_cast<double>(DefenseKind::kFrRfm)};
            nrhs = {1024, 64};
            mixes = 1;
            insts = 20'000;
        } else {
            defenses = {static_cast<double>(DefenseKind::kPrac),
                        static_cast<double>(DefenseKind::kPrfm),
                        static_cast<double>(DefenseKind::kPracRiac),
                        static_cast<double>(DefenseKind::kFrRfm),
                        static_cast<double>(DefenseKind::kPracBank)};
            nrhs = {1024, 512, 256, 128, 64};
            if (scale == Scale::kFull) {
                mixes = 60;
                insts = 200'000;
            }
        }
        spec.axes = {{"defense", std::move(defenses)},
                     {"nrh", std::move(nrhs)},
                     {"mix", iota(mixes)}};
        spec.columns = {"defense", "nrh", "mix", "normalized_ws"};
        // Mix generation is a pure function of the base seed: build
        // the Fig.-13 workload set once and share it across jobs.
        const auto all_mixes =
            workload::makeMixes(mixes, 4, spec.base_seed);
        // Every (defense, nrh) job on a mix shares its undefended
        // reference: the first job to need it fills the slot, and make()
        // only allocates the slots (see docs/EXPERIMENTS.md).
        struct ReferenceSlot {
            std::once_flag once;
            core::PerfReference ref;
        };
        auto refs = std::make_shared<std::vector<ReferenceSlot>>(mixes);
        spec.job = [all_mixes, refs, insts](const Job &job) -> JobRows {
            const auto m = static_cast<std::size_t>(job.param("mix"));
            auto &slot = (*refs)[m];
            std::call_once(slot.once, [&] {
                slot.ref = core::perfReference(all_mixes[m], insts);
            });
            const double ws = core::normalizedWs(
                static_cast<DefenseKind>(
                    static_cast<int>(job.param("defense"))),
                static_cast<std::uint32_t>(job.param("nrh")),
                all_mixes[m], slot.ref, insts);
            return {{job.param("defense"), job.param("nrh"),
                     job.param("mix"), ws}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        const auto mean_ws = groupMean(result, {0, 1}, 3);
        core::Table table({"defense", "NRH", "normalized WS"});
        for (const auto &[key, ws] : mean_ws)
            table.addRow({defense::defenseName(static_cast<DefenseKind>(
                              static_cast<int>(key[0]))),
                          core::fmt(key[1], 0), core::fmt(ws, 3)});
        return table.str() +
               "\npaper reference: FR-RFM costs 18.2x at NRH = 64; "
               "PRAC stays within a few percent (Fig. 13).\n";
    };
    return fig;
}

// ------------------------------------------------------------- §11.4

/** Scenario axis of the countermeasure study, in presentation order. */
struct CountermeasureScenario {
    const char *name;
    DefenseKind kind;
    core::BankPlacement receiver;
};

constexpr CountermeasureScenario kCountermeasureScenarios[] = {
    {"PRAC (insecure baseline)", DefenseKind::kPrac, {}},
    {"PRAC-RIAC", DefenseKind::kPracRiac, {}},
    {"FR-RFM", DefenseKind::kFrRfm, {}},
    // Receiver in a different bank group/bank than the sender
    // (Bank-Level PRAC's scope reduction).
    {"Bank-PRAC (cross-bank rx)", DefenseKind::kPracBank, {0, 0, 4, 2}},
    {"Bank-PRAC (same-bank rx)", DefenseKind::kPracBank, {}},
};

Figure
countermeasuresFigure()
{
    Figure fig;
    fig.name = "countermeasures";
    fig.title = "PRAC covert channel vs the paper's countermeasures "
                "(capacity reduction)";
    fig.paper_ref = "§11.4";
    fig.csv_name = "tab_countermeasure_capacity.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "countermeasures";
        spec.base_seed = seedOr(opts, 1);
        spec.axes = {{"scenario", {0, 1, 2, 3, 4}}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 25, 100);
        spec.columns = {"scenario", "error_probability", "capacity",
                        "backoffs", "rfms"};
        spec.job = [bytes](const Job &job) -> JobRows {
            const auto &scenario = kCountermeasureScenarios[
                static_cast<std::size_t>(job.param("scenario"))];
            core::CovertScenario cell;
            cell.system.defense.kind = scenario.kind;
            cell.system.defense.seed = job.seed;
            if (scenario.kind == DefenseKind::kFrRfm) {
                cell.system.defense.nrh = 160;
                cell.system.defense.nbo_override = 0;
            }
            cell.pairs.front().receiver = scenario.receiver;
            // Ambient activity (the paper's noisy-environment
            // assumption for the RIAC evaluation, §11.2 footnote 12):
            // the Eq.-2 microbenchmark at 75% intensity, applied
            // identically to every scenario.
            cell.noise_sleep = 650'000;
            cell.bits = attack::patternBits(
                attack::MessagePattern::kCheckered0, bytes * 8);
            const auto result = core::runScenario(cell).pairs.front();
            return {{job.param("scenario"), result.symbol_error,
                     result.capacity,
                     static_cast<double>(result.backoffs),
                     static_cast<double>(result.rfms)}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        double baseline = 0.0;
        for (const auto &row : result.rows)
            if (row[0] == 0)
                baseline = row[2];
        core::Table table({"defense", "error prob", "capacity (Kbps)",
                           "capacity reduction"});
        for (const auto &row : result.rows) {
            const double reduction =
                baseline > 0.0 ? (1.0 - row[2] / baseline) * 100.0
                               : 0.0;
            table.addRow(
                {kCountermeasureScenarios[static_cast<std::size_t>(
                     row[0])].name,
                 core::fmt(row[1], 3), core::fmt(row[2] / 1000.0, 1),
                 core::fmt(reduction, 0) + "%"});
        }
        return table.str() +
               "\npaper reference: FR-RFM -100%, PRAC-RIAC -86%; "
               "Bank-Level PRAC removes cross-bank visibility but "
               "not same-bank attacks.\n";
    };
    return fig;
}

// -------------------------------------------------------------- §9.1

Figure
counterLeakFigure()
{
    Figure fig;
    fig.name = "counter-leak";
    fig.title = "Leaking a PRAC activation-counter value through a "
                "shared row";
    fig.paper_ref = "§9.1, Table 3 (row)";
    fig.csv_name = "tab_counter_leak.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "counter-leak";
        // NBO = 128, so each shot leaks log2(NBO) = 7 counter bits.
        spec.base_seed = seedOr(opts, 1234);
        spec.axes = {{"trial",
                      iota(byScale<std::uint32_t>(scale, 6, 24, 64))}};
        spec.columns = {"trial", "secret", "leaked", "abs_error",
                        "elapsed_us"};
        spec.job = [](const Job &job) -> JobRows {
            // Secret: victim's activation count, up to ~NBO/2 so
            // neither the priming nor the victim's own row triggers
            // the back-off.
            sim::Rng rng(job.seed);
            const auto secret =
                static_cast<std::uint32_t>(rng.range(4, 60));
            const auto trial = core::runCounterLeakTrial(secret);
            const double err =
                static_cast<double>(trial.leaked) -
                static_cast<double>(trial.secret);
            return {{job.param("trial"),
                     static_cast<double>(trial.secret),
                     static_cast<double>(trial.leaked),
                     err < 0 ? -err : err, trial.elapsed_us}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        double total_us = 0, total_err = 0;
        std::size_t within = 0;
        for (const auto &row : result.rows) {
            total_us += row[4];
            total_err += row[3];
            within += row[3] <= 2 ? 1 : 0;
        }
        const auto n = static_cast<double>(result.rows.size());
        const double mean_us = total_us / n;
        core::Table table({"metric", "value"});
        table.addRow({"trials", core::fmt(n, 0)});
        table.addRow({"mean leak time (us)", core::fmt(mean_us, 1)});
        table.addRow({"mean |error| (counts)",
                      core::fmt(total_err / n, 2)});
        table.addRow({"within +/-2 counts",
                      core::fmt(static_cast<double>(within), 0) + " / "
                          + core::fmt(n, 0)});
        table.addRow({"throughput (Kbps)",
                      core::fmt(7.0 / (mean_us * 1e-6) / 1000.0, 0)});
        return table.str() +
               "\npaper reference: a 7-bit counter value leaks in "
               "13.6 us on average => 501 Kbps.\n";
    };
    return fig;
}

// ----------------------------------------------------------- Table 3

/** Colocation scenarios of Table 3's empirical rows. */
struct GranularityScenario {
    const char *name;
    ChannelKind kind;
    core::BankPlacement receiver;
};

constexpr GranularityScenario kGranularityScenarios[] = {
    // PRAC: receiver in an arbitrary other bank (bg 5, bank 3).
    {"PRAC, channel coloc.", ChannelKind::kPrac, {0, 0, 5, 3}},
    {"PRAC, same-bank coloc.", ChannelKind::kPrac, {}},
    // RFM: receiver shares the bank index (bg 5, bank 0).
    {"RFM, bank-group coloc.", ChannelKind::kRfm, {0, 0, 5, 0}},
    {"RFM, same-bank coloc.", ChannelKind::kRfm, {}},
};

Figure
granularityFigure()
{
    Figure fig;
    fig.name = "granularity";
    fig.title = "Leaked information vs attacker/victim colocation "
                "granularity";
    fig.paper_ref = "Table 3";
    fig.csv_name = "tab_leakage_granularity.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "granularity";
        spec.base_seed = seedOr(opts, 1);
        spec.axes = {{"scenario", {0, 1, 2, 3}}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 20, 50);
        spec.columns = {"scenario", "error_probability", "capacity"};
        spec.job = [bytes](const Job &job) -> JobRows {
            const auto &scenario = kGranularityScenarios[
                static_cast<std::size_t>(job.param("scenario"))];
            auto cell = core::channelScenario(scenario.kind);
            cell.system.defense.seed = job.seed;
            cell.pairs.front().receiver = scenario.receiver;
            cell.bits = attack::patternBits(
                attack::MessagePattern::kCheckered1, bytes * 8);
            const auto result = core::runScenario(cell).pairs.front();
            return {{job.param("scenario"), result.symbol_error,
                     result.capacity}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        const auto verdict = [](double error) {
            return std::string(error < 0.15 ? "leaks" : "no signal") +
                   " (err " + core::fmt(error, 2) + ")";
        };
        core::Table table({"attack", "channel/bank-group coloc.",
                           "same-bank coloc.", "row coloc."});
        table.addRow({"LeakyHammer-PRAC",
                      verdict(result.rows[0][1]),
                      verdict(result.rows[1][1]),
                      "activation count (§9.1)"});
        table.addRow({"LeakyHammer-RFM", verdict(result.rows[2][1]),
                      verdict(result.rows[3][1]),
                      "bank activation count"});
        table.addRow({"DRAMA (row-buffer)",
                      "no signal (needs same bank)",
                      "row hit/conflict only", "row hit/conflict only"});
        return table.str() +
               "\npaper reference (Table 3): only LeakyHammer leaks "
               "at channel/bank-group granularity; PRAC leaks counter "
               "values at row granularity.\n";
    };
    return fig;
}

// --------------------------------------------------------------- §12

Figure
triggerFigure()
{
    Figure fig;
    fig.name = "trigger";
    fig.title = "Exact vs random preventive-action trigger algorithms";
    fig.paper_ref = "§12";
    fig.csv_name = "tab_trigger_algorithms.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "trigger";
        spec.base_seed = seedOr(opts, 1);
        // Scenario axis: 0 = PRAC, 1 = PRFM, 2.. = PARA at rising p.
        spec.axes = {{"scenario", scale == Scale::kSmoke
                                      ? std::vector<double>{0, 1, 3}
                                      : std::vector<double>{0, 1, 2, 3,
                                                            4}}};
        const std::size_t bytes = byScale<std::size_t>(scale, 3, 24, 64);
        spec.columns = {"scenario", "para_p", "error_probability",
                        "capacity"};
        spec.job = [bytes](const Job &job) -> JobRows {
            const auto scenario =
                static_cast<int>(job.param("scenario"));
            constexpr double kParaP[] = {0.005, 0.02, 0.08};
            const DefenseKind kind =
                scenario == 0   ? DefenseKind::kPrac
                : scenario == 1 ? DefenseKind::kPrfm
                                : DefenseKind::kPara;
            const double p = scenario >= 2 ? kParaP[scenario - 2] : 0.0;
            // Every arm is the PRAC attack system with the defense
            // swapped in.
            core::CovertScenario cell;
            cell.system.defense.kind = kind;
            cell.system.defense.para_probability = p;
            cell.system.defense.seed = job.seed;
            // PRAC's big back-offs use the back-off detector; PRFM/PARA
            // preventive actions are smaller, so the receiver counts
            // slow events per window against Trecv.
            if (kind != DefenseKind::kPrac)
                cell.kind = ChannelKind::kRfm;
            cell.window = 25 * sim::kUs;
            cell.bits = attack::patternBits(
                attack::MessagePattern::kCheckered0, bytes * 8);
            const auto result = core::runScenario(cell).pairs.front();
            return {{job.param("scenario"), p, result.symbol_error,
                     result.capacity}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        core::Table table({"defense (trigger class)", "error prob",
                           "capacity (Kbps)"});
        for (const auto &row : result.rows) {
            const auto scenario = static_cast<int>(row[0]);
            const std::string name =
                scenario == 0   ? "PRAC (exact, device)"
                : scenario == 1 ? "PRFM (exact, controller)"
                                : "PARA (random, p=" +
                                      core::fmt(row[1], 3) + ")";
            table.addRow({name, core::fmt(row[2], 3),
                          core::fmt(row[3] / 1000.0, 1)});
        }
        return table.str() +
               "\npaper reference (§12, footnote 7): exact triggers "
               "enable reliable channels; random triggers degrade "
               "the channel at low action rates, though at higher p "
               "a statistical channel persists.\n";
    };
    return fig;
}

} // namespace

std::vector<Figure>
countermeasureFigures()
{
    std::vector<Figure> figures;
    figures.push_back(thresholdFigure());
    figures.push_back(mitigationFigure());
    figures.push_back(countermeasuresFigure());
    figures.push_back(counterLeakFigure());
    figures.push_back(granularityFigure());
    figures.push_back(triggerFigure());
    return figures;
}

} // namespace leaky::runner
