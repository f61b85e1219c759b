/**
 * @file
 * Scaling + mapping-diversity figure family. The paper evaluates one
 * memory channel (Table 1); its §5.2 threat model, however, has
 * attackers choosing channels/ranks/banks after reverse engineering
 * the physical-to-DRAM mapping. These entries open that topology axis:
 *
 *  - `cross-channel`: the negative control the paper's per-channel
 *    claim implies — defenses are instantiated per channel, so a
 *    receiver on another channel must observe nothing and the channel
 *    capacity must collapse to ~0.
 *  - `channel-scaling`: one independent covert pair per channel,
 *    concurrently; aggregate capacity scales with the channel count
 *    because the per-channel defense instances share no state.
 *  - `mapping-order`: the PRAC channel under every (actual, assumed)
 *    mapping-preset pair; off-diagonal cells model an attacker whose
 *    reverse-engineered mapping is wrong. The channel mostly SURVIVES
 *    (same-bank row pairs are permutation-robust) and collapses only
 *    when the assumed row scale straddles the actual bank bits.
 *  - `mapping-recovery`: the DARE-style online attacker learning the
 *    bank/row XOR functions through row-buffer-conflict timing;
 *    probes-to-recovery vs mapping complexity (presets + folded-bit
 *    XOR variants) × defense.
 */

#include "runner/figures_internal.hh"

#include <algorithm>
#include <string>

#include "core/experiments.hh"
#include "core/report.hh"
#include "dram/mapping.hh"

namespace leaky::runner {

namespace {

// ------------------------------------------ cross-channel isolation

Figure
crossChannelFigure()
{
    Figure fig;
    fig.name = "cross-channel";
    fig.title = "Cross-channel isolation of the PRAC covert channel "
                "(per-channel defense instances)";
    fig.paper_ref = "§5.2 / §6 (negative control)";
    fig.csv_name = "fig_cross_channel_isolation.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "cross-channel";
        spec.base_seed = seedOr(opts, 1);
        spec.axes = {
            {"channels",
             byScale(scale, std::vector<double>{2},
                     std::vector<double>{2, 4},
                     std::vector<double>{2, 4})},
            {"placement", {0, 1}}, // 0 = same channel, 1 = cross.
            // Checkered patterns only: Eq. 1 credits a constant (or
            // deterministically inverted) output, so the all-ones /
            // all-zeros patterns cannot falsify a dead channel —
            // alternating bits are the discriminative probe here.
            {"pattern",
             byScale(scale, std::vector<double>{2},
                     std::vector<double>{2, 3},
                     std::vector<double>{2, 3})}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 20, 100);
        spec.columns = {"channels",   "placement",
                        "pattern",    "raw_bit_rate",
                        "error_probability", "capacity",
                        "tx_actions", "rx_actions",
                        "aggregate_actions"};
        spec.job = [bytes](const Job &job) -> JobRows {
            core::CovertScenario cell;
            cell.system.channels =
                static_cast<std::uint32_t>(job.param("channels"));
            cell.system.defense.seed = job.seed;
            // The sender hammers channel 0; the receiver colocates or
            // listens on channel 1.
            const std::uint32_t rx = job.param("placement") > 0.5 ? 1 : 0;
            cell.pairs.front().receiver.channel = rx;
            cell.bits = attack::patternBits(patternAxis(job), bytes * 8);
            const auto result = core::runScenario(cell);
            const auto &channel = result.pairs.front();
            return {{job.param("channels"), job.param("placement"),
                     job.param("pattern"), channel.raw_bit_rate,
                     channel.symbol_error, channel.capacity,
                     static_cast<double>(
                         result.channels[0].preventiveActions()),
                     static_cast<double>(
                         result.channels[rx].preventiveActions()),
                     static_cast<double>(
                         result.aggregate.preventiveActions())}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        const auto capacity = groupMean(result, {0, 1}, 5);
        const auto error = groupMean(result, {0, 1}, 4);
        const auto rx = groupMean(result, {0, 1}, 7);
        core::Table table({"channels", "placement", "error prob",
                           "capacity (Kbps)", "rx-channel actions"});
        for (const auto &[key, cap] : capacity)
            table.addRow({core::fmt(key[0], 0),
                          key[1] < 0.5 ? "same" : "cross",
                          core::fmt(error.at(key), 3),
                          core::fmt(cap / 1000.0, 1),
                          core::fmt(rx.at(key), 0)});
        return table.str() +
               "\nSame-channel capacity matches the noise-free "
               "capacity figure; the ch0->ch1 receiver's channel "
               "carries none of the sender's preventive actions (at "
               "most a rare self-induced one from the receiver's own "
               "refresh-driven activations) and capacity collapses to "
               "~0 -- defenses are per-channel, so the channel never "
               "crosses them.\n";
    };
    return fig;
}

// -------------------------------------- aggregate capacity scaling

Figure
channelScalingFigure()
{
    Figure fig;
    fig.name = "channel-scaling";
    fig.title = "Aggregate covert capacity vs memory-channel count "
                "(one pair per channel)";
    fig.paper_ref = "§5.2 / §6 (scaling)";
    fig.csv_name = "fig_channel_scaling.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "channel-scaling";
        spec.base_seed = seedOr(opts, 1);
        spec.axes = {{"channels", {1, 2, 4}},
                     {"pattern",
                      byScale(scale, std::vector<double>{2},
                              std::vector<double>{0, 2},
                              std::vector<double>{0, 1, 2, 3})}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 20, 50);
        spec.columns = {"channels",       "pattern",
                        "aggregate_raw_bit_rate", "mean_error",
                        "aggregate_capacity",     "min_channel_capacity",
                        "aggregate_actions"};
        spec.job = [bytes](const Job &job) -> JobRows {
            // One independent pair per channel, transmitting the same
            // payload concurrently. Per-channel defense instances mean
            // the pairs never contend for counter state — only the
            // event queue is shared.
            const auto channels =
                static_cast<std::uint32_t>(job.param("channels"));
            core::CovertScenario cell;
            cell.system.channels = channels;
            cell.system.defense.seed = job.seed;
            cell.pairs.clear();
            for (std::uint32_t ch = 0; ch < channels; ++ch)
                cell.pairs.push_back({{ch, 0, 0, 0}, {ch, 0, 0, 0}});
            cell.bits = attack::patternBits(patternAxis(job), bytes * 8);
            const auto result = core::runScenario(cell);
            double raw_bit_rate = 0.0, mean_error = 0.0, capacity = 0.0;
            double min_capacity = result.pairs.front().capacity;
            for (const auto &pair : result.pairs) {
                raw_bit_rate += pair.raw_bit_rate;
                capacity += pair.capacity;
                mean_error += pair.symbol_error / channels;
                min_capacity = std::min(min_capacity, pair.capacity);
            }
            return {{job.param("channels"), job.param("pattern"),
                     raw_bit_rate, mean_error, capacity, min_capacity,
                     static_cast<double>(
                         result.aggregate.preventiveActions())}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        const auto capacity = groupMean(result, {0}, 4);
        const auto error = groupMean(result, {0}, 3);
        // True worst-channel capacity per channel count: the minimum
        // over patterns of the per-job minima (a mean would mask one
        // pattern's genuinely bad channel).
        std::map<std::vector<double>, double> min_cap;
        for (const auto &row : result.rows) {
            const std::vector<double> key = {row[0]};
            const auto it = min_cap.find(key);
            if (it == min_cap.end())
                min_cap[key] = row[5];
            else
                it->second = std::min(it->second, row[5]);
        }
        core::Table table({"channels", "mean error",
                           "aggregate capacity (Kbps)",
                           "min channel (Kbps)"});
        for (const auto &[key, cap] : capacity)
            table.addRow({core::fmt(key[0], 0),
                          core::fmt(error.at(key), 3),
                          core::fmt(cap / 1000.0, 1),
                          core::fmt(min_cap.at(key) / 1000.0, 1)});
        return table.str() +
               "\nAggregate capacity scales ~linearly with the channel "
               "count: defense instances are per-channel, so "
               "concurrent pairs never contend for counter state.\n";
    };
    return fig;
}

// ------------------------------------- mapping-order sensitivity

/** The preset a `mapping-order` CSV cell encodes: its position in
 *  dram::mappingPresets(). */
dram::MappingSpec
presetAt(double index)
{
    return dram::MappingSpec::parse(
        dram::mappingPresets().at(static_cast<std::size_t>(index)));
}

Figure
mappingOrderFigure()
{
    Figure fig;
    fig.name = "mapping-order";
    fig.title = "PRAC covert channel vs the attacker's assumed "
                "physical-to-DRAM mapping";
    fig.paper_ref = "§5.2 (mapping diversity)";
    fig.csv_name = "fig_mapping_order.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "mapping-order";
        // Off-diagonal cells model a wrongly reverse-engineered mapping.
        spec.base_seed = seedOr(opts, 1);
        spec.axes = {{"actual", {0, 1, 2}}, {"assumed", {0, 1, 2}}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 16, 50);
        spec.columns = {"actual", "assumed", "match", "raw_bit_rate",
                        "error_probability", "capacity", "backoffs"};
        spec.job = [bytes](const Job &job) -> JobRows {
            const auto actual = presetAt(job.param("actual"));
            const auto assumed = presetAt(job.param("assumed"));
            // The system decodes through the actual mapping while the
            // attacker composes through the assumed one. A non-trivial
            // bank (bg 2, bank 1) keeps the functions distinguishable:
            // at all-zero low fields every preset degenerates to the
            // same line index.
            core::CovertScenario cell;
            cell.system.mapping = actual;
            cell.system.defense.seed = job.seed;
            cell.assumed_mapping = assumed;
            cell.pairs.front() = {{0, 0, 2, 1}, {0, 0, 2, 1}};
            cell.bits = attack::patternBits(
                attack::MessagePattern::kCheckered0, bytes * 8);
            const auto result = core::runScenario(cell).pairs.front();
            return {{job.param("actual"), job.param("assumed"),
                     actual == assumed ? 1.0 : 0.0,
                     result.raw_bit_rate, result.symbol_error,
                     result.capacity,
                     static_cast<double>(result.backoffs)}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        core::Table table({"actual", "assumed", "error prob",
                           "capacity (Kbps)", "back-offs"});
        for (const auto &row : result.rows)
            table.addRow({presetAt(row[0]).str(),
                          presetAt(row[1]).str(),
                          core::fmt(row[4], 3),
                          core::fmt(row[5] / 1000.0, 1),
                          core::fmt(row[6], 0)});
        return table.str() +
               "\nDiagonal cells reproduce the baseline channel. Most "
               "off-diagonal cells SURVIVE: a same-bank pair differing "
               "only in the row field usually stays a same-bank pair "
               "under a permuted order. The channel only collapses "
               "when the assumed order puts the row field at a scale "
               "the actual order maps onto bank bits (row-interleaved "
               "decoding a channel-last-composed pair), scattering the "
               "pair across banks -- mapping diversity alone is a weak "
               "mitigation against the §5.2 attacker.\n";
    };
    return fig;
}

// ------------------------------------- online mapping recovery

Figure
mappingRecoveryFigure()
{
    Figure fig;
    fig.name = "mapping-recovery";
    fig.title = "Online DARE-style mapping recovery: probes to learn "
                "the bank/row XOR functions vs mapping complexity";
    fig.paper_ref = "§5.2 (mapping reverse engineering)";
    fig.csv_name = "fig_mapping_recovery.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "mapping-recovery";
        spec.base_seed = seedOr(opts, 1);
        // Mapping axis: index into core::recoveryMappings() — the 3
        // presets (complexity 0) plus the folded-bit XOR variants.
        // Defense axis: index into the kinds list below, NOT the
        // DefenseKind enum value, so the CSV encoding is stable even
        // if the enum grows.
        spec.axes = {
            {"mapping", {0, 1, 2, 3, 4, 5}},
            {"defense",
             byScale(scale, std::vector<double>{0},
                     std::vector<double>{0, 1, 2},
                     std::vector<double>{0, 1, 2})}};
        spec.repetitions = byScale<std::uint32_t>(scale, 1, 1, 3);
        spec.columns = {"mapping",        "complexity",
                        "defense",        "probes",
                        "accesses",       "rounds",
                        "final_window",   "bank_recovered",
                        "row_recovered"};
        spec.job = [](const Job &job) -> JobRows {
            static const defense::DefenseKind kKinds[] = {
                defense::DefenseKind::kNone, defense::DefenseKind::kPrac,
                defense::DefenseKind::kGraphene};
            const auto mappings = core::recoveryMappings();
            const auto midx =
                static_cast<std::size_t>(job.param("mapping"));
            const auto didx =
                static_cast<std::size_t>(job.param("defense"));
            const auto result = core::runMappingRecoveryCell(
                mappings.at(midx).spec, kKinds[didx], job.seed);
            return {{job.param("mapping"),
                     static_cast<double>(mappings.at(midx).complexity),
                     job.param("defense"),
                     static_cast<double>(result.recovered.probes),
                     static_cast<double>(result.recovered.accesses),
                     static_cast<double>(result.recovered.rounds),
                     static_cast<double>(result.recovered.final_window),
                     result.bank_match ? 1.0 : 0.0,
                     result.row_match ? 1.0 : 0.0}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        const auto mappings = core::recoveryMappings();
        const auto probes = groupMean(result, {0, 1}, 3);
        const auto bank_ok = groupMean(result, {0, 1}, 7);
        const auto row_ok = groupMean(result, {0, 1}, 8);
        core::Table table({"mapping", "complexity", "mean probes",
                           "bank recovered", "row recovered"});
        for (const auto &[key, p] : probes) {
            const auto midx = static_cast<std::size_t>(key[0]);
            table.addRow({mappings.at(midx).name, core::fmt(key[1], 0),
                          core::fmt(p, 0), core::fmt(bank_ok.at(key), 2),
                          core::fmt(row_ok.at(key), 2)});
        }
        return table.str() +
               "\nThe attacker recovers the true bank functions (and "
               "row functions modulo bank) for every preset from "
               "conflict timing alone. Folding higher row bits into "
               "bank masks defeats each difference window in turn, so "
               "probes-to-recovery grows with mapping complexity -- "
               "XOR mappings raise the attack's cost but, like "
               "mapping diversity, do not stop the SS5.2 attacker.\n";
    };
    return fig;
}

} // namespace

std::vector<Figure>
scalingFigures()
{
    std::vector<Figure> figures;
    figures.push_back(crossChannelFigure());
    figures.push_back(channelScalingFigure());
    figures.push_back(mappingOrderFigure());
    figures.push_back(mappingRecoveryFigure());
    return figures;
}

} // namespace leaky::runner
