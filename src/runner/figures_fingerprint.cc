/**
 * @file
 * Website-fingerprinting figure family: feature collection and the
 * classifier studies (Figs. 9-10, Table 2) plus the §10.3 cache /
 * prefetcher sensitivity study. Collection jobs reduce one (site,
 * load) trace to the 39-feature fingerprint vector; model training
 * happens post-sweep in summarize, over the merged rows.
 */

#include "runner/figures_internal.hh"

#include <cstddef>
#include <memory>
#include <string>

#include "attack/fingerprint.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "ml/dataset.hh"
#include "ml/ensemble.hh"
#include "ml/metrics.hh"
#include "ml/tree.hh"
#include "workload/website.hh"

namespace leaky::runner {

namespace {

using attack::ChannelKind;

constexpr std::uint32_t kFingerprintWindows = 32;

/** Shared shape of the collection sweeps: one job per (site, load),
 *  one row of {site, load, backoffs, features...} each. */
SweepSpec
collectionSpec(const char *name, std::uint32_t sites,
               std::uint32_t loads, sim::Tick duration,
               std::uint64_t base_seed, bool large_caches = false)
{
    SweepSpec spec;
    spec.name = name;
    spec.base_seed = base_seed;
    spec.axes = {{"site", iota(sites)}, {"load", iota(loads)}};
    spec.columns = {"site", "load", "backoffs"};
    for (std::uint32_t f = 0; f < kFingerprintWindows + 7; ++f)
        spec.columns.push_back("f" + std::to_string(f));
    spec.job = [sites, loads, duration, base_seed,
                large_caches](const Job &job) -> JobRows {
        core::FingerprintSpec fp;
        fp.sites = sites;
        fp.loads_per_site = loads;
        fp.duration = duration;
        fp.large_caches = large_caches;
        // The website trace is a function of (site, load, seed): keep
        // the base seed so loads are the paper's repeated page
        // visits, not fresh sites.
        fp.seed = base_seed;
        const auto sample = core::collectOneFingerprint(
            fp, static_cast<std::uint32_t>(job.param("site")),
            static_cast<std::uint32_t>(job.param("load")));
        const auto features = attack::extractFeatures(
            sample.backoff_times, sample.duration,
            kFingerprintWindows);
        std::vector<double> row = {
            job.param("site"), job.param("load"),
            static_cast<double>(sample.backoff_times.size())};
        row.insert(row.end(), features.values.begin(),
                   features.values.end());
        return {std::move(row)};
    };
    return spec;
}

/** The Fig. 10 / Table 2 collection sizes: both classifier studies
 *  train on the same dataset shape at every scale. */
SweepSpec
classifierCollection(const char *name, const RunOptions &opts)
{
    const Scale scale = scaleOf(opts);
    std::uint32_t sites = 12, loads = 12;
    sim::Tick duration = 2 * sim::kMs;
    if (scale == Scale::kSmoke) {
        sites = 4;
        loads = 4;
        duration = sim::kMs;
    } else if (scale == Scale::kFull) {
        sites = 40;
        loads = 50;
        duration = 4 * sim::kMs;
    }
    return collectionSpec(name, sites, loads, duration,
                          seedOr(opts, 2025));
}

/** Rebuild the ML dataset from merged collection rows. */
ml::Dataset
datasetFromRows(const SweepResult &result)
{
    ml::Dataset data;
    for (const auto &row : result.rows)
        data.add(std::vector<double>(row.begin() + 3, row.end()),
                 static_cast<int>(row[0]));
    return data;
}

// ---------------------------------------------------- Figs. 9 and 10

Figure
fingerprintFigure()
{
    Figure fig;
    fig.name = "fingerprint";
    fig.title = "Website fingerprinting via PRAC back-off traces";
    fig.paper_ref = "Figs. 9 & 10, Table 2";
    fig.csv_name = "fig_website_fingerprint.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        std::uint32_t sites = 8, loads = 10;
        sim::Tick duration = 2 * sim::kMs;
        if (scale == Scale::kSmoke) {
            sites = 4;
            loads = 6;
        } else if (scale == Scale::kFull) {
            sites = 40;
            loads = 50;
            duration = 4 * sim::kMs;
        }
        return collectionSpec("fingerprint", sites, loads, duration,
                              seedOr(opts, 2025));
    };
    fig.summarize = [](const SweepResult &result) {
        // Rebuild the dataset from the merged rows and train the
        // paper's classifier on held-out loads (Fig. 10).
        const auto data = datasetFromRows(result);
        const auto split = ml::stratifiedSplit(data, 0.25, 99);
        ml::RandomForest model;
        model.fit(split.train);
        const auto cm = ml::evaluate(model, split.test);
        core::Table table({"metric", "value"});
        table.addRow({"held-out accuracy", core::fmt(cm.accuracy(), 3)});
        table.addRow({"chance", core::fmt(1.0 / data.n_classes, 3)});
        table.addRow({"macro F1", core::fmt(cm.macroF1(), 3)});
        return table.str() +
               "\npaper reference: ~90% accuracy over 40 sites at "
               "NRH = 64 (Fig. 10).\n";
    };
    return fig;
}

// ------------------------------------------------------------ Fig. 9

Figure
stripsFigure()
{
    Figure fig;
    fig.name = "strips";
    fig.title = "Back-off strips of repeated website loads "
                "(wikipedia / reddit / youtube)";
    fig.paper_ref = "Fig. 9";
    fig.csv_name = "fig_fingerprint_strips.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        // Site indices of wikipedia (34), reddit (24), youtube (38).
        spec = collectionSpec(
            "strips", 40, 2,
            scale == Scale::kFull ? 4 * sim::kMs : 2 * sim::kMs,
            seedOr(opts, 2025));
        spec.axes[0].values = scale == Scale::kSmoke
                                  ? std::vector<double>{34, 24}
                                  : std::vector<double>{34, 24, 38};
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        std::string out;
        for (const auto &row : result.rows) {
            // The first 24 windowed features are the strip cells.
            std::vector<double> strip(row.begin() + 3,
                                      row.begin() + 3 + 24);
            const auto &name = workload::websiteNames()[
                static_cast<std::size_t>(row[0])];
            out += name + " load " + core::fmt(row[1], 0) + "  [" +
                   core::sparkline(strip) + "]  (" +
                   core::fmt(row[2], 0) + " back-offs)\n";
        }
        return out +
               "\nEach cell is one execution window; darker = more "
               "back-offs. Loads of one site match; sites differ; "
               "early windows look alike (browser startup).\n";
    };
    return fig;
}

// ----------------------------------------------------------- Fig. 10

Figure
classifiersFigure()
{
    Figure fig;
    fig.name = "classifiers";
    fig.title = "Accuracy of the eight classical ML models on "
                "website fingerprints";
    fig.paper_ref = "Fig. 10";
    fig.csv_name = "fig_classifier_accuracy.csv";
    fig.make = [](const RunOptions &opts) {
        return classifierCollection("classifiers", opts);
    };
    fig.summarize = [](const SweepResult &result) {
        const auto data = datasetFromRows(result);
        const auto split = ml::stratifiedSplit(data, 0.25, 77);
        core::Table table({"model", "test accuracy"});
        for (const auto &model : ml::makeFig10Models()) {
            model->fit(split.train);
            const auto cm = ml::evaluate(*model, split.test);
            table.addRow({model->name(), core::fmt(cm.accuracy(), 3)});
        }
        table.addRow({"(chance)", core::fmt(1.0 / data.n_classes, 3)});
        return table.str() +
               "\npaper reference: DT 0.75, RF 0.48, GB 0.47, kNN "
               "0.30, SVM 0.11, LR 0.08, Ada 0.08, Perc 0.06 "
               "(chance 0.025).\n";
    };
    return fig;
}

// ----------------------------------------------------------- Table 2

Figure
fingerprintCvFigure()
{
    Figure fig;
    fig.name = "fingerprint-cv";
    fig.title = "k-fold cross-validation of the decision-tree "
                "fingerprint classifier";
    fig.paper_ref = "Table 2";
    fig.csv_name = "tab_fingerprint_cv.csv";
    fig.make = [](const RunOptions &opts) {
        return classifierCollection("fingerprint-cv", opts);
    };
    fig.summarize = [](const SweepResult &result) {
        const auto data = datasetFromRows(result);
        // Fold count follows the collection size: the paper's 10-fold
        // needs 50 loads per site; smaller scales keep folds <= loads.
        double max_load = 0;
        for (const auto &row : result.rows)
            max_load = row[1] > max_load ? row[1] : max_load;
        const auto loads = static_cast<std::uint32_t>(max_load) + 1;
        const std::uint32_t folds = loads >= 50 ? 10
                                    : loads >= 10 ? 5
                                                  : 3;
        const auto cv = ml::crossValidate(
            [] { return std::make_unique<ml::DecisionTree>(); }, data,
            folds);
        core::Table table({"metric", "mean (%)", "stddev"});
        table.addRow({"F1", core::fmt(cv.f1.mean * 100.0, 1),
                      core::fmt(cv.f1.stddev * 100.0, 1)});
        table.addRow({"Precision",
                      core::fmt(cv.precision.mean * 100.0, 1),
                      core::fmt(cv.precision.stddev * 100.0, 1)});
        table.addRow({"Recall", core::fmt(cv.recall.mean * 100.0, 1),
                      core::fmt(cv.recall.stddev * 100.0, 1)});
        table.addRow({"Accuracy",
                      core::fmt(cv.accuracy.mean * 100.0, 1),
                      core::fmt(cv.accuracy.stddev * 100.0, 1)});
        return table.str() +
               "\npaper reference (10-fold): F1 71.8 (4.2), precision "
               "74.1 (4.4), recall 72.4 (4.2).\n";
    };
    return fig;
}

// ------------------------------------------------------------- §10.3

Figure
cachePrefetchFigure()
{
    Figure fig;
    fig.name = "cache-prefetch";
    fig.title = "Sensitivity to larger caches and Best-Offset "
                "prefetching";
    fig.paper_ref = "§10.3";
    fig.csv_name = "tab_cache_prefetch.csv";
    fig.make = [](const RunOptions &opts) {
        const Scale scale = scaleOf(opts);
        SweepSpec spec;
        spec.name = "cache-prefetch";
        spec.base_seed = seedOr(opts, 1);
        // Scenarios: 0 = PRAC channel, 1 = RFM channel,
        // 2 = fingerprint accuracy (default/full only — the whole
        // collection runs inside one job).
        spec.axes = {{"scenario", scale == Scale::kSmoke
                                      ? std::vector<double>{0, 1}
                                      : std::vector<double>{0, 1, 2}},
                     {"large_caches", {0, 1}}};
        const std::size_t bytes = byScale<std::size_t>(scale, 4, 20, 100);
        const std::uint32_t fp_sites = scale == Scale::kFull ? 40 : 6;
        const std::uint32_t fp_loads = scale == Scale::kFull ? 50 : 6;
        const sim::Tick fp_duration = 2 * sim::kMs;
        const std::uint64_t base_seed = spec.base_seed;
        spec.columns = {"scenario", "large_caches", "error", "value"};
        spec.job = [bytes, fp_sites, fp_loads, fp_duration,
                    base_seed](const Job &job) -> JobRows {
            const bool large = job.param("large_caches") > 0.5;
            const auto scenario =
                static_cast<int>(job.param("scenario"));
            if (scenario < 2) {
                auto cell = core::channelScenario(
                    scenario == 0 ? ChannelKind::kPrac : ChannelKind::kRfm);
                cell.system.defense.seed = job.seed;
                // A background app exercises the caches/prefetcher.
                cell.background = {workload::appsWithIntensity(
                    workload::Intensity::kMedium)[1]};
                cell.large_caches = large;
                const auto sweep = core::runPatternSweep(cell, bytes * 8);
                return {{job.param("scenario"),
                         job.param("large_caches"),
                         sweep.error_probability, sweep.capacity}};
            }
            core::FingerprintSpec fp;
            fp.sites = fp_sites;
            fp.loads_per_site = fp_loads;
            fp.duration = fp_duration;
            fp.large_caches = large;
            // Website traces are a function of (site, load, seed):
            // the base seed keeps the base/large datasets paired.
            fp.seed = base_seed;
            const auto data = core::fingerprintDataset(
                core::collectFingerprints(fp));
            const auto split = ml::stratifiedSplit(data, 0.25, 77);
            ml::DecisionTree dt;
            dt.fit(split.train);
            const double acc = ml::evaluate(dt, split.test).accuracy();
            return {{job.param("scenario"), job.param("large_caches"),
                     1.0 - acc, acc}};
        };
        return spec;
    };
    fig.summarize = [](const SweepResult &result) {
        const char *names[] = {"PRAC channel (Kbps)",
                               "RFM channel (Kbps)",
                               "fingerprint accuracy"};
        core::Table table({"attack", "baseline",
                           "large caches + BO", "change"});
        for (int scenario = 0; scenario < 3; ++scenario) {
            double base = 0, large = 0;
            bool seen = false;
            for (const auto &row : result.rows) {
                if (static_cast<int>(row[0]) != scenario)
                    continue;
                seen = true;
                (row[1] > 0.5 ? large : base) = row[3];
            }
            if (!seen)
                continue;
            const bool kbps = scenario < 2;
            const double shown_base = kbps ? base / 1000.0 : base;
            const double shown_large = kbps ? large / 1000.0 : large;
            table.addRow(
                {names[scenario], core::fmt(shown_base, kbps ? 1 : 3),
                 core::fmt(shown_large, kbps ? 1 : 3),
                 base > 0 ? core::fmt((large / base - 1.0) * 100.0, 1)
                                + "%"
                          : "-"});
        }
        return table.str() +
               "\npaper reference: 36.7 Kbps (-5.8%), 47.7 Kbps "
               "(-2.1%), accuracy 71.8% (-4.2%) — larger caches and "
               "prefetching do NOT prevent LeakyHammer.\n";
    };
    return fig;
}

} // namespace

std::vector<Figure>
fingerprintFigures()
{
    std::vector<Figure> figures;
    figures.push_back(fingerprintFigure());
    figures.push_back(stripsFigure());
    figures.push_back(classifiersFigure());
    figures.push_back(fingerprintCvFigure());
    figures.push_back(cachePrefetchFigure());
    return figures;
}

} // namespace leaky::runner
