#include "ml/ensemble.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/logging.hh"

namespace leaky::ml {

namespace {

// Random forest hyperparameters.
constexpr std::uint32_t kForestTrees = 60;
constexpr std::uint32_t kForestMaxDepth = 20;
constexpr std::uint32_t kForestMinSamplesSplit = 4;

// Gradient boosting hyperparameters.
constexpr std::uint32_t kBoostRounds = 20;
constexpr std::uint32_t kBoostMaxDepth = 3;
constexpr double kBoostLearningRate = 0.3;
constexpr double kBoostSubsample = 0.7;

// AdaBoost (SAMME) rounds.
constexpr std::uint32_t kAdaBoostRounds = 80;

} // namespace

// ---------------------------------------------------------------- forest

void
RandomForest::fit(const Dataset &data)
{
    LEAKY_ASSERT(data.size() > 0, "empty training set");
    trees_.clear();
    n_classes_ = data.n_classes;
    sim::Rng rng(seed_);
    const auto max_features = static_cast<std::uint32_t>(
        std::max(1.0, std::sqrt(static_cast<double>(data.features()))));

    for (std::uint32_t t = 0; t < kForestTrees; ++t) {
        // Bootstrap sample.
        std::vector<std::size_t> sample(data.size());
        for (auto &idx : sample)
            idx = rng.below(data.size());
        Dataset boot = data.select(sample);
        boot.n_classes = n_classes_;

        TreeConfig tree_cfg;
        tree_cfg.max_depth = kForestMaxDepth;
        tree_cfg.min_samples_split = kForestMinSamplesSplit;
        tree_cfg.max_features = max_features;
        tree_cfg.seed = rng();
        trees_.emplace_back(tree_cfg);
        trees_.back().fit(boot);
    }
}

int
RandomForest::predict(const std::vector<double> &row) const
{
    LEAKY_ASSERT(!trees_.empty(), "predict before fit");
    std::vector<std::uint32_t> votes(
        static_cast<std::size_t>(n_classes_), 0);
    for (const auto &tree : trees_)
        votes[static_cast<std::size_t>(tree.predict(row))] += 1;
    return static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
}

// -------------------------------------------------------------- boosting

void
GradientBoosting::fit(const Dataset &data)
{
    LEAKY_ASSERT(data.size() > 0, "empty training set");
    n_classes_ = data.n_classes;
    stages_.assign(static_cast<std::size_t>(n_classes_), {});
    bias_.assign(static_cast<std::size_t>(n_classes_), 0.0);
    sim::Rng rng(seed_);

    const auto n = data.size();
    for (int cls = 0; cls < n_classes_; ++cls) {
        // Binary one-vs-rest logistic boosting.
        std::vector<double> target(n);
        double positives = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            target[i] = data.y[i] == cls ? 1.0 : 0.0;
            positives += target[i];
        }
        const double prior =
            std::clamp(positives / static_cast<double>(n), 1e-4,
                       1.0 - 1e-4);
        bias_[static_cast<std::size_t>(cls)] =
            std::log(prior / (1.0 - prior));

        std::vector<double> score(n,
                                  bias_[static_cast<std::size_t>(cls)]);
        auto &stage = stages_[static_cast<std::size_t>(cls)];
        for (std::uint32_t round = 0; round < kBoostRounds; ++round) {
            std::vector<double> residual(n);
            for (std::size_t i = 0; i < n; ++i) {
                const double p = 1.0 / (1.0 + std::exp(-score[i]));
                residual[i] = target[i] - p;
            }
            // Stochastic subsample for this round.
            std::vector<std::size_t> indices;
            indices.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                if (rng.uniform() < kBoostSubsample)
                    indices.push_back(i);
            }
            if (indices.size() < 2)
                continue;
            RegressionTree tree(kBoostMaxDepth);
            tree.fit(data.x, residual, indices);
            for (std::size_t i = 0; i < n; ++i)
                score[i] += kBoostLearningRate * tree.predict(data.x[i]);
            stage.push_back(std::move(tree));
        }
    }
}

double
GradientBoosting::score(const std::vector<double> &row, int cls) const
{
    double s = bias_[static_cast<std::size_t>(cls)];
    for (const auto &tree : stages_[static_cast<std::size_t>(cls)])
        s += kBoostLearningRate * tree.predict(row);
    return s;
}

int
GradientBoosting::predict(const std::vector<double> &row) const
{
    LEAKY_ASSERT(n_classes_ > 0, "predict before fit");
    int best = 0;
    double best_score = score(row, 0);
    for (int cls = 1; cls < n_classes_; ++cls) {
        const double s = score(row, cls);
        if (s > best_score) {
            best_score = s;
            best = cls;
        }
    }
    return best;
}

// -------------------------------------------------------------- adaboost

AdaBoost::AdaBoost(const AdaBoostConfig &cfg) : cfg_(cfg)
{
}

void
AdaBoost::fit(const Dataset &data)
{
    LEAKY_ASSERT(data.size() > 0, "empty training set");
    learners_.clear();
    alphas_.clear();
    n_classes_ = data.n_classes;
    const auto n = data.size();
    const double k = static_cast<double>(n_classes_);
    std::vector<double> weights(n, 1.0 / static_cast<double>(n));
    sim::Rng rng(cfg_.seed);

    for (std::uint32_t round = 0; round < kAdaBoostRounds; ++round) {
        // Weighted resampling stands in for weighted impurity: draw a
        // bootstrap sample proportional to the weights.
        std::vector<double> cumulative(n);
        std::partial_sum(weights.begin(), weights.end(),
                         cumulative.begin());
        const double total = cumulative.back();
        std::vector<std::size_t> sample(n);
        for (auto &idx : sample) {
            const double r = rng.uniform() * total;
            idx = static_cast<std::size_t>(
                std::lower_bound(cumulative.begin(), cumulative.end(),
                                 r) -
                cumulative.begin());
            idx = std::min(idx, n - 1);
        }
        Dataset boot = data.select(sample);
        boot.n_classes = n_classes_;

        TreeConfig tree_cfg;
        tree_cfg.max_depth = cfg_.max_depth;
        tree_cfg.seed = rng();
        DecisionTree learner(tree_cfg);
        learner.fit(boot);

        double err = 0.0;
        std::vector<bool> wrong(n);
        for (std::size_t i = 0; i < n; ++i) {
            wrong[i] = learner.predict(data.x[i]) != data.y[i];
            if (wrong[i])
                err += weights[i];
        }
        // SAMME requires err < 1 - 1/K; skip useless learners.
        if (err >= 1.0 - 1.0 / k || err <= 0.0) {
            if (err <= 0.0) {
                learners_.push_back(std::move(learner));
                alphas_.push_back(6.0); // Effectively decisive.
                break;
            }
            continue;
        }
        const double alpha =
            std::log((1.0 - err) / err) + std::log(k - 1.0);
        for (std::size_t i = 0; i < n; ++i) {
            if (wrong[i])
                weights[i] *= std::exp(alpha);
        }
        double sum = 0.0;
        for (double w : weights)
            sum += w;
        for (auto &w : weights)
            w /= sum;
        learners_.push_back(std::move(learner));
        alphas_.push_back(alpha);
    }
    if (learners_.empty()) {
        // Degenerate data: fall back to one unweighted learner.
        TreeConfig tree_cfg;
        tree_cfg.max_depth = cfg_.max_depth;
        learners_.emplace_back(tree_cfg);
        learners_.back().fit(data);
        alphas_.push_back(1.0);
    }
}

int
AdaBoost::predict(const std::vector<double> &row) const
{
    LEAKY_ASSERT(!learners_.empty(), "predict before fit");
    std::vector<double> votes(static_cast<std::size_t>(n_classes_), 0.0);
    for (std::size_t i = 0; i < learners_.size(); ++i)
        votes[static_cast<std::size_t>(learners_[i].predict(row))] +=
            alphas_[i];
    return static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
}

} // namespace leaky::ml
