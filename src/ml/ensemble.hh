/**
 * @file
 * Ensemble classifiers for the Fig. 10 model zoo: random forest
 * (bootstrap-aggregated CART with feature subsampling), one-vs-rest
 * gradient boosting over regression trees (logistic loss), and
 * multi-class AdaBoost (SAMME with shallow trees via weighted
 * resampling).
 */

#ifndef LEAKY_ML_ENSEMBLE_HH
#define LEAKY_ML_ENSEMBLE_HH

#include <memory>

#include "ml/tree.hh"

namespace leaky::ml {

/** Bagged CART forest with sqrt-feature subsampling. */
class RandomForest final : public Classifier
{
  public:
    explicit RandomForest(std::uint64_t seed = 2) : seed_(seed) {}

    void fit(const Dataset &data) override;
    int predict(const std::vector<double> &row) const override;
    std::string name() const override { return "RandomForest"; }

  private:
    std::uint64_t seed_;
    std::vector<DecisionTree> trees_;
    int n_classes_ = 0;
};

/** One-vs-rest gradient-boosted trees with logistic loss. */
class GradientBoosting final : public Classifier
{
  public:
    explicit GradientBoosting(std::uint64_t seed = 3) : seed_(seed) {}

    void fit(const Dataset &data) override;
    int predict(const std::vector<double> &row) const override;
    std::string name() const override { return "GradientBoosting"; }

  private:
    double score(const std::vector<double> &row, int cls) const;

    std::uint64_t seed_;
    // [class][round] weak learners plus per-class bias.
    std::vector<std::vector<RegressionTree>> stages_;
    std::vector<double> bias_;
    int n_classes_ = 0;
};

/** AdaBoost (SAMME) hyperparameters. */
struct AdaBoostConfig {
    std::uint32_t max_depth = 2; ///< Shallow weak learners.
    std::uint64_t seed = 4;
};

/** Multi-class AdaBoost.SAMME with weighted-resampling weak learners. */
class AdaBoost final : public Classifier
{
  public:
    explicit AdaBoost(const AdaBoostConfig &cfg = {});

    void fit(const Dataset &data) override;
    int predict(const std::vector<double> &row) const override;
    std::string name() const override { return "AdaBoost"; }

  private:
    AdaBoostConfig cfg_;
    std::vector<DecisionTree> learners_;
    std::vector<double> alphas_;
    int n_classes_ = 0;
};

} // namespace leaky::ml

#endif // LEAKY_ML_ENSEMBLE_HH
