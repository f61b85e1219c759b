#include "ml/linear.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/logging.hh"

namespace leaky::ml {

namespace {

/** Shared SGD hyperparameters. */
constexpr std::uint32_t kEpochs = 40;
constexpr double kLearningRate = 0.05;
constexpr double kL2 = 1e-4;

} // namespace

void
LinearOvR::fit(const Dataset &data)
{
    LEAKY_ASSERT(data.size() > 0, "empty training set");
    n_classes_ = data.n_classes;
    scaler_.fit(data);
    const Dataset scaled = scaler_.apply(data);
    const auto n_features = scaled.features();
    weights_.assign(static_cast<std::size_t>(n_classes_),
                    std::vector<double>(n_features + 1, 0.0));

    std::vector<std::size_t> order(scaled.size());
    std::iota(order.begin(), order.end(), 0);
    sim::Rng rng(seed_);

    for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        const double lr =
            kLearningRate / (1.0 + 0.1 * static_cast<double>(epoch));
        for (auto idx : order) {
            const auto &row = scaled.x[idx];
            for (int cls = 0; cls < n_classes_; ++cls) {
                auto &w = weights_[static_cast<std::size_t>(cls)];
                double score = w[n_features]; // Bias.
                for (std::size_t f = 0; f < n_features; ++f)
                    score += w[f] * row[f];
                const double y = scaled.y[idx] == cls ? 1.0 : -1.0;
                const double g = gradientScale(y * score);
                if (g != 0.0) {
                    for (std::size_t f = 0; f < n_features; ++f)
                        w[f] += lr * (g * y * row[f] - kL2 * w[f]);
                    w[n_features] += lr * g * y;
                }
            }
        }
    }
}

int
LinearOvR::predict(const std::vector<double> &row) const
{
    LEAKY_ASSERT(!weights_.empty(), "predict before fit");
    const auto scaled = scaler_.apply(row);
    int best = 0;
    double best_score = -1e300;
    for (int cls = 0; cls < n_classes_; ++cls) {
        const auto &w = weights_[static_cast<std::size_t>(cls)];
        double score = w[scaled.size()];
        for (std::size_t f = 0; f < scaled.size(); ++f)
            score += w[f] * scaled[f];
        if (score > best_score) {
            best_score = score;
            best = cls;
        }
    }
    return best;
}

double
LogisticRegression::gradientScale(double margin) const
{
    // d/dw log(1 + exp(-m)) -> sigma(-m).
    return 1.0 / (1.0 + std::exp(margin));
}

double
LinearSvm::gradientScale(double margin) const
{
    return margin < 1.0 ? 1.0 : 0.0;
}

double
Perceptron::gradientScale(double margin) const
{
    return margin <= 0.0 ? 1.0 : 0.0;
}

void
KNearestNeighbors::fit(const Dataset &data)
{
    LEAKY_ASSERT(data.size() > 0, "empty training set");
    scaler_.fit(data);
    train_ = scaler_.apply(data);
}

int
KNearestNeighbors::predict(const std::vector<double> &row) const
{
    LEAKY_ASSERT(train_.size() > 0, "predict before fit");
    const auto scaled = scaler_.apply(row);
    const auto k = std::min<std::size_t>(k_, train_.size());

    // Partial selection of the k nearest.
    std::vector<std::pair<double, int>> dist;
    dist.reserve(train_.size());
    for (std::size_t i = 0; i < train_.size(); ++i) {
        double d = 0.0;
        for (std::size_t f = 0; f < scaled.size(); ++f) {
            const double diff = scaled[f] - train_.x[i][f];
            d += diff * diff;
        }
        dist.emplace_back(d, train_.y[i]);
    }
    std::nth_element(dist.begin(),
                     dist.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     dist.end());
    std::vector<std::uint32_t> votes(
        static_cast<std::size_t>(train_.n_classes), 0);
    for (std::size_t i = 0; i < k; ++i)
        votes[static_cast<std::size_t>(dist[i].second)] += 1;
    return static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
}

} // namespace leaky::ml
