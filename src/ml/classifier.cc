#include "ml/classifier.hh"

#include "ml/ensemble.hh"
#include "ml/linear.hh"
#include "ml/tree.hh"

namespace leaky::ml {

std::vector<std::unique_ptr<Classifier>>
makeFig10Models(std::uint64_t seed)
{
    std::vector<std::unique_ptr<Classifier>> models;

    TreeConfig dt;
    dt.max_depth = 12; // Regularised: fingerprint features are noisy.
    dt.min_samples_split = 6;
    dt.seed = seed;
    models.push_back(std::make_unique<DecisionTree>(dt));

    models.push_back(std::make_unique<RandomForest>(seed + 1));
    models.push_back(std::make_unique<GradientBoosting>(seed + 2));

    models.push_back(std::make_unique<KNearestNeighbors>(5));

    models.push_back(std::make_unique<LinearSvm>(seed + 3));
    models.push_back(std::make_unique<LogisticRegression>(seed + 4));

    AdaBoostConfig ada;
    ada.seed = seed + 5;
    models.push_back(std::make_unique<AdaBoost>(ada));

    models.push_back(std::make_unique<Perceptron>(seed + 6));

    return models;
}

} // namespace leaky::ml
