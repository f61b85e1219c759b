/**
 * @file
 * Common classifier interface for the §8 fingerprinting models.
 */

#ifndef LEAKY_ML_CLASSIFIER_HH
#define LEAKY_ML_CLASSIFIER_HH

#include <memory>
#include <string>
#include <vector>

#include "ml/dataset.hh"

namespace leaky::ml {

/** Supervised multi-class classifier. */
class Classifier
{
  public:
    virtual ~Classifier() = default;

    /** Train on @p data (fully replaces prior state). */
    virtual void fit(const Dataset &data) = 0;

    /** Predict the class of one sample. */
    virtual int predict(const std::vector<double> &row) const = 0;

    /** Human-readable model name (paper Fig. 10 labels). */
    virtual std::string name() const = 0;
};

/** The paper's Fig. 10 model zoo, in plot order. */
std::vector<std::unique_ptr<Classifier>> makeFig10Models(
    std::uint64_t seed = 9);

} // namespace leaky::ml

#endif // LEAKY_ML_CLASSIFIER_HH
