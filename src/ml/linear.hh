/**
 * @file
 * Linear one-vs-rest classifiers for the Fig. 10 model zoo: logistic
 * regression, linear SVM (hinge loss), and the classic perceptron, all
 * trained with deterministic SGD on z-scored features.
 */

#ifndef LEAKY_ML_LINEAR_HH
#define LEAKY_ML_LINEAR_HH

#include "ml/classifier.hh"

namespace leaky::ml {

/** Base for one-vs-rest linear models (one weight row per class). */
class LinearOvR : public Classifier
{
  public:
    explicit LinearOvR(std::uint64_t seed) : seed_(seed) {}

    void fit(const Dataset &data) final;
    int predict(const std::vector<double> &row) const final;

  protected:
    /**
     * Per-sample update for class @p cls with target y in {-1, +1} and
     * margin m = y * score. Returns the gradient scale g such that
     * w += lr * g * y * x (g = 0 means no update).
     */
    virtual double gradientScale(double margin) const = 0;

    std::uint64_t seed_; ///< SGD shuffle seed.
    Standardizer scaler_;
    std::vector<std::vector<double>> weights_; ///< [class][feature+1].
    int n_classes_ = 0;
};

/** Logistic regression (log-loss SGD). */
class LogisticRegression final : public LinearOvR
{
  public:
    explicit LogisticRegression(std::uint64_t seed = 5) : LinearOvR(seed) {}
    std::string name() const override { return "LogisticRegression"; }

  protected:
    double gradientScale(double margin) const override;
};

/** Linear support vector machine (hinge-loss SGD). */
class LinearSvm final : public LinearOvR
{
  public:
    explicit LinearSvm(std::uint64_t seed = 5) : LinearOvR(seed) {}
    std::string name() const override { return "SVM"; }

  protected:
    double gradientScale(double margin) const override;
};

/** Rosenblatt perceptron (mistake-driven updates). */
class Perceptron final : public LinearOvR
{
  public:
    explicit Perceptron(std::uint64_t seed = 5) : LinearOvR(seed) {}
    std::string name() const override { return "Perceptron"; }

  protected:
    double gradientScale(double margin) const override;
};

/** k-nearest-neighbours (Euclidean on z-scored features). */
class KNearestNeighbors final : public Classifier
{
  public:
    explicit KNearestNeighbors(std::uint32_t k = 5) : k_(k) {}

    void fit(const Dataset &data) override;
    int predict(const std::vector<double> &row) const override;
    std::string name() const override { return "KNN"; }

  private:
    std::uint32_t k_;
    Standardizer scaler_;
    Dataset train_;
};

} // namespace leaky::ml

#endif // LEAKY_ML_LINEAR_HH
