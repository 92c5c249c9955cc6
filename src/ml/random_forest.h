#ifndef GDR_ML_RANDOM_FOREST_H_
#define GDR_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/example.h"
#include "util/result.h"
#include "util/rng.h"

namespace gdr {

struct RandomForestOptions {
  /// Committee size k; the paper uses WEKA's default k = 10.
  int num_trees = 10;
  /// Bootstrap sample size as a fraction of N (N' = N by Breiman's default).
  double bootstrap_fraction = 1.0;
  /// Per-split feature subsample M'; 0 means ⌈√M⌉ (the standard default).
  int feature_subsample = 0;
  /// Base-learner options (feature_subsample inside is overridden).
  DecisionTreeOptions tree;
  std::uint64_t seed = 1;
};

/// A bagged ensemble of decision trees (Breiman 2001) serving as the GDR
/// learning component's classifier *and* as the active-learning committee
/// (Section 4.2): each tree is one committee member, the ensemble
/// prediction is the majority vote, and the disagreement entropy of the
/// votes is the learning-benefit (uncertainty) score used to order updates
/// for the user.
///
/// Training builds one ColumnView of the training set (each feature's
/// values ranked once) and every tree trains on it with its own bootstrap
/// bag; see DecisionTree for the per-node rank histograms.
class RandomForest {
 public:
  explicit RandomForest(RandomForestOptions options = {})
      : options_(options) {}

  /// (Re)trains the committee on `data`. Deterministic given options.seed:
  /// one Rng stream draws each tree's bag, then that tree's feature
  /// subsamples in pre-order. Fails on an empty training set.
  Status Train(const TrainingSet& data);

  bool trained() const { return !trees_.empty(); }
  int num_trees() const { return static_cast<int>(trees_.size()); }
  int num_classes() const { return num_classes_; }

  /// Majority vote over the committee (ties broken toward the smaller
  /// class index, deterministically).
  int Predict(const std::vector<double>& features) const;

  /// Per-class fraction of committee votes (sums to 1).
  std::vector<double> VoteFractions(const std::vector<double>& features) const;

  /// No-alloc variant: `out` is resized to num_classes and filled.
  /// Bit-identical to VoteFractions (same accumulation order: +1.0 per
  /// tree vote in tree order, one division at the end).
  void VoteFractionsInto(const std::vector<double>& features,
                         std::vector<double>* out) const;

  /// Batched committee evaluation over a row-major feature matrix:
  /// `features` holds `rows` examples of `stride` doubles each; `out` is
  /// resized to rows × num_classes (row-major) and filled with each row's
  /// vote fractions. Evaluated tree-at-a-time — every row descends tree 0,
  /// then every row descends tree 1, … — so one tree's flat node arrays
  /// stay hot across the whole batch instead of the whole forest being
  /// re-walked per row. Each row's accumulator still receives its +1.0
  /// votes in tree order and is divided once at the end, so every row's
  /// fractions are bit-identical to a per-row VoteFractions call.
  void VoteFractionsBatch(const double* features, std::size_t rows,
                          std::size_t stride, std::vector<double>* out) const;

  /// Committee vote of each tree, in tree order.
  std::vector<int> CommitteeVotes(const std::vector<double>& features) const;

  /// The paper's uncertainty score: entropy of the committee vote
  /// fractions with logarithm base = #classes, so the score is in [0, 1]
  /// (Section 4.2's worked example: votes {3/5, 1/5, 1/5} → 0.86).
  double Uncertainty(const std::vector<double>& features) const;

  /// Entropy of an arbitrary vote-fraction vector, same normalization.
  static double VoteEntropy(const std::vector<double>& fractions);

 private:
  RandomForestOptions options_;
  std::vector<DecisionTree> trees_;
  int num_classes_ = 0;
};

}  // namespace gdr

#endif  // GDR_ML_RANDOM_FOREST_H_
