#ifndef GDR_ML_DECISION_TREE_H_
#define GDR_ML_DECISION_TREE_H_

#include <cstdint>
#include <vector>

#include "ml/example.h"
#include "util/result.h"
#include "util/rng.h"

namespace gdr {

struct DecisionTreeOptions {
  /// Maximum tree depth (root = depth 0).
  int max_depth = 24;
  /// Nodes with fewer examples become leaves.
  int min_samples_split = 2;
  /// Number of features considered at each split; 0 means all (plain
  /// decision tree), ⌈√M⌉ is the random-forest default (set by the forest).
  int feature_subsample = 0;
};

/// A training set transposed for tree building. It holds the labels and,
/// per feature, each example's dense rank among that feature's distinct
/// values in ascending order, plus the rank → value table. Building it
/// costs one sort per feature; a forest builds it once and every tree
/// trains on it, so split search counts small integers instead of sorting
/// doubles or keying maps at every node. Read-only after construction.
class ColumnView {
 public:
  explicit ColumnView(const TrainingSet& data);

  std::size_t num_examples() const { return labels_.size(); }
  std::size_t num_features() const { return categorical_.size(); }
  int num_classes() const { return num_classes_; }
  bool IsCategorical(std::size_t f) const { return categorical_[f] != 0; }
  int label(std::size_t i) const { return labels_[i]; }

  /// Example i's rank on feature f is ranks(f)[i]: the index of its value
  /// in values(f).
  const std::uint32_t* ranks(std::size_t f) const {
    return ranks_.data() + f * num_examples();
  }
  /// Feature f's distinct values in ascending order, indexed by rank.
  const double* values(std::size_t f) const {
    return values_.data() + value_begin_[f];
  }
  /// The largest distinct(f) over all features (histogram sizing).
  std::size_t max_distinct() const { return max_distinct_; }

 private:
  int num_classes_ = 0;
  std::vector<std::uint8_t> categorical_;
  std::vector<int> labels_;
  std::vector<std::uint32_t> ranks_;  // feature-major: [f * n + i]
  std::vector<std::size_t> value_begin_;  // num_features + 1 offsets
  std::vector<double> values_;
  std::size_t max_distinct_ = 0;
};

/// A binary classification tree trained by recursive information-gain
/// splitting (entropy impurity), supporting
///  * numeric features:      x[f] <= threshold,
///  * categorical features:  x[f] == value  (one-vs-rest),
/// with optional per-split random feature subsampling — the standard
/// random-forest base learner construction (Breiman 2001), which the paper
/// uses via WEKA. One-vs-rest equality splits keep high-cardinality
/// categorical attributes (city names, zip codes) tractable.
///
/// Training works on a ColumnView. The bag is one item buffer that each
/// node partitions in place before recursing on the two sub-ranges. At a
/// node, each candidate feature counts its items' classes into a reused
/// rank × class histogram, then walks the ranks present in ascending
/// order: a categorical feature scores one-vs-rest per value, a numeric
/// feature takes prefix sums and puts each threshold halfway between
/// adjacent distinct values. Gains depend only on class counts, so the
/// order of items inside a node never matters; ties keep the first split
/// found (features ascending, then values ascending). Nothing is allocated
/// per node.
///
/// The tree is stored flat, structure-of-arrays: feature / categorical /
/// threshold / left / right / majority as parallel arrays indexed by node
/// id in pre-order (root = 0), and every leaf distribution packed into one
/// contiguous pool indexed by offset. The builder writes these arrays
/// directly. Batch evaluation touches a handful of dense arrays, and
/// returning a distribution is a pool copy.
///
/// Deterministic given the training data, options, and Rng state.
class DecisionTree {
 public:
  DecisionTree() = default;

  /// Trains on `bag`, indices into `view`'s examples (duplicates allowed —
  /// this is how bootstrap bags are passed). Resets prior contents. `rng`
  /// is needed only when options.feature_subsample > 0 (may be nullptr
  /// otherwise). Fails on an empty bag or an empty schema.
  Status Train(const ColumnView& view, const std::vector<std::size_t>& bag,
               const DecisionTreeOptions& options, Rng* rng);

  /// Convenience: builds a ColumnView of `data` and trains on `indices`.
  Status Train(const TrainingSet& data,
               const std::vector<std::size_t>& indices,
               const DecisionTreeOptions& options, Rng* rng);

  /// Convenience: trains on all examples of `data`.
  Status Train(const TrainingSet& data, const DecisionTreeOptions& options,
               Rng* rng = nullptr);

  bool trained() const { return !feature_.empty(); }

  /// Majority class at the reached leaf.
  int Predict(const std::vector<double>& features) const {
    return Predict(features.data());
  }

  /// Raw-pointer overload for batch callers holding a row-major feature
  /// matrix; `features` must point at num_features doubles.
  int Predict(const double* features) const {
    return majority_[static_cast<std::size_t>(LeafOf(features))];
  }

  /// Class-frequency distribution at the reached leaf (sums to 1), copied
  /// out of the contiguous pool into `out` (resized to num_classes).
  void PredictDistributionInto(const std::vector<double>& features,
                               std::vector<double>* out) const {
    PredictDistributionInto(features.data(), out);
  }
  void PredictDistributionInto(const double* features,
                               std::vector<double>* out) const;

  /// Number of nodes (diagnostics / tests).
  std::size_t node_count() const { return feature_.size(); }
  int num_classes() const { return num_classes_; }

 private:
  // Per-Train state: the view, the item buffer and the reused scratch.
  struct Trainer;

  // Recursive builder over trainer.items[begin, end); appends the created
  // node (and, before returning, its whole subtree) in pre-order and
  // returns its index.
  std::int32_t Build(Trainer& trainer, std::size_t begin, std::size_t end,
                     int depth);

  // A leaf holding `counts` (per class, summing to `total`).
  std::int32_t MakeLeaf(const std::vector<std::size_t>& counts,
                        std::size_t total);

  // Appends one node to the parallel arrays; returns its index.
  std::int32_t AppendNode(std::int32_t feature, bool categorical,
                          double threshold, std::int32_t majority,
                          std::int32_t dist_offset);

  // Descent to a leaf's node index.
  std::int32_t LeafOf(const double* features) const {
    std::int32_t i = 0;
    std::int32_t f = feature_[0];
    while (f >= 0) {
      const std::size_t n = static_cast<std::size_t>(i);
      const double x = features[static_cast<std::size_t>(f)];
      const bool goes_left = categorical_[n] != 0 ? (x == threshold_[n])
                                                  : (x <= threshold_[n]);
      i = goes_left ? left_[n] : right_[n];
      f = feature_[static_cast<std::size_t>(i)];
    }
    return i;
  }

  int num_classes_ = 0;

  // One entry per node. An internal node sends an example left when
  //   numeric:      features[feature] <= threshold
  //   categorical:  features[feature] == threshold
  // dist_offset_ indexes dist_pool_ (num_classes_ doubles per leaf; -1 for
  // internal nodes).
  std::vector<std::int32_t> feature_;  // -1 marks a leaf
  std::vector<std::uint8_t> categorical_;
  std::vector<double> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<std::int32_t> majority_;
  std::vector<std::int32_t> dist_offset_;
  std::vector<double> dist_pool_;
};

/// Shannon entropy (nats) of a count histogram; 0 for empty/pure counts.
double CountsEntropy(const std::vector<std::size_t>& counts);

}  // namespace gdr

#endif  // GDR_ML_DECISION_TREE_H_
