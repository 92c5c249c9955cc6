#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

namespace gdr {

Status RandomForest::Train(const TrainingSet& data) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot train a forest on zero examples");
  }
  trees_.clear();
  num_classes_ = data.num_classes();

  DecisionTreeOptions tree_options = options_.tree;
  const std::size_t num_features = data.schema().num_features();
  tree_options.feature_subsample =
      options_.feature_subsample > 0
          ? options_.feature_subsample
          : static_cast<int>(
                std::ceil(std::sqrt(static_cast<double>(num_features))));

  Rng rng(options_.seed);
  const std::size_t n = data.size();
  const std::size_t bag_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.bootstrap_fraction *
                                  static_cast<double>(n)));

  // One column view for the whole committee: every tree trains on it.
  const ColumnView view(data);
  std::vector<std::size_t> bag(bag_size);
  trees_.resize(static_cast<std::size_t>(options_.num_trees));
  for (DecisionTree& tree : trees_) {
    // Bootstrap bag: sample with replacement.
    for (std::size_t& index : bag) {
      index = static_cast<std::size_t>(rng.NextBounded(n));
    }
    GDR_RETURN_NOT_OK(tree.Train(view, bag, tree_options, &rng));
  }
  return Status::OK();
}

std::vector<int> RandomForest::CommitteeVotes(
    const std::vector<double>& features) const {
  std::vector<int> votes;
  votes.reserve(trees_.size());
  for (const DecisionTree& tree : trees_) {
    votes.push_back(tree.Predict(features));
  }
  return votes;
}

std::vector<double> RandomForest::VoteFractions(
    const std::vector<double>& features) const {
  std::vector<double> fractions;
  VoteFractionsInto(features, &fractions);
  return fractions;
}

void RandomForest::VoteFractionsInto(const std::vector<double>& features,
                                     std::vector<double>* out) const {
  out->assign(static_cast<std::size_t>(num_classes_), 0.0);
  if (trees_.empty()) return;
  for (const DecisionTree& tree : trees_) {
    (*out)[static_cast<std::size_t>(tree.Predict(features))] += 1.0;
  }
  for (double& f : *out) f /= static_cast<double>(trees_.size());
}

void RandomForest::VoteFractionsBatch(const double* features,
                                      std::size_t rows, std::size_t stride,
                                      std::vector<double>* out) const {
  const std::size_t classes = static_cast<std::size_t>(num_classes_);
  out->assign(rows * classes, 0.0);
  if (trees_.empty()) return;
  // Tree-at-a-time within row blocks: per row the accumulator sees the
  // same +1.0 sequence in tree order as the per-row loop, so the sums
  // (and the final divisions) are bit-identical to VoteFractions. The
  // blocking caps how much of the feature matrix and vote output a tree
  // pass streams, keeping both resident across the tree loop — without it
  // large batches pay a full-matrix cache sweep per tree.
  constexpr std::size_t kRowBlock = 64;
  for (std::size_t base = 0; base < rows; base += kRowBlock) {
    const std::size_t end = std::min(rows, base + kRowBlock);
    for (const DecisionTree& tree : trees_) {
      const double* row = features + base * stride;
      double* votes = out->data() + base * classes;
      for (std::size_t r = base; r < end; ++r) {
        votes[tree.Predict(row)] += 1.0;
        row += stride;
        votes += classes;
      }
    }
  }
  const double denominator = static_cast<double>(trees_.size());
  for (double& f : *out) f /= denominator;
}

int RandomForest::Predict(const std::vector<double>& features) const {
  const std::vector<double> fractions = VoteFractions(features);
  return static_cast<int>(std::distance(
      fractions.begin(),
      std::max_element(fractions.begin(), fractions.end())));
}

double RandomForest::VoteEntropy(const std::vector<double>& fractions) {
  if (fractions.size() < 2) return 0.0;
  const double log_base = std::log(static_cast<double>(fractions.size()));
  double h = 0.0;
  for (double f : fractions) {
    if (f <= 0.0) continue;
    h -= f * std::log(f) / log_base;
  }
  return h;
}

double RandomForest::Uncertainty(const std::vector<double>& features) const {
  return VoteEntropy(VoteFractions(features));
}

}  // namespace gdr
