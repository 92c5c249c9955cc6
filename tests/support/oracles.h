// Test-only reference implementations ("oracles") that production code is
// differentially pinned against. Each one is the simplest correct form of
// a computation the library does a faster way:
//
//   MutateAndRevertBenefit   the VOI benefit term of Eq. 6, evaluated by
//                            applying the update to a private index and
//                            reading the aggregates (HypotheticalBatch
//                            computes the same numbers in closed form).
//   ReferenceTree            a decision tree as a vector of node structs,
//                            built recursively and walked by pointer
//                            (DecisionTree stores the same pre-order tree
//                            as flat arrays).
//   ExpectResultsIdentical   field-by-field equality of two experiment
//                            results, timings excluded.
//
// Include as "support/oracles.h" from a tests/*_test.cc file.
#ifndef GDR_TESTS_SUPPORT_ORACLES_H_
#define GDR_TESTS_SUPPORT_ORACLES_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "cfd/violation_index.h"
#include "ml/decision_tree.h"
#include "ml/example.h"
#include "repair/update.h"
#include "sim/experiment.h"
#include "util/rng.h"

namespace gdr::oracles {

// Σ_φ w_φ (vio(D,{φ}) − vio(D^rj,{φ})) / |D^rj ⊨ φ| for one update: copies
// the table, indexes it, applies the write, reads the affected rules'
// aggregates, and reverts. The inputs are never touched.
inline double MutateAndRevertBenefit(const Table& table, const RuleSet& rules,
                                     const std::vector<double>& weights,
                                     const Update& update) {
  Table scratch = table;
  ViolationIndex index(&scratch, &rules);
  const std::vector<RuleId>& affected = rules.RulesMentioning(update.attr);
  if (affected.empty()) return 0.0;
  std::vector<std::int64_t> vio_before(affected.size());
  for (std::size_t i = 0; i < affected.size(); ++i) {
    vio_before[i] = index.RuleViolations(affected[i]);
  }
  const ValueId old =
      index.ApplyCellChange(update.row, update.attr, update.value);
  double benefit = 0.0;
  for (std::size_t i = 0; i < affected.size(); ++i) {
    const RuleId rule = affected[i];
    const std::int64_t satisfying = index.SatisfyingCount(rule);
    if (satisfying <= 0) continue;
    const double drop =
        static_cast<double>(vio_before[i] - index.RuleViolations(rule));
    benefit += weights[static_cast<std::size_t>(rule)] * drop /
               static_cast<double>(satisfying);
  }
  index.ApplyCellChange(update.row, update.attr, old);
  return benefit;
}

// The recursive decision-tree builder DecisionTree's flat builder must
// agree with: given the same data, options and Rng state it consumes the
// same random draws, creates the same nodes in the same pre-order, and
// stores per-leaf distributions computed by the same divisions.
class ReferenceTree {
 public:
  Status Train(const TrainingSet& data, const DecisionTreeOptions& options,
               Rng* rng) {
    nodes_.clear();
    num_classes_ = data.num_classes();
    std::vector<std::size_t> items(data.size());
    std::iota(items.begin(), items.end(), 0);
    Build(data, items, /*depth=*/0, options, rng);
    return Status::OK();
  }

  std::size_t node_count() const { return nodes_.size(); }

  std::vector<double> PredictDistribution(
      const std::vector<double>& features) const {
    const Node* node = &nodes_[0];
    while (node->feature >= 0) {
      const double x = features[static_cast<std::size_t>(node->feature)];
      const bool goes_left =
          node->categorical ? (x == node->threshold) : (x <= node->threshold);
      node = &nodes_[static_cast<std::size_t>(goes_left ? node->left
                                                        : node->right)];
    }
    return node->distribution;
  }

 private:
  struct Node {
    std::int32_t feature = -1;  // -1 marks a leaf
    bool categorical = false;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::vector<double> distribution;  // leaves only
  };

  static double SplitEntropy(const std::vector<std::size_t>& left,
                             const std::vector<std::size_t>& right) {
    const std::size_t nl =
        std::accumulate(left.begin(), left.end(), std::size_t{0});
    const std::size_t nr =
        std::accumulate(right.begin(), right.end(), std::size_t{0});
    const std::size_t n = nl + nr;
    if (n == 0) return 0.0;
    return (static_cast<double>(nl) * CountsEntropy(left) +
            static_cast<double>(nr) * CountsEntropy(right)) /
           static_cast<double>(n);
  }

  std::int32_t MakeLeaf(const TrainingSet& data,
                        const std::vector<std::size_t>& items) {
    Node leaf;
    std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes_),
                                    0);
    for (std::size_t i : items) {
      counts[static_cast<std::size_t>(data.example(i).label)]++;
    }
    for (std::size_t count : counts) {
      leaf.distribution.push_back(static_cast<double>(count) /
                                  static_cast<double>(items.size()));
    }
    nodes_.push_back(std::move(leaf));
    return static_cast<std::int32_t>(nodes_.size() - 1);
  }

  std::int32_t Build(const TrainingSet& data, std::vector<std::size_t>& items,
                     int depth, const DecisionTreeOptions& options,
                     Rng* rng) {
    std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes_),
                                    0);
    for (std::size_t i : items) {
      counts[static_cast<std::size_t>(data.example(i).label)]++;
    }
    const double parent_entropy = CountsEntropy(counts);
    const bool pure =
        std::count(counts.begin(), counts.end(), items.size()) > 0;
    if (pure || depth >= options.max_depth ||
        items.size() < static_cast<std::size_t>(options.min_samples_split)) {
      return MakeLeaf(data, items);
    }

    const std::size_t num_features = data.schema().num_features();
    std::vector<std::size_t> candidates;
    if (options.feature_subsample > 0 &&
        static_cast<std::size_t>(options.feature_subsample) < num_features) {
      candidates = rng->SampleWithoutReplacement(
          num_features, static_cast<std::size_t>(options.feature_subsample));
      std::sort(candidates.begin(), candidates.end());
    } else {
      candidates.resize(num_features);
      std::iota(candidates.begin(), candidates.end(), 0);
    }

    double best_gain = 0.0;
    std::int32_t best_feature = -1;
    bool best_categorical = false;
    double best_threshold = 0.0;
    for (std::size_t f : candidates) {
      if (data.schema().IsCategorical(f)) {
        std::map<double, std::vector<std::size_t>> per_value;
        for (std::size_t i : items) {
          auto& vc = per_value[data.example(i).features[f]];
          if (vc.empty()) vc.resize(counts.size(), 0);
          vc[static_cast<std::size_t>(data.example(i).label)]++;
        }
        if (per_value.size() < 2) continue;
        for (const auto& [value, value_counts] : per_value) {
          std::vector<std::size_t> rest(counts.size());
          for (std::size_t c = 0; c < counts.size(); ++c) {
            rest[c] = counts[c] - value_counts[c];
          }
          const double gain =
              parent_entropy - SplitEntropy(value_counts, rest);
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = static_cast<std::int32_t>(f);
            best_categorical = true;
            best_threshold = value;
          }
        }
      } else {
        std::vector<std::pair<double, int>> sorted;
        for (std::size_t i : items) {
          sorted.emplace_back(data.example(i).features[f],
                              data.example(i).label);
        }
        std::sort(sorted.begin(), sorted.end());
        std::vector<std::size_t> left(counts.size(), 0);
        std::vector<std::size_t> right = counts;
        for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
          left[static_cast<std::size_t>(sorted[k].second)]++;
          right[static_cast<std::size_t>(sorted[k].second)]--;
          if (sorted[k].first == sorted[k + 1].first) continue;
          const double gain = parent_entropy - SplitEntropy(left, right);
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = static_cast<std::int32_t>(f);
            best_categorical = false;
            best_threshold = sorted[k].first +
                             (sorted[k + 1].first - sorted[k].first) / 2.0;
          }
        }
      }
    }

    constexpr double kMinGain = 1e-12;
    if (best_feature < 0 || best_gain <= kMinGain) {
      return MakeLeaf(data, items);
    }
    std::vector<std::size_t> left_items;
    std::vector<std::size_t> right_items;
    for (std::size_t i : items) {
      const double x =
          data.example(i).features[static_cast<std::size_t>(best_feature)];
      const bool goes_left =
          best_categorical ? (x == best_threshold) : (x <= best_threshold);
      (goes_left ? left_items : right_items).push_back(i);
    }
    if (left_items.empty() || right_items.empty()) {
      return MakeLeaf(data, items);
    }

    const std::int32_t index = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_.back().feature = best_feature;
    nodes_.back().categorical = best_categorical;
    nodes_.back().threshold = best_threshold;
    const std::int32_t left = Build(data, left_items, depth + 1, options, rng);
    const std::int32_t right =
        Build(data, right_items, depth + 1, options, rng);
    nodes_[static_cast<std::size_t>(index)].left = left;
    nodes_[static_cast<std::size_t>(index)].right = right;
    return index;
  }

  std::vector<Node> nodes_;
  int num_classes_ = 0;
};

// Every deterministic field of two experiment results is equal (timings
// and wall clock are the only run-to-run nondeterminism and are skipped).
inline void ExpectResultsIdentical(const ExperimentResult& a,
                                   const ExperimentResult& b,
                                   const std::string& label = "") {
  EXPECT_EQ(a.strategy_name, b.strategy_name) << label;
  EXPECT_EQ(a.stats.initial_dirty, b.stats.initial_dirty) << label;
  EXPECT_EQ(a.stats.user_feedback, b.stats.user_feedback) << label;
  EXPECT_EQ(a.stats.user_confirms, b.stats.user_confirms) << label;
  EXPECT_EQ(a.stats.user_rejects, b.stats.user_rejects) << label;
  EXPECT_EQ(a.stats.user_retains, b.stats.user_retains) << label;
  EXPECT_EQ(a.stats.user_suggested_values, b.stats.user_suggested_values)
      << label;
  EXPECT_EQ(a.stats.learner_decisions, b.stats.learner_decisions) << label;
  EXPECT_EQ(a.stats.learner_confirms, b.stats.learner_confirms) << label;
  EXPECT_EQ(a.stats.forced_repairs, b.stats.forced_repairs) << label;
  EXPECT_EQ(a.stats.outer_iterations, b.stats.outer_iterations) << label;
  EXPECT_EQ(a.stats.appended_rows, b.stats.appended_rows) << label;
  EXPECT_EQ(a.stats.admitted_dirty, b.stats.admitted_dirty) << label;
  EXPECT_EQ(a.initial_loss, b.initial_loss) << label;
  EXPECT_EQ(a.final_loss, b.final_loss) << label;
  EXPECT_EQ(a.final_improvement_pct, b.final_improvement_pct) << label;
  EXPECT_EQ(a.remaining_violations, b.remaining_violations) << label;
  EXPECT_EQ(a.accuracy.updated_cells, b.accuracy.updated_cells) << label;
  EXPECT_EQ(a.accuracy.correctly_updated_cells,
            b.accuracy.correctly_updated_cells)
      << label;
  EXPECT_EQ(a.accuracy.initially_incorrect_cells,
            b.accuracy.initially_incorrect_cells)
      << label;
  ASSERT_EQ(a.curve.size(), b.curve.size()) << label;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].feedback, b.curve[i].feedback) << label << " @" << i;
    EXPECT_EQ(a.curve[i].improvement_pct, b.curve[i].improvement_pct)
        << label << " @" << i;
    EXPECT_EQ(a.curve[i].loss, b.curve[i].loss) << label << " @" << i;
  }
}

}  // namespace gdr::oracles

#endif  // GDR_TESTS_SUPPORT_ORACLES_H_
