#ifndef GDR_ML_EXAMPLE_H_
#define GDR_ML_EXAMPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace gdr {

/// Feature kinds supported by the learners. Categorical features hold
/// interned ids (compared only for equality); numeric features hold reals
/// (compared by threshold).
enum class FeatureType : std::uint8_t {
  kCategorical = 0,
  kNumeric = 1,
};

struct FeatureDesc {
  std::string name;
  FeatureType type = FeatureType::kCategorical;
};

/// Describes the feature vector layout shared by a training set and the
/// models trained on it.
class FeatureSchema {
 public:
  FeatureSchema() = default;
  explicit FeatureSchema(std::vector<FeatureDesc> features)
      : features_(std::move(features)) {}

  std::size_t num_features() const { return features_.size(); }
  const FeatureDesc& feature(std::size_t i) const { return features_[i]; }
  bool IsCategorical(std::size_t i) const {
    return features_[i].type == FeatureType::kCategorical;
  }

 private:
  std::vector<FeatureDesc> features_;
};

/// One labeled example. Feature values are stored uniformly as doubles;
/// categorical ids are small non-negative integers, exactly representable.
struct Example {
  std::vector<double> features;
  int label = 0;
};

/// A labeled training set with a fixed feature schema and class count.
/// Examples accumulate incrementally as user feedback arrives (Section 4.2,
/// "the newly labeled examples are added to the learner training dataset").
class TrainingSet {
 public:
  TrainingSet() = default;
  TrainingSet(FeatureSchema schema, int num_classes)
      : schema_(std::move(schema)), num_classes_(num_classes) {}

  /// Appends an example; fails on arity mismatch, a NaN feature (trees
  /// rank feature values, which needs a strict weak order) or label out of
  /// range.
  Status Add(Example example);

  const FeatureSchema& schema() const { return schema_; }
  int num_classes() const { return num_classes_; }
  std::size_t size() const { return examples_.size(); }
  bool empty() const { return examples_.empty(); }
  const Example& example(std::size_t i) const { return examples_[i]; }
  const std::vector<Example>& examples() const { return examples_; }

  /// Per-class example counts (size num_classes()).
  std::vector<std::size_t> ClassCounts() const;

 private:
  FeatureSchema schema_;
  int num_classes_ = 0;
  std::vector<Example> examples_;
};

}  // namespace gdr

#endif  // GDR_ML_EXAMPLE_H_
