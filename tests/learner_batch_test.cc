// Suite for batched learner inference: the group-batched
// ConfirmProbabilities path (row-major feature matrix + tree-at-a-time
// forest evaluation over flat SoA trees) must be bit-identical to the
// per-update ConfirmProbability path — probabilities, scores, AND ranking
// order — across random groups, retrain boundaries, untrained attributes,
// and 1/2/4/8 threads. Also pins the column-view tree builder to the
// recursive map/sort reference tree (bootstrap bags, sparse wide
// categorical ids, tie-heavy numeric columns, 2-4 classes) and the forest
// to ten reference trees trained on the same bags.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/learner_bank.h"
#include "core/voi.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "support/oracles.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gdr {
namespace {

// ---------------------------------------------------------------------------
// Column-view flat tree ≡ recursive map/sort reference tree on fuzzed
// trees and inputs.

// How a fuzzed training set's columns look.
struct FuzzShape {
  const char* name;
  // Categorical ids are drawn from [0, categorical_range), so a wide range
  // makes sparse ids with few repeats.
  std::size_t categorical_range;
  // Numeric values take this many distinct levels (heavy ties); 0 means
  // continuous draws.
  std::size_t numeric_levels;
};

constexpr FuzzShape kFuzzShapes[] = {
    {"narrow", 5, 0},
    {"wide-sparse-ids", 5000, 0},
    {"tied-numeric", 5, 3},
};

double FuzzedValue(Rng* rng, bool categorical, const FuzzShape& shape) {
  if (categorical) {
    return static_cast<double>(rng->NextBounded(shape.categorical_range));
  }
  if (shape.numeric_levels > 0) {
    return 2.5 * static_cast<double>(rng->NextBounded(shape.numeric_levels));
  }
  return rng->NextDouble() * 10.0;
}

TrainingSet FuzzedTrainingSet(Rng* rng, std::size_t num_features,
                              int num_classes, std::size_t num_examples,
                              const FuzzShape& shape = kFuzzShapes[0]) {
  std::vector<FeatureDesc> descs;
  for (std::size_t f = 0; f < num_features; ++f) {
    const bool categorical = rng->NextBounded(2) == 0;
    descs.push_back({"f" + std::to_string(f),
                     categorical ? FeatureType::kCategorical
                                 : FeatureType::kNumeric});
  }
  TrainingSet set(FeatureSchema(descs), num_classes);
  for (std::size_t i = 0; i < num_examples; ++i) {
    Example example;
    for (std::size_t f = 0; f < num_features; ++f) {
      example.features.push_back(FuzzedValue(
          rng, descs[f].type == FeatureType::kCategorical, shape));
    }
    // Learnable-but-noisy labels so trees grow real split structure.
    const double signal = example.features[0] + example.features[1 % num_features];
    example.label = static_cast<int>(
        (static_cast<std::size_t>(signal) + rng->NextBounded(2)) %
        static_cast<std::size_t>(num_classes));
    EXPECT_TRUE(set.Add(std::move(example)).ok());
  }
  return set;
}

std::vector<double> FuzzedInput(Rng* rng, const FeatureSchema& schema) {
  std::vector<double> features;
  for (std::size_t f = 0; f < schema.num_features(); ++f) {
    features.push_back(schema.IsCategorical(f)
                           ? static_cast<double>(rng->NextBounded(6))
                           : rng->NextDouble() * 12.0 - 1.0);
  }
  return features;
}

// A probe that reaches deep leaves: a training example with each feature
// replaced, with probability 1/3, by a fresh draw of the same shape.
std::vector<double> ProbeNear(Rng* rng, const TrainingSet& set,
                              const FuzzShape& shape) {
  std::vector<double> features =
      set.example(rng->NextBounded(set.size())).features;
  for (std::size_t f = 0; f < features.size(); ++f) {
    if (rng->NextBounded(3) == 0) {
      features[f] = FuzzedValue(rng, set.schema().IsCategorical(f), shape);
    }
  }
  return features;
}

// Same leaf, bit-identical payload, and the majority is the first max of
// the distribution (the builder's tie-break).
void ExpectSameLeaf(const DecisionTree& tree,
                    const oracles::ReferenceTree& reference,
                    const std::vector<double>& input) {
  std::vector<double> flat_dist;
  const std::vector<double> expected = reference.PredictDistribution(input);
  tree.PredictDistributionInto(input, &flat_dist);
  EXPECT_EQ(flat_dist, expected);
  const auto max_it = std::max_element(expected.begin(), expected.end());
  EXPECT_EQ(tree.Predict(input),
            static_cast<int>(std::distance(expected.begin(), max_it)));
}

class FlattenedTreeTest : public ::testing::TestWithParam<int> {};

TEST_P(FlattenedTreeTest, FlatWalkMatchesRecursiveOracleOnFuzzedInputs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (const FuzzShape& shape : kFuzzShapes) {
    for (const bool bootstrap : {false, true}) {
      SCOPED_TRACE(std::string(shape.name) +
                   (bootstrap ? " bootstrap bag" : " all examples"));
      const std::size_t num_features = 2 + rng.NextBounded(6);
      const int num_classes = 2 + static_cast<int>(rng.NextBounded(3));
      const TrainingSet set = FuzzedTrainingSet(
          &rng, num_features, num_classes, 40 + rng.NextBounded(120), shape);
      std::vector<std::size_t> bag(set.size());
      for (std::size_t k = 0; k < bag.size(); ++k) {
        bag[k] = bootstrap ? static_cast<std::size_t>(
                                 rng.NextBounded(set.size()))
                           : k;
      }

      DecisionTreeOptions options;
      options.feature_subsample =
          1 + static_cast<int>(rng.NextBounded(num_features));
      // Both builders draw from identical Rng states, so they must make
      // the same splits in the same pre-order.
      Rng tree_rng = rng;
      DecisionTree tree;
      ASSERT_TRUE(tree.Train(set, bag, options, &tree_rng).ok());
      oracles::ReferenceTree reference;
      ASSERT_TRUE(reference.Train(set, bag, options, &rng).ok());
      ASSERT_EQ(tree.node_count(), reference.node_count());
      // Both consumed the same draws.
      EXPECT_EQ(tree_rng.Next(), rng.Next());

      for (int probe = 0; probe < 200; ++probe) {
        ExpectSameLeaf(tree, reference, FuzzedInput(&rng, set.schema()));
        ExpectSameLeaf(tree, reference, ProbeNear(&rng, set, shape));
      }
    }
  }
}

TEST_P(FlattenedTreeTest, ForestMatchesReferenceTreesOnTheSameBags) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 5);
  const FuzzShape& shape =
      kFuzzShapes[static_cast<std::size_t>(GetParam()) % std::size(kFuzzShapes)];
  const std::size_t num_features = 3 + rng.NextBounded(10);
  const int num_classes = 2 + static_cast<int>(rng.NextBounded(3));
  const TrainingSet set = FuzzedTrainingSet(&rng, num_features, num_classes,
                                            30 + rng.NextBounded(200), shape);

  RandomForestOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) + 101;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Train(set).ok());

  // RandomForest's stream: per tree, a bootstrap bag of N draws, then the
  // tree's own draws, with ⌈√M⌉ features per split.
  DecisionTreeOptions tree_options = options.tree;
  tree_options.feature_subsample = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(num_features))));
  Rng forest_rng(options.seed);
  std::vector<oracles::ReferenceTree> references(
      static_cast<std::size_t>(options.num_trees));
  for (oracles::ReferenceTree& reference : references) {
    std::vector<std::size_t> bag(set.size());
    for (std::size_t& index : bag) {
      index = static_cast<std::size_t>(forest_rng.NextBounded(set.size()));
    }
    ASSERT_TRUE(reference.Train(set, bag, tree_options, &forest_rng).ok());
  }

  for (int probe = 0; probe < 300; ++probe) {
    const std::vector<double> input = probe % 2 == 0
                                          ? FuzzedInput(&rng, set.schema())
                                          : ProbeNear(&rng, set, shape);
    std::vector<double> expected(static_cast<std::size_t>(num_classes), 0.0);
    for (const oracles::ReferenceTree& reference : references) {
      const std::vector<double> dist = reference.PredictDistribution(input);
      expected[static_cast<std::size_t>(std::distance(
          dist.begin(), std::max_element(dist.begin(), dist.end())))] += 1.0;
    }
    for (double& f : expected) f /= static_cast<double>(references.size());
    EXPECT_EQ(forest.VoteFractions(input), expected);
  }
}

TEST_P(FlattenedTreeTest, ForestBatchMatchesPerRowFractions) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const std::size_t num_features = 3 + rng.NextBounded(4);
  const TrainingSet set = FuzzedTrainingSet(&rng, num_features, 3, 120);

  RandomForestOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) + 11;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Train(set).ok());

  for (const std::size_t rows : {std::size_t{1}, std::size_t{4}, std::size_t{33}}) {
    std::vector<double> matrix;
    std::vector<std::vector<double>> inputs;
    for (std::size_t r = 0; r < rows; ++r) {
      inputs.push_back(FuzzedInput(&rng, set.schema()));
      matrix.insert(matrix.end(), inputs.back().begin(), inputs.back().end());
    }
    std::vector<double> batch;
    forest.VoteFractionsBatch(matrix.data(), rows, num_features, &batch);
    ASSERT_EQ(batch.size(), rows * static_cast<std::size_t>(forest.num_classes()));
    for (std::size_t r = 0; r < rows; ++r) {
      const std::vector<double> per_row = forest.VoteFractions(inputs[r]);
      for (std::size_t c = 0; c < per_row.size(); ++c) {
        EXPECT_EQ(batch[r * per_row.size() + c], per_row[c]) << r << "," << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlattenedTreeTest, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Batched p̃ ≡ per-update oracle over a live bank.

// Randomized instance mirroring voi_batched_test, plus a learner bank the
// tests feed synthetic-but-deterministic feedback into.
struct RandomLearnerInstance {
  explicit RandomLearnerInstance(std::uint64_t seed)
      : schema(*Schema::Make({"STR", "CT", "STT", "ZIP"})),
        table(schema),
        rules(schema),
        rng(seed) {
    const char* streets[] = {"Main St", "Oak Ave", "Sherden Rd", "Elm St"};
    const char* cities[] = {"Fort Wayne", "Westville", "Michigan City"};
    const char* states[] = {"IN", "IND"};
    const char* zips[] = {"46825", "46391", "46360", "46802", "46774"};
    for (int i = 0; i < 80; ++i) {
      EXPECT_TRUE(table
                      .AppendRow({streets[rng.NextBounded(4)],
                                  cities[rng.NextBounded(3)],
                                  states[rng.NextBounded(2)],
                                  zips[rng.NextBounded(5)]})
                      .ok());
    }
    EXPECT_TRUE(
        rules.AddRuleFromString("c1", "ZIP=46360 -> CT=Michigan City ; STT=IN")
            .ok());
    EXPECT_TRUE(rules.AddRuleFromString("c2", "ZIP=46391 -> CT=Westville")
                    .ok());
    EXPECT_TRUE(rules.AddRuleFromString("v1", "STR, CT -> ZIP").ok());
    EXPECT_TRUE(rules.AddRuleFromString("v2", "ZIP -> CT").ok());
    index = std::make_unique<ViolationIndex>(&table, &rules);

    weights.resize(rules.size());
    for (double& w : weights) w = 0.05 + 0.95 * rng.NextDouble();

    LearnerBankOptions bank_options;
    bank_options.min_training_examples = 12;
    bank_options.seed = seed * 31 + 5;
    bank = std::make_unique<LearnerBank>(&table, index.get(), bank_options);

    const std::size_t num_groups = 12;
    for (std::size_t g = 0; g < num_groups; ++g) {
      UpdateGroup group;
      group.attr = static_cast<AttrId>(rng.NextBounded(table.num_attrs()));
      group.value = static_cast<ValueId>(
          rng.NextBounded(table.DomainSize(group.attr)));
      const std::size_t members = 3 + rng.NextBounded(12);
      for (std::size_t row_index :
           rng.SampleWithoutReplacement(table.num_rows(), members)) {
        Update update;
        update.row = static_cast<RowId>(row_index);
        update.attr = group.attr;
        update.value = group.value;
        update.score = rng.NextDouble();
        group.updates.push_back(update);
      }
      groups.push_back(std::move(group));
    }
  }

  // Deterministic synthetic label; what it "means" is irrelevant — the
  // differential only needs trained committees with real vote structure.
  Feedback LabelFor(const Update& update) const {
    return static_cast<Feedback>(
        (static_cast<std::size_t>(update.row) +
         static_cast<std::size_t>(update.attr) * 3 +
         static_cast<std::size_t>(update.value)) %
        static_cast<std::size_t>(kNumFeedbackClasses));
  }

  // Feeds every update of every group whose attr is in `attrs` as labeled
  // feedback and retrains those models.
  void TrainAttrs(const std::vector<AttrId>& attrs) {
    for (const UpdateGroup& group : groups) {
      if (std::find(attrs.begin(), attrs.end(), group.attr) == attrs.end()) {
        continue;
      }
      for (const Update& update : group.updates) {
        ASSERT_TRUE(bank->AddFeedback(update, LabelFor(update)).ok());
      }
    }
    for (AttrId attr : attrs) ASSERT_TRUE(bank->Retrain(attr).ok());
  }

  Schema schema;
  Table table;
  RuleSet rules;
  Rng rng;
  std::unique_ptr<ViolationIndex> index;
  std::vector<double> weights;
  std::unique_ptr<LearnerBank> bank;
  std::vector<UpdateGroup> groups;
};

void ExpectBatchedMatchesOracle(const RandomLearnerInstance& inst) {
  std::vector<double> batched;
  for (const UpdateGroup& group : inst.groups) {
    inst.bank->ConfirmProbabilities(std::span<const Update>(group.updates),
                                    &batched);
    ASSERT_EQ(batched.size(), group.updates.size());
    for (std::size_t j = 0; j < group.updates.size(); ++j) {
      EXPECT_EQ(batched[j], inst.bank->ConfirmProbability(group.updates[j]))
          << "group attr " << group.attr << " update " << j;
    }
  }
}

class LearnerBatchTest : public ::testing::TestWithParam<int> {};

// Untrained bank: both paths fall back to the repair score per update.
TEST_P(LearnerBatchTest, UntrainedFallbackMatchesOracle) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));
  ExpectBatchedMatchesOracle(inst);
  std::vector<double> batched;
  for (const UpdateGroup& group : inst.groups) {
    inst.bank->ConfirmProbabilities(std::span<const Update>(group.updates),
                                    &batched);
    for (std::size_t j = 0; j < group.updates.size(); ++j) {
      EXPECT_EQ(batched[j], group.updates[j].score);
    }
  }
}

// Trained committees: batched matrix evaluation is bit-identical to the
// scalar oracle, including across retrain boundaries (models retrained on
// more feedback mid-stream) and with a mix of trained and untrained attrs.
TEST_P(LearnerBatchTest, TrainedAndRetrainedMatchesOracle) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));

  // Train a strict subset of attributes: the untrained remainder must keep
  // falling back while trained attrs predict, in the same batch sweep.
  inst.TrainAttrs({static_cast<AttrId>(0), static_cast<AttrId>(1)});
  ExpectBatchedMatchesOracle(inst);

  // Retrain boundary: more feedback + Retrain, then re-compare. The
  // probabilities may move; the two paths must move together.
  inst.TrainAttrs({static_cast<AttrId>(0), static_cast<AttrId>(1),
                   static_cast<AttrId>(2), static_cast<AttrId>(3)});
  ExpectBatchedMatchesOracle(inst);
}

// A span holding several attr runs back-to-back (the general contract,
// wider than the one-group-per-call the ranker uses).
TEST_P(LearnerBatchTest, MixedAttrSpanMatchesOracle) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));
  inst.TrainAttrs({static_cast<AttrId>(1), static_cast<AttrId>(3)});

  std::vector<Update> all;
  for (const UpdateGroup& group : inst.groups) {
    all.insert(all.end(), group.updates.begin(), group.updates.end());
  }
  std::vector<double> batched;
  inst.bank->ConfirmProbabilities(std::span<const Update>(all), &batched);
  ASSERT_EQ(batched.size(), all.size());
  for (std::size_t j = 0; j < all.size(); ++j) {
    EXPECT_EQ(batched[j], inst.bank->ConfirmProbability(all[j]));
  }
}

// Rank with the batch fn installed is bit-identical — scores AND order —
// to Rank without it (p̃ from the scalar fn, one update at a time) at
// 1/2/4/8 threads, with trained models in the loop.
TEST_P(LearnerBatchTest, BatchedInferenceRankingBitIdenticalAcrossThreads) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));
  inst.TrainAttrs({static_cast<AttrId>(0), static_cast<AttrId>(2)});

  const ConfirmProbabilityFn scalar = [&inst](const Update& update) {
    return inst.bank->ConfirmProbability(update);
  };
  const ConfirmProbabilityBatchFn batch_fn =
      [&inst](std::span<const Update> updates, std::vector<double>* out) {
        inst.bank->ConfirmProbabilities(updates, out);
      };

  const VoiRanker per_update(inst.index.get(), &inst.weights);
  const VoiRanker::Ranking reference = per_update.Rank(inst.groups, scalar);
  ASSERT_EQ(reference.scores.size(), inst.groups.size());

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    VoiRanker batched(inst.index.get(), &inst.weights, &pool);
    batched.set_batch_probability_fn(batch_fn);
    const VoiRanker::Ranking ranking = batched.Rank(inst.groups, scalar);
    EXPECT_EQ(ranking.scores, reference.scores) << threads << " threads";
    EXPECT_EQ(ranking.order, reference.order) << threads << " threads";
  }
}

// Batched inference accumulates perf counters (encode + tree walk with
// item counts; probes on the ranker side) — the observability half of the
// tentpole.
TEST_P(LearnerBatchTest, PerfCountersAccumulate) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));
  inst.TrainAttrs({static_cast<AttrId>(0), static_cast<AttrId>(1),
                   static_cast<AttrId>(2), static_cast<AttrId>(3)});

  std::vector<double> out;
  std::size_t expected = 0;
  for (const UpdateGroup& group : inst.groups) {
    inst.bank->ConfirmProbabilities(std::span<const Update>(group.updates),
                                    &out);
    // Attrs whose feedback never reached min_training_examples stay
    // untrained and take the score fallback — no encode, no tree walk.
    if (inst.bank->IsTrained(group.attr)) expected += group.updates.size();
  }
  const PerfCounters& perf = inst.bank->perf_counters();
  EXPECT_EQ(perf.Count(PerfPhase::kLearnerEncode), expected);
  EXPECT_EQ(perf.Count(PerfPhase::kLearnerTreeWalk), expected);

  std::size_t total_updates = 0;
  for (const UpdateGroup& group : inst.groups) {
    total_updates += group.updates.size();
  }
  VoiRanker ranker(inst.index.get(), &inst.weights);
  ranker.Rank(inst.groups, [&inst](const Update& update) {
    return inst.bank->ConfirmProbability(update);
  });
  EXPECT_EQ(ranker.perf_counters().Count(PerfPhase::kVoiProbe), total_updates);
  EXPECT_GT(ranker.perf_counters().Seconds(PerfPhase::kVoiProbe), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnerBatchTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace gdr
