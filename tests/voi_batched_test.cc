// Suite for group-batched VOI scoring: the closed-form HypotheticalBatch
// probes must be bit-identical to the mutate-and-revert reference, with
// the batch staged once per group and when every probe restages it.
// Ranking built on these probes is pinned in voi_parallel_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/voi.h"
#include "support/oracles.h"
#include "util/rng.h"

namespace gdr {
namespace {

// Randomized instance mirroring voi_parallel_test: table + constant/variable
// rule mix + synthetic candidate pools grouped by (attr, value).
struct RandomVoiInstance {
  explicit RandomVoiInstance(std::uint64_t seed)
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

  Schema schema;
  Table table;
  RuleSet rules;
  Rng rng;
  std::unique_ptr<ViolationIndex> index;
  std::vector<double> weights;
  std::vector<UpdateGroup> groups;
};

class VoiBatchedTest : public ::testing::TestWithParam<int> {};

// Differential: the batched closed-form benefit is bit-identical to the
// fresh-batch path and the mutate-and-revert reference — for every pooled
// update, with the batch staged once per group (the hot-path access
// pattern).
TEST_P(VoiBatchedTest, BatchedBenefitMatchesMutateAndRevert) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));
  VoiRanker ranker(inst.index.get(), &inst.weights);
  HypotheticalBatch batch(inst.index.get());
  for (const UpdateGroup& group : inst.groups) {
    for (const Update& update : group.updates) {
      const double batched = ranker.UpdateBenefit(update, &batch);
      EXPECT_EQ(batched, ranker.UpdateBenefit(update));
      EXPECT_EQ(batched, oracles::MutateAndRevertBenefit(
                             inst.table, inst.rules, inst.weights, update));
    }
  }
}

// Same differential under adversarial staging: updates interleaved
// round-robin across groups so every probe forces a restage onto a new
// (attr, value) context. Restaging must never leak state between contexts.
TEST_P(VoiBatchedTest, InterleavedRestagingMatchesOracle) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));
  VoiRanker ranker(inst.index.get(), &inst.weights);
  HypotheticalBatch batch(inst.index.get());
  std::size_t largest = 0;
  for (const UpdateGroup& group : inst.groups) {
    largest = std::max(largest, group.updates.size());
  }
  for (std::size_t k = 0; k < largest; ++k) {
    for (const UpdateGroup& group : inst.groups) {
      if (k >= group.updates.size()) continue;
      const Update& update = group.updates[k];
      EXPECT_EQ(ranker.UpdateBenefit(update, &batch),
                oracles::MutateAndRevertBenefit(inst.table, inst.rules,
                                                inst.weights, update));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoiBatchedTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace gdr
