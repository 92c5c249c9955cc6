#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/voi.h"
#include "sim/experiment.h"
#include "support/oracles.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/registry.h"

namespace gdr {
namespace {

// Randomized instance: table + constant/variable rule mix + synthetic
// candidate pools grouped by (attr, value), as GroupUpdates produces.
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

// A deterministic stand-in for the learner's p-tilde.
double Probability(const Update& u) {
  return 0.1 + 0.8 * u.score;
}

class VoiParallelTest : public ::testing::TestWithParam<int> {};

// Differential: parallel scores and the chosen top group are bit-identical
// to the serial path at 1, 2, 4, and 8 threads (serial keeps one
// HypotheticalBatch, each pool slot keeps its own), and all of them pin to
// scores derived from mutate-and-revert benefits.
TEST_P(VoiParallelTest, ParallelRankingBitIdenticalToSerial) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));

  VoiRanker serial(inst.index.get(), &inst.weights);
  const VoiRanker::Ranking reference =
      serial.Rank(inst.groups, Probability);
  ASSERT_EQ(reference.scores.size(), inst.groups.size());

  // Reference: per-group scores accumulated in the same update order from
  // mutate-and-revert benefits on a rebuilt index.
  for (std::size_t i = 0; i < inst.groups.size(); ++i) {
    double expected = 0.0;
    for (const Update& update : inst.groups[i].updates) {
      expected += Probability(update) *
                  oracles::MutateAndRevertBenefit(inst.table, inst.rules,
                                                  inst.weights, update);
    }
    EXPECT_EQ(reference.scores[i], expected) << "group " << i;
  }

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    VoiRanker parallel(inst.index.get(), &inst.weights, &pool);
    const VoiRanker::Ranking ranking =
        parallel.Rank(inst.groups, Probability);
    // Exact double equality: same operations in the same order per group.
    EXPECT_EQ(ranking.scores, reference.scores) << threads << " threads";
    EXPECT_EQ(ranking.order, reference.order) << threads << " threads";
    ASSERT_FALSE(ranking.order.empty());
    EXPECT_EQ(ranking.order.front(), reference.order.front());
  }
}

// Scoring through the ranker leaves the shared index and table untouched.
TEST_P(VoiParallelTest, RankingNeverMutatesSharedState) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));
  const Table before = inst.table;
  const std::int64_t vio_before = inst.index->TotalViolations();
  const std::uint64_t version_before = inst.index->version();

  ThreadPool pool(4);
  VoiRanker ranker(inst.index.get(), &inst.weights, &pool);
  ranker.Rank(inst.groups, Probability);

  EXPECT_EQ(inst.index->TotalViolations(), vio_before);
  EXPECT_EQ(inst.index->version(), version_before);
  EXPECT_EQ(*inst.table.CountDifferingCells(before), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoiParallelTest, ::testing::Range(1, 7));

// Determinism: a full Experiment run with a fixed seed yields identical
// stats and repair precision/recall regardless of num_threads.
TEST(VoiParallelDeterminismTest, ExperimentIdenticalAcrossThreadCounts) {
  const Dataset dataset = *WorkloadRegistry::Global().Resolve("dataset1:records=600,seed=21");

  auto run = [&dataset](std::size_t num_threads) {
    ExperimentConfig config;
    config.strategy = Strategy::kGdr;
    config.feedback_budget = 60;
    config.seed = 9;
    config.sample_every = 10;
    config.num_threads = num_threads;
    auto result = RunStrategyExperiment(dataset, config);
    EXPECT_TRUE(result.ok());
    return *result;
  };

  const ExperimentResult reference = run(1);
  for (std::size_t threads : {2u, 8u}) {
    oracles::ExpectResultsIdentical(reference, run(threads),
                                    std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace gdr
