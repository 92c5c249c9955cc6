#include "sim/experiment.h"

#include <sstream>

#include <gtest/gtest.h>

#include "workload/registry.h"

namespace gdr {
namespace {

Dataset TinyDataset() {
  return *WorkloadRegistry::Global().Resolve("dataset1:records=600,seed=33");
}

TEST(ExperimentTest, RunsAndReportsCurve) {
  Dataset dataset = TinyDataset();
  ExperimentConfig config;
  config.strategy = Strategy::kGdrNoLearning;
  config.feedback_budget = 100;
  config.sample_every = 10;
  auto result = RunStrategyExperiment(dataset, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy_name, "GDR-NoLearning");
  ASSERT_GE(result->curve.size(), 2u);
  EXPECT_EQ(result->curve.front().feedback, 0u);
  EXPECT_GT(result->initial_loss, 0.0);
  // Curve feedback counts are non-decreasing.
  for (std::size_t i = 1; i < result->curve.size(); ++i) {
    EXPECT_GE(result->curve[i].feedback, result->curve[i - 1].feedback);
  }
  EXPECT_LE(result->stats.user_feedback, 100u);
}

TEST(ExperimentTest, DoesNotMutateDataset) {
  Dataset dataset = TinyDataset();
  const Table dirty_before = dataset.dirty;
  ExperimentConfig config;
  config.feedback_budget = 50;
  ASSERT_TRUE(RunStrategyExperiment(dataset, config).ok());
  EXPECT_EQ(*dataset.dirty.CountDifferingCells(dirty_before), 0u);
}

TEST(ExperimentTest, FinalImprovementMatchesLossDrop) {
  Dataset dataset = TinyDataset();
  ExperimentConfig config;
  config.feedback_budget = 120;
  auto result = RunStrategyExperiment(dataset, config);
  ASSERT_TRUE(result.ok());
  const double expected =
      100.0 * (result->initial_loss - result->final_loss) /
      result->initial_loss;
  EXPECT_NEAR(result->final_improvement_pct, expected, 1e-9);
}

TEST(ExperimentTest, HeuristicBaselineRuns) {
  Dataset dataset = TinyDataset();
  auto result = RunHeuristicExperiment(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy_name, "Automatic-Heuristic");
  EXPECT_EQ(result->stats.user_feedback, 0u);  // no user involved
  EXPECT_GT(result->final_improvement_pct, 0.0);
  EXPECT_GT(result->accuracy.updated_cells, 0u);
}

TEST(ExperimentTest, DeterministicPerSeed) {
  Dataset dataset = TinyDataset();
  ExperimentConfig config;
  config.feedback_budget = 80;
  config.seed = 5;
  auto a = RunStrategyExperiment(dataset, config);
  auto b = RunStrategyExperiment(dataset, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.user_feedback, b->stats.user_feedback);
  EXPECT_DOUBLE_EQ(a->final_loss, b->final_loss);
  EXPECT_DOUBLE_EQ(a->accuracy.Precision(), b->accuracy.Precision());
}

TEST(ExperimentTest, FormatCurveNormalizes) {
  std::vector<CurvePoint> curve = {{0, 0.0, 1.0}, {50, 40.0, 0.6}};
  const std::string text = FormatCurve(curve, 100.0);
  EXPECT_NE(text.find("50\t40"), std::string::npos);
  // Zero denominator is safe.
  EXPECT_FALSE(FormatCurve(curve, 0.0).empty());
}

TEST(ExperimentTest, FormatCurveEmptyCurveIsEmptyString) {
  EXPECT_EQ(FormatCurve({}, 100.0), "");
  EXPECT_EQ(FormatCurve({}, 0.0), "");
}

TEST(ExperimentTest, FormatCurveDegenerateDenominatorsClampToZeroPct) {
  // A zero or negative denominator (e.g. a strategy that needed no
  // feedback at all) must not divide: every x becomes 0, y is preserved.
  const std::vector<CurvePoint> curve = {{0, 0.0, 1.0}, {25, 80.0, 0.2}};
  for (double denominator : {0.0, -3.5}) {
    const std::string text = FormatCurve(curve, denominator);
    std::istringstream lines(text);
    std::string line;
    std::size_t rows = 0;
    while (std::getline(lines, line)) {
      EXPECT_EQ(line.substr(0, 2), "0\t") << line;
      ++rows;
    }
    EXPECT_EQ(rows, curve.size());
  }
  EXPECT_NE(FormatCurve(curve, 0.0).find("80"), std::string::npos);
}

TEST(ExperimentTest, FormatCurveSinglePoint) {
  const std::vector<CurvePoint> curve = {{10, 55.5, 0.4}};
  EXPECT_EQ(FormatCurve(curve, 20.0), "50\t55.5\n");
}

TEST(ExperimentTest, PhaseTimingsArePopulated) {
  Dataset dataset = TinyDataset();
  ExperimentConfig config;
  config.strategy = Strategy::kGdrNoLearning;
  config.feedback_budget = 60;
  auto result = RunStrategyExperiment(dataset, config);
  ASSERT_TRUE(result.ok());
  const GdrTimings& timings = result->stats.timings;
  EXPECT_GT(timings.init_seconds, 0.0);
  EXPECT_GT(timings.ranking_seconds, 0.0);  // VOI strategies rank each round
  EXPECT_GT(timings.session_seconds, 0.0);
  EXPECT_GT(timings.total_seconds, 0.0);
  // The session API's machine time contains the ranking and session
  // phases.
  EXPECT_GE(timings.total_seconds,
            timings.ranking_seconds + timings.session_seconds);
  // The experiment wall clock wraps Start() + PumpSession().
  EXPECT_GT(result->wall_seconds, 0.0);
  EXPECT_GE(result->wall_seconds, timings.total_seconds);
}

TEST(ExperimentTest, RetrainTimingsFollowTheLearner) {
  Dataset dataset = TinyDataset();
  ExperimentConfig config;
  config.strategy = Strategy::kGdr;
  config.feedback_budget = 100;
  auto result = RunStrategyExperiment(dataset, config);
  ASSERT_TRUE(result.ok());
  const GdrTimings& timings = result->stats.timings;
  EXPECT_GT(timings.learner_retrains, 0u);
  EXPECT_GT(timings.learner_retrain_seconds, 0.0);
  EXPECT_LE(timings.learner_retrain_seconds, timings.total_seconds);

  config.strategy = Strategy::kGdrNoLearning;
  Dataset fresh = TinyDataset();
  auto no_learner = RunStrategyExperiment(fresh, config);
  ASSERT_TRUE(no_learner.ok());
  EXPECT_EQ(no_learner->stats.timings.learner_retrains, 0u);
  EXPECT_EQ(no_learner->stats.timings.learner_retrain_seconds, 0.0);
}

TEST(ExperimentTest, HeuristicReportsWallClock) {
  Dataset dataset = TinyDataset();
  auto result = RunHeuristicExperiment(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->wall_seconds, 0.0);
}

TEST(ExperimentTest, WorksOnDataset2) {
  Dataset dataset =
      *WorkloadRegistry::Global().Resolve("dataset2:records=800,seed=44");
  ExperimentConfig config;
  config.strategy = Strategy::kGdr;
  config.feedback_budget = 150;
  auto result = RunStrategyExperiment(dataset, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_improvement_pct, 0.0);
}

}  // namespace
}  // namespace gdr
