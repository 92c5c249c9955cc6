// Round-trip identity: exporting a generated workload to files and
// reloading it through the csv: factory must change NOTHING downstream —
// RunStrategyExperiment produces bit-identical stats and curves. This is
// the strongest guarantee the file loader can give: value-dictionary
// interning (the generators intern clean row-major, then dirty edits in
// ascending row order) is reproduced exactly, so even id-based tie-breaks
// in update generation, grouping, VOI ranking, and learner features agree.
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "plane/sharded_repair.h"
#include "sim/experiment.h"
#include "workload/file_workload.h"
#include "workload/registry.h"

namespace gdr {
namespace {

std::string ExperimentFingerprints(const Dataset& dataset) {
  std::string out;
  for (const Strategy strategy :
       {Strategy::kGdr, Strategy::kGdrNoLearning, Strategy::kGreedy}) {
    ExperimentConfig config;
    config.strategy = strategy;
    config.feedback_budget = 120;
    config.seed = 5;
    config.sample_every = 10;
    auto result = RunStrategyExperiment(dataset, config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) {
      out += plane::FingerprintExperimentResult(*result) + "\n";
    }
  }
  auto heuristic = RunHeuristicExperiment(dataset);
  EXPECT_TRUE(heuristic.ok());
  if (heuristic.ok()) {
    out += plane::FingerprintExperimentResult(*heuristic) + "\n";
  }
  return out;
}

class WorkloadRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadRoundTripTest, ExportThenLoadIsExperimentIdentical) {
  const auto original = WorkloadRegistry::Global().Resolve(GetParam());
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  const auto dir = std::filesystem::temp_directory_path() /
                   ("gdr_roundtrip_" + original->name);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(ExportWorkload(*original, dir.string()).ok());

  const auto reloaded =
      WorkloadRegistry::Global().Resolve(CsvWorkloadSpec(dir.string()));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  // Structural identity first (faster failure diagnosis than fingerprints):
  // same cells, same rules, same per-attribute interned domains.
  ASSERT_TRUE(reloaded->clean.schema() == original->clean.schema());
  ASSERT_EQ(reloaded->dirty.num_rows(), original->dirty.num_rows());
  EXPECT_EQ(*reloaded->clean.CountDifferingCells(original->clean), 0u);
  EXPECT_EQ(*reloaded->dirty.CountDifferingCells(original->dirty), 0u);
  ASSERT_EQ(reloaded->rules.size(), original->rules.size());
  for (std::size_t attr = 0; attr < original->dirty.num_attrs(); ++attr) {
    EXPECT_EQ(reloaded->dirty.DomainSize(static_cast<AttrId>(attr)),
              original->dirty.DomainSize(static_cast<AttrId>(attr)))
        << "interned domain of attr " << attr << " diverged";
  }

  // The actual acceptance bar: identical experiment fingerprints across
  // learning and non-learning strategies plus the heuristic baseline.
  EXPECT_EQ(ExperimentFingerprints(*original),
            ExperimentFingerprints(*reloaded));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Builtins, WorkloadRoundTripTest,
                         ::testing::Values("dataset1:records=600,seed=33",
                                           "dataset2:records=700,seed=44",
                                           "figure1"),
                         [](const auto& info) {
                           const std::string spec = info.param;
                           return spec.substr(0, spec.find(':'));
                         });

}  // namespace
}  // namespace gdr
