// Golden fingerprints: whole-run outputs pinned as constants, so a change
// that must not alter behaviour (a refactor, a deleted code path) is
// checked against recorded results rather than against a second
// implementation kept alive for the purpose. The constants were recorded
// once and are never regenerated to make a change pass: a mismatch means
// the change altered what the repair loop does.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "plane/sharded_repair.h"
#include "sim/experiment.h"
#include "util/strings.h"
#include "workload/registry.h"

namespace gdr {
namespace {

struct GoldenRun {
  Strategy strategy;
  std::uint64_t seed;
  const char* fingerprint;  // plane::FingerprintExperimentResult
};

// Every strategy × seeds {1, 7} on dataset1:records=1000,seed=42 with a
// 150-label budget (other ExperimentConfig fields at their defaults).
constexpr GoldenRun kGoldenRuns[] = {
    {Strategy::kGdr, 1, "6e837f42483902f7"},
    {Strategy::kGdr, 7, "d6a5d35e8660e80c"},
    {Strategy::kGdrSLearning, 1, "6ba337caa3b35b47"},
    {Strategy::kGdrSLearning, 7, "3f98ee7a0b1cfd97"},
    {Strategy::kGdrNoLearning, 1, "c93cfaf1231a804c"},
    {Strategy::kGdrNoLearning, 7, "c93cfaf1231a804c"},
    {Strategy::kActiveLearning, 1, "3624eb635bdaeabe"},
    {Strategy::kActiveLearning, 7, "266034c6168429ba"},
    {Strategy::kGreedy, 1, "550521cf925b05ed"},
    {Strategy::kGreedy, 7, "550521cf925b05ed"},
    {Strategy::kRandomRanking, 1, "6d5f455157fdd288"},
    {Strategy::kRandomRanking, 7, "3a0b92aa82399713"},
};

TEST(GoldenFingerprintTest, ExperimentsMatchRecordedFingerprints) {
  const Dataset dataset =
      *WorkloadRegistry::Global().Resolve("dataset1:records=1000,seed=42");
  for (const GoldenRun& golden : kGoldenRuns) {
    ExperimentConfig config;
    config.strategy = golden.strategy;
    config.seed = golden.seed;
    config.feedback_budget = 150;
    const auto result = RunStrategyExperiment(dataset, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(plane::FingerprintExperimentResult(*result), golden.fingerprint)
        << StrategyName(golden.strategy) << " seed " << golden.seed;
  }
}

// ---------------------------------------------------------------------------
// A GdrSession that takes rows mid-session through AppendDirtyRows: a
// six-row City/Zip/State instance, one answered suggestion, three arrivals
// (one of them dirty), then driven to completion by a ground-truth policy.

Schema SessionSchema() { return *Schema::Make({"City", "Zip", "State"}); }

RuleSet SessionRules() {
  RuleSet rules(SessionSchema());
  EXPECT_TRUE(rules.AddRuleFromString("v1", "City -> Zip").ok());
  EXPECT_TRUE(rules.AddRuleFromString("v2", "Zip -> City").ok());
  EXPECT_TRUE(
      rules.AddRuleFromString("c1", "City=Springfield -> State=IL").ok());
  return rules;
}

using Truth = std::vector<std::vector<std::string>>;

Truth BaseTruth() {
  return {{"Springfield", "Z0", "IL"}, {"Springfield", "Z0", "IL"},
          {"Shelby", "Z1", "IN"},      {"Shelby", "Z1", "IN"},
          {"Dalton", "Z2", "OH"},      {"Dalton", "Z2", "OH"}};
}

Table BaseDirty() {
  Table table(SessionSchema());
  Truth rows = BaseTruth();
  rows[1][1] = "Zx";
  rows[0][2] = "XX";
  for (const auto& row : rows) EXPECT_TRUE(table.AppendRow(row).ok());
  return table;
}

// Confirms a correct suggestion, retains a cell that already holds the
// truth, and otherwise rejects while volunteering the true value.
void Answer(GdrSession* session, const Truth& truth, const SuggestedUpdate& s,
            std::string* trace) {
  const Table& table = session->table();
  const std::string& expected =
      truth[static_cast<std::size_t>(s.update.row)]
           [static_cast<std::size_t>(s.update.attr)];
  const std::string& suggested =
      table.dict(s.update.attr).ToString(s.update.value);
  *trace += std::to_string(s.update_id) + "|r" + std::to_string(s.update.row) +
            "|a" + std::to_string(s.update.attr) + "|" + suggested + "|" +
            std::to_string(s.voi_score) + "\n";
  Feedback feedback = Feedback::kReject;
  std::optional<std::string> volunteered = expected;
  if (suggested == expected) {
    feedback = Feedback::kConfirm;
    volunteered.reset();
  } else if (table.at(s.update.row, s.update.attr) == expected) {
    feedback = Feedback::kRetain;
    volunteered.reset();
  }
  const auto outcome = session->SubmitFeedback(s.update_id, feedback,
                                               volunteered);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
}

TEST(GoldenFingerprintTest, AppendMidSessionMatchesRecordedState) {
  const RuleSet rules = SessionRules();
  Truth truth = BaseTruth();

  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;
  options.ns = 2;
  options.seed = 42;
  options.feedback_budget = 100;

  Table table = BaseDirty();
  GdrSession session(&table, &rules, options);
  ASSERT_TRUE(session.Start().ok());
  std::string trace;

  const auto first = session.NextBatch();
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->empty());
  Answer(&session, truth, first->front(), &trace);

  const std::vector<std::vector<std::string>> arrivals = {
      {"Springfield", "Z9", "IL"},
      {"Evanston", "Z5", "IL"},
      {"Evanston", "Z5", "IL"}};
  truth.push_back({"Springfield", "Z0", "IL"});
  truth.push_back({"Evanston", "Z5", "IL"});
  truth.push_back({"Evanston", "Z5", "IL"});
  const auto appended = session.AppendDirtyRows(arrivals);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->rows_appended, 3u);
  EXPECT_EQ(appended->newly_dirty, 2u);
  EXPECT_EQ(appended->groups_rescored, 2u);

  while (session.state() != SessionState::kDone) {
    const auto batch = session.NextBatch();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->empty() && session.state() == SessionState::kDone) break;
    for (const SuggestedUpdate& s : *batch) {
      if (!session.IsLive(s.update_id)) continue;
      Answer(&session, truth, s, &trace);
    }
  }

  const GdrStats& stats = session.stats();
  EXPECT_EQ(stats.initial_dirty, 2u);
  EXPECT_EQ(stats.user_feedback, 3u);
  EXPECT_EQ(stats.user_confirms, 3u);
  EXPECT_EQ(stats.user_rejects, 0u);
  EXPECT_EQ(stats.user_retains, 0u);
  EXPECT_EQ(stats.user_suggested_values, 0u);
  EXPECT_EQ(stats.forced_repairs, 0u);
  EXPECT_EQ(stats.outer_iterations, 3u);
  EXPECT_EQ(stats.appended_rows, 3u);
  EXPECT_EQ(stats.admitted_dirty, 2u);

  std::string cells;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t a = 0; a < table.num_attrs(); ++a) {
      cells += table.at(static_cast<RowId>(r), static_cast<AttrId>(a));
      cells += '\x1f';
    }
  }
  EXPECT_EQ(Fnv1a64Hex(cells), "553d6867bf6d11f4");
  EXPECT_EQ(Fnv1a64Hex(trace), "4ce2db9d4e94fb7c");
}

}  // namespace
}  // namespace gdr
