#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "cfd/violation_index.h"
#include "util/rng.h"

namespace gdr {
namespace {

// Shared fixture: a randomized table plus a rule mix (constant + variable)
// in the style of the Figure-1 schema.
struct RandomInstance {
  RandomInstance(std::uint64_t seed, int rows)
      : schema(*Schema::Make({"STR", "CT", "STT", "ZIP"})),
        table(schema),
        rules(schema) {
    Rng rng(seed);
    const char* streets[] = {"Main St", "Oak Ave", "Sherden Rd"};
    const char* cities[] = {"Fort Wayne", "Westville", "Michigan City"};
    const char* states[] = {"IN", "IND"};
    const char* zips[] = {"46825", "46391", "46360", "46802"};
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(table
                      .AppendRow({streets[rng.NextBounded(3)],
                                  cities[rng.NextBounded(3)],
                                  states[rng.NextBounded(2)],
                                  zips[rng.NextBounded(4)]})
                      .ok());
    }
    EXPECT_TRUE(
        rules.AddRuleFromString("c1", "ZIP=46360 -> CT=Michigan City ; STT=IN")
            .ok());
    EXPECT_TRUE(rules.AddRuleFromString("c2", "ZIP=46391 -> CT=Westville")
                    .ok());
    EXPECT_TRUE(rules.AddRuleFromString("v1", "STR, CT -> ZIP").ok());
    EXPECT_TRUE(rules.AddRuleFromString("v2", "ZIP -> CT").ok());
  }

  Schema schema;
  Table table;
  RuleSet rules;
};

// Asserts that the incrementally maintained `index` answers every query
// exactly as an index rebuilt from scratch over the same table — including
// the group-shaped queries that ride on the dense GroupId storage.
void ExpectIndexMatchesRebuild(const ViolationIndex& index, Table expected,
                               const RuleSet& rules) {
  ViolationIndex rebuilt(&expected, &rules);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleId rule = static_cast<RuleId>(i);
    EXPECT_EQ(index.RuleViolations(rule), rebuilt.RuleViolations(rule));
    EXPECT_EQ(index.ViolatingCount(rule), rebuilt.ViolatingCount(rule));
    EXPECT_EQ(index.ContextCount(rule), rebuilt.ContextCount(rule));
    EXPECT_EQ(index.SatisfyingCount(rule), rebuilt.SatisfyingCount(rule));
    // Interned GroupIds are an implementation detail, but the *number* of
    // live groups is observable and must match a fresh build (a free-list
    // slot aliasing a live group would break it, as would a leaked slot
    // still counted live).
    EXPECT_EQ(index.GroupStorage(rule).live_groups(),
              rebuilt.GroupStorage(rule).slots)
        << "rule " << i;
  }
  EXPECT_EQ(index.TotalViolations(), rebuilt.TotalViolations());
  EXPECT_EQ(index.DirtyRows(), rebuilt.DirtyRows());
  for (std::size_t r = 0; r < expected.num_rows(); ++r) {
    const RowId row = static_cast<RowId>(r);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const RuleId rule = static_cast<RuleId>(i);
      EXPECT_EQ(index.TupleViolation(row, rule),
                rebuilt.TupleViolation(row, rule))
          << "row " << r << " rule " << i;
      EXPECT_EQ(index.GroupTotal(row, rule), rebuilt.GroupTotal(row, rule))
          << "row " << r << " rule " << i;
      EXPECT_EQ(index.GroupMembers(row, rule),
                rebuilt.GroupMembers(row, rule))
          << "row " << r << " rule " << i;
      EXPECT_EQ(index.ViolationPartners(row, rule),
                rebuilt.ViolationPartners(row, rule))
          << "row " << r << " rule " << i;
    }
  }
}

// GroupId-recycling adversary: random ApplyCellChange sequences that
// repeatedly empty and re-create LHS groups. Free-list reuse must never
// alias a live group — verified by demanding every group-shaped query
// match a from-scratch rebuild at every checkpoint.
class GroupRecyclingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GroupRecyclingPropertyTest, RandomChurnMatchesRebuild) {
  RandomInstance inst(static_cast<std::uint64_t>(GetParam()) ^ 0xC0FFEEULL,
                      40);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);

  ViolationIndex index(&inst.table, &inst.rules);
  for (int step = 0; step < 200; ++step) {
    const RowId row = static_cast<RowId>(rng.NextBounded(40));
    const AttrId attr =
        static_cast<AttrId>(rng.NextBounded(inst.table.num_attrs()));
    // Biasing toward a small value set maximizes group empty/recreate
    // churn: rows chase each other through the same handful of keys.
    const ValueId value = static_cast<ValueId>(
        rng.NextBounded(rng.NextBounded(4) == 0
                            ? inst.table.DomainSize(attr)
                            : std::min<std::size_t>(
                                  2, inst.table.DomainSize(attr))));
    index.ApplyCellChange(row, attr, value);
    if (step % 20 == 19) {
      ExpectIndexMatchesRebuild(index, inst.table, inst.rules);
    }
  }
  ExpectIndexMatchesRebuild(index, inst.table, inst.rules);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupRecyclingPropertyTest,
                         ::testing::Range(1, 9));

TEST(GroupRecyclingTest, FreeListReusesSlotsInsteadOfGrowing) {
  // A singleton group is created and destroyed on every toggle of row 0's
  // STR value; after the first round trip the dense storage must recycle
  // the retired slot rather than grow, and the sibling groups' aggregates
  // must be unaffected (no aliasing through the free list).
  RandomInstance inst(4242, 30);
  ViolationIndex index(&inst.table, &inst.rules);
  const RuleId v1 = 3;  // "STR, CT -> ZIP" in RandomInstance's rule order
  ASSERT_TRUE(inst.rules.rule(v1).IsVariable());

  const AttrId str = 0;
  const ValueId fresh_a = inst.table.InternValue(str, "Churn Alley A");
  const ValueId fresh_b = inst.table.InternValue(str, "Churn Alley B");
  const ValueId original = inst.table.id_at(0, str);

  // Warm up: one full toggle creates (then retires) both fresh groups.
  index.ApplyCellChange(0, str, fresh_a);
  index.ApplyCellChange(0, str, fresh_b);
  index.ApplyCellChange(0, str, original);
  const auto warm = index.GroupStorage(v1);
  EXPECT_GT(warm.free_slots, 0u);

  for (int i = 0; i < 25; ++i) {
    index.ApplyCellChange(0, str, i % 2 == 0 ? fresh_a : fresh_b);
    index.ApplyCellChange(0, str, original);
    const auto storage = index.GroupStorage(v1);
    EXPECT_EQ(storage.slots, warm.slots) << "iteration " << i;
    EXPECT_EQ(storage.live_groups(), warm.live_groups()) << "iteration " << i;
  }
  ExpectIndexMatchesRebuild(index, inst.table, inst.rules);
}

}  // namespace
}  // namespace gdr
