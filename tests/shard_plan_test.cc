// ShardPlan: split math (sizes differ by at most one, ranges contiguous),
// boundary shapes (empty instance, more shards than rows, range edges),
// initial-row and append-row ownership, batch routing, and shard Dataset
// materialization (content, shared rules, corrupted-tuple counts).
#include "plane/shard_plan.h"

#include <gtest/gtest.h>

#include "workload/registry.h"

namespace gdr::plane {
namespace {

void ExpectPartition(const ShardPlan& plan, std::size_t num_rows,
                     std::size_t num_shards) {
  ASSERT_EQ(plan.num_shards(), num_shards);
  EXPECT_EQ(plan.num_rows(), num_rows);
  std::size_t cursor = 0;
  std::size_t min_size = num_rows + 1, max_size = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ShardRange& range = plan.range(s);
    EXPECT_EQ(range.begin, cursor) << "shard " << s;
    cursor = range.end;
    min_size = std::min(min_size, range.size());
    max_size = std::max(max_size, range.size());
  }
  EXPECT_EQ(cursor, num_rows);
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(ShardPlanTest, SplitsEvenly) {
  auto plan = ShardPlan::Split(12, 4);
  ASSERT_TRUE(plan.ok());
  ExpectPartition(*plan, 12, 4);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(plan->range(s).size(), 3u);
}

TEST(ShardPlanTest, FrontShardsCarryTheRemainder) {
  auto plan = ShardPlan::Split(10, 4);  // 3,3,2,2
  ASSERT_TRUE(plan.ok());
  ExpectPartition(*plan, 10, 4);
  EXPECT_EQ(plan->range(0).size(), 3u);
  EXPECT_EQ(plan->range(1).size(), 3u);
  EXPECT_EQ(plan->range(2).size(), 2u);
  EXPECT_EQ(plan->range(3).size(), 2u);
}

TEST(ShardPlanTest, ZeroShardsIsAnError) {
  EXPECT_EQ(ShardPlan::Split(10, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardPlanTest, MoreShardsThanRowsLeavesSurplusEmpty) {
  auto plan = ShardPlan::Split(3, 5);
  ASSERT_TRUE(plan.ok());
  ExpectPartition(*plan, 3, 5);
  EXPECT_EQ(plan->range(2).size(), 1u);
  EXPECT_TRUE(plan->range(3).empty());
  EXPECT_TRUE(plan->range(4).empty());
}

TEST(ShardPlanTest, EmptyInstanceYieldsAllEmptyShards) {
  auto plan = ShardPlan::Split(0, 3);
  ASSERT_TRUE(plan.ok());
  ExpectPartition(*plan, 0, 3);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_TRUE(plan->range(s).empty());
}

TEST(ShardPlanTest, OwnerOfMatchesRangesIncludingEdges) {
  for (const auto [rows, shards] :
       {std::pair<std::size_t, std::size_t>{10, 4},
        {12, 4},
        {7, 3},
        {1, 1},
        {100, 7}}) {
    auto plan = ShardPlan::Split(rows, shards);
    ASSERT_TRUE(plan.ok());
    for (std::size_t row = 0; row < rows; ++row) {
      const std::size_t owner = plan->OwnerOf(row);
      ASSERT_LT(owner, shards);
      EXPECT_GE(row, plan->range(owner).begin)
          << rows << "/" << shards << " row " << row;
      EXPECT_LT(row, plan->range(owner).end)
          << rows << "/" << shards << " row " << row;
      // Edge rows belong to exactly one shard: the previous range ends
      // where this one begins.
      if (row == plan->range(owner).begin && owner > 0) {
        EXPECT_EQ(plan->range(owner - 1).end, row);
      }
    }
  }
}

// ------------------------------------------------- MakeShardDataset --

Dataset SmallDataset() {
  return *WorkloadRegistry::Global().Resolve("dataset1:records=200,seed=9");
}

TEST(MakeShardDatasetTest, SlicesContentAndSharesRules) {
  const Dataset full = SmallDataset();
  auto plan = ShardPlan::Split(full.dirty.num_rows(), 3);
  ASSERT_TRUE(plan.ok());
  std::size_t corrupted_total = 0;
  for (std::size_t s = 0; s < plan->num_shards(); ++s) {
    const ShardRange& range = plan->range(s);
    auto shard = MakeShardDataset(full, range, "slice");
    ASSERT_TRUE(shard.ok());
    EXPECT_EQ(shard->name, "slice");
    EXPECT_EQ(shard->clean.num_rows(), range.size());
    EXPECT_EQ(shard->dirty.num_rows(), range.size());
    EXPECT_EQ(shard->rules.size(), full.rules.size());
    for (std::size_t r = 0; r < range.size(); ++r) {
      for (std::size_t a = 0; a < full.clean.num_attrs(); ++a) {
        const RowId local = static_cast<RowId>(r);
        const RowId global = static_cast<RowId>(range.begin + r);
        const AttrId attr = static_cast<AttrId>(a);
        EXPECT_EQ(shard->clean.at(local, attr), full.clean.at(global, attr));
        EXPECT_EQ(shard->dirty.at(local, attr), full.dirty.at(global, attr));
      }
    }
    corrupted_total += shard->corrupted_tuples;
  }
  // Corruption counts partition with the rows.
  EXPECT_EQ(corrupted_total, full.corrupted_tuples);
}

TEST(MakeShardDatasetTest, EmptyRangeYieldsEmptyDataset) {
  const Dataset full = SmallDataset();
  auto shard = MakeShardDataset(full, ShardRange{10, 10}, "empty");
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ(shard->clean.num_rows(), 0u);
  EXPECT_EQ(shard->dirty.num_rows(), 0u);
  EXPECT_EQ(shard->corrupted_tuples, 0u);
}

TEST(MakeShardDatasetTest, RejectsOutOfRangeSlices) {
  const Dataset full = SmallDataset();
  EXPECT_EQ(MakeShardDataset(full, ShardRange{0, full.dirty.num_rows() + 1},
                             "over")
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(MakeShardDataset(full, ShardRange{5, 4}, "inverted")
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace gdr::plane
