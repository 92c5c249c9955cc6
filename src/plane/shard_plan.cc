#include "plane/shard_plan.h"

#include <string>

namespace gdr::plane {

Result<ShardPlan> ShardPlan::Split(std::size_t num_rows,
                                   std::size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("shard plan needs at least one shard");
  }
  ShardPlan plan;
  plan.num_rows_ = num_rows;
  plan.ranges_.reserve(num_shards);
  const std::size_t base = num_rows / num_shards;
  const std::size_t extra = num_rows % num_shards;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t size = base + (s < extra ? 1 : 0);
    plan.ranges_.push_back(ShardRange{cursor, cursor + size});
    cursor += size;
  }
  return plan;
}

std::size_t ShardPlan::OwnerOf(std::size_t global_row) const {
  const std::size_t shards = ranges_.size();
  const std::size_t base = num_rows_ / shards;
  const std::size_t extra = num_rows_ % shards;
  const std::size_t fat_rows = (base + 1) * extra;  // rows in base+1 shards
  if (global_row < fat_rows) return global_row / (base + 1);
  return extra + (global_row - fat_rows) / base;
}

Result<Dataset> MakeShardDataset(const Dataset& full, const ShardRange& range,
                                 std::string_view name) {
  if (full.clean.num_rows() != full.dirty.num_rows()) {
    return Status::InvalidArgument(
        "dataset clean/dirty instances disagree on row count");
  }
  if (range.end > full.dirty.num_rows() || range.begin > range.end) {
    return Status::OutOfRange("shard range [" + std::to_string(range.begin) +
                              ", " + std::to_string(range.end) +
                              ") exceeds the " +
                              std::to_string(full.dirty.num_rows()) +
                              "-row instance");
  }
  Dataset shard(full.clean.schema());
  shard.name = std::string(name);
  shard.rules = full.rules;

  const std::size_t attrs = full.clean.num_attrs();
  shard.clean.Reserve(range.size());
  std::vector<std::string> cells(attrs);
  for (std::size_t r = range.begin; r < range.end; ++r) {
    for (std::size_t a = 0; a < attrs; ++a) {
      cells[a] = full.clean.at(static_cast<RowId>(r), static_cast<AttrId>(a));
    }
    GDR_RETURN_NOT_OK(shard.clean.AppendRow(cells).status());
  }

  // Dirty = copy of clean + row-major cell diffs, sharing dictionaries —
  // exactly how the generators and the csv: loader build theirs.
  shard.dirty = shard.clean;
  std::size_t corrupted = 0;
  for (std::size_t r = range.begin; r < range.end; ++r) {
    const RowId global = static_cast<RowId>(r);
    const RowId local = static_cast<RowId>(r - range.begin);
    bool differs = false;
    for (std::size_t a = 0; a < attrs; ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      if (full.dirty.at(global, attr) != full.clean.at(global, attr)) {
        shard.dirty.Set(local, attr, full.dirty.at(global, attr));
        differs = true;
      }
    }
    if (differs) ++corrupted;
  }
  shard.corrupted_tuples = corrupted;
  return shard;
}

}  // namespace gdr::plane
