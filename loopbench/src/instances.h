#ifndef LOOPBENCH_INSTANCES_H_
#define LOOPBENCH_INSTANCES_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "sim/dataset.h"
#include "util/result.h"

namespace loopbench {

using RowChunks = std::vector<std::vector<std::vector<std::string>>>;

// One workload input: a seeded sample of a generated population, written
// to disk as a csv: workload so the session's set-up is a real file load.
//
// Why a sample of one population rather than a fresh generator instance
// per seed: the generators draw the data sources (dataset1's hospital
// fleet and its per-hospital error rates) from the seed, and that alone
// moves labels and machine time by 10-25% between instances. A sample of
// one population varies only by sampling noise, so runs with different
// seeds stay comparable while every seed still gets its own rows.
struct Instance {
  explicit Instance(const gdr::Schema& schema) : sample(schema) {}

  // Every sampled row in arrival order, clean and dirty, with the
  // population's rules: the ground truth and the dirty origin of checks.
  gdr::Dataset sample;
  // Rows [0, initial_rows) are exported and present when the session
  // starts; the rest arrive later as `chunks`.
  std::size_t initial_rows = 0;
  std::string spec;  // the csv: spec of the exported rows
  RowChunks chunks;
};

// Resolves `spec` once per process and keeps it.
gdr::Result<const gdr::Dataset*> Population(const std::string& spec);

// Draws `rows` distinct rows of `population` in a seeded order, holds the
// last `held_back` of them back as chunks of `chunk_rows`, and exports the
// rest to `dir`.
gdr::Result<std::unique_ptr<Instance>> MakeInstance(
    const gdr::Dataset& population, std::uint64_t seed, std::size_t rows,
    std::size_t held_back, std::size_t chunk_rows,
    const std::filesystem::path& dir);

}  // namespace loopbench

#endif  // LOOPBENCH_INSTANCES_H_
