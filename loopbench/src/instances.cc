#include "instances.h"

#include <map>
#include <numeric>
#include <utility>

#include "util/rng.h"
#include "workload/file_workload.h"
#include "workload/registry.h"

namespace loopbench {
namespace {

std::vector<std::string> RowStrings(const gdr::Table& table, std::size_t row) {
  std::vector<std::string> values;
  values.reserve(table.num_attrs());
  for (std::size_t a = 0; a < table.num_attrs(); ++a) {
    values.push_back(
        table.at(static_cast<gdr::RowId>(row), static_cast<gdr::AttrId>(a)));
  }
  return values;
}

}  // namespace

gdr::Result<const gdr::Dataset*> Population(const std::string& spec) {
  static std::map<std::string, std::unique_ptr<gdr::Dataset>> cache;
  auto it = cache.find(spec);
  if (it == cache.end()) {
    GDR_ASSIGN_OR_RETURN(gdr::Dataset dataset,
                         gdr::WorkloadRegistry::Global().Resolve(spec));
    it = cache.emplace(spec, std::make_unique<gdr::Dataset>(std::move(dataset)))
             .first;
  }
  return it->second.get();
}

gdr::Result<std::unique_ptr<Instance>> MakeInstance(
    const gdr::Dataset& population, std::uint64_t seed, std::size_t rows,
    std::size_t held_back, std::size_t chunk_rows,
    const std::filesystem::path& dir) {
  const std::size_t total = population.dirty.num_rows();
  if (rows > total || held_back > rows ||
      (held_back > 0 && chunk_rows == 0)) {
    return gdr::Status::InvalidArgument("instance does not fit its population");
  }
  // Partial Fisher-Yates: the first `rows` entries become the sample.
  std::vector<std::size_t> order(total);
  std::iota(order.begin(), order.end(), 0);
  gdr::Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    std::swap(order[i], order[i + rng.NextBounded(total - i)]);
  }
  auto instance = std::make_unique<Instance>(population.clean.schema());
  gdr::Dataset& sample = instance->sample;
  sample.name = population.name + "-sample";
  sample.rules = population.rules;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t row = order[i];
    GDR_RETURN_NOT_OK(
        sample.clean.AppendRow(RowStrings(population.clean, row)).status());
    GDR_RETURN_NOT_OK(
        sample.dirty.AppendRow(RowStrings(population.dirty, row)).status());
  }
  instance->initial_rows = rows - held_back;
  for (std::size_t r = instance->initial_rows; r < rows; ++r) {
    if ((r - instance->initial_rows) % chunk_rows == 0) {
      instance->chunks.emplace_back();
    }
    instance->chunks.back().push_back(RowStrings(sample.dirty, r));
  }

  gdr::Dataset head = sample;
  head.clean.TruncateTo(instance->initial_rows);
  head.dirty.TruncateTo(instance->initial_rows);
  GDR_RETURN_NOT_OK(gdr::ExportWorkload(head, dir.string()));
  instance->spec = gdr::CsvWorkloadSpec(dir.string()).ToString();
  if (dir.string().find(',') != std::string::npos) {
    return gdr::Status::InvalidArgument(
        "work directory " + dir.string() +
        " contains a comma, which a workload spec cannot carry");
  }
  return instance;
}

}  // namespace loopbench
