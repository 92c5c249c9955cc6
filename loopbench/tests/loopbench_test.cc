// Tests of the benchmark's own arithmetic and checks: the percentile rule,
// span self time, and that every end-of-session correctness check fails
// on a final table with one cell flipped.
//
//   ctest --test-dir .bench_build/loopbench   (after building the target
//   loopbench_test, e.g. cmake --build .bench_build/loopbench)
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "core/session.h"
#include "sim/oracle.h"
#include "stats.h"
#include "trace.h"
#include "workload/registry.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using namespace loopbench;

void TestPercentileRule() {
  // A tail percentile needs at least ten samples beyond it.
  EXPECT(!TailReportable(199, 950));
  EXPECT(TailReportable(200, 950));
  EXPECT(!TailReportable(999, 990));
  EXPECT(TailReportable(1000, 990));
  EXPECT(!TailReportable(0, 500));
  EXPECT(HighestTail(39) == 0);    // fewer than forty: median alone
  EXPECT(HighestTail(100) == 900);
  EXPECT(HighestTail(200) == 950);
  EXPECT(HighestTail(1000) == 990);
  EXPECT(HighestTail(10000) == 999);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(Median(v) == 50);
  EXPECT(Percentile(v, 950) == 95);
  EXPECT(Percentile(v, 999) == 100);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({}) == 0);
}

void TestSelfTime() {
  // parent [0,100]; children [10,30] and [20,50] overlap, [90,120] runs
  // past the parent's end; the grandchild [12,18] belongs to [10,30].
  std::vector<Span> spans = {
      {"parent", 0, 100, -1, 0},  {"child", 10, 30, 0, 0},
      {"child", 20, 50, 0, 0},    {"child", 90, 120, 0, 0},
      {"grandchild", 12, 18, 1, 0},
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT(self[0] == 100 - 40 - 10);  // [10,50] and [90,100] covered once
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);
  const auto by_name = SelfTimeByName(spans);
  EXPECT(by_name.at("child") == 14 + 30 + 30);

  // Spans recorded through the tracer nest by call order.
  Tracer tracer(true);
  {
    ScopedSpan outer(&tracer, "outer", 7);
    ScopedSpan inner(&tracer, "inner", 7);
  }
  EXPECT(tracer.spans().size() == 2);
  EXPECT(tracer.spans()[1].parent == 0);
  EXPECT(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
  Tracer off(false);
  { ScopedSpan ignored(&off, "x", 0); }
  EXPECT(off.spans().empty());
}

void TestChecksCatchAFlippedCell() {
  auto resolved =
      gdr::WorkloadRegistry::Global().Resolve("dataset1:records=300,seed=5");
  EXPECT(resolved.ok());
  if (!resolved.ok()) return;
  gdr::Dataset& ds = *resolved;
  const gdr::Table dirty_table = ds.dirty;
  gdr::GdrOptions options;
  options.strategy = gdr::Strategy::kGdrNoLearning;
  gdr::GdrSession session(&ds.dirty, &ds.rules, options);
  EXPECT(session.Start().ok());
  gdr::UserOracle oracle(&ds.clean);
  EXPECT(gdr::PumpSession(&session, &oracle).ok());

  const Grid dirty = ToGrid(dirty_table);
  const Grid clean = ToGrid(ds.clean);
  const Grid final_grid = ToGrid(session.table());
  std::string error;
  const RepairQuality quality = CompareCells(dirty, final_grid, clean, &error);
  EXPECT(error.empty());
  EXPECT(quality.changed > 0);
  // The unflipped final table passes every check.
  EXPECT(CheckExactPrecision(quality).empty());
  EXPECT(CheckIndexRebuild(session.table(), ds.rules, session.engine().index())
             .empty());
  EXPECT(CheckRowsAndDomain(final_grid, dirty, clean, ds.rules).empty());
  EXPECT(CheckIdentical(final_grid, final_grid).empty());

  // Flip one untouched, correct cell to a value no repair could write,
  // choosing one whose flip creates a violation.
  const std::string flipped_value = "\x01flipped";
  for (std::size_t r = 0; r < final_grid.rows(); ++r) {
    for (std::size_t a = 0; a < final_grid.attrs; ++a) {
      if (final_grid.at(r, a) != dirty.at(r, a) ||
          dirty.at(r, a) != clean.at(r, a)) {
        continue;
      }
      gdr::Table flipped = session.table();
      flipped.Set(static_cast<gdr::RowId>(r), static_cast<gdr::AttrId>(a),
                  flipped_value);
      if (CheckIndexRebuild(flipped, ds.rules, session.engine().index())
              .empty()) {
        continue;  // this cell is in no rule's context; try another
      }
      const Grid flipped_grid = ToGrid(flipped);
      EXPECT(!CheckExactPrecision(
                  CompareCells(dirty, flipped_grid, clean, &error))
                  .empty());
      EXPECT(!CheckRowsAndDomain(flipped_grid, dirty, clean, ds.rules).empty());
      EXPECT(!CheckIdentical(flipped_grid, final_grid).empty());
      return;
    }
  }
  EXPECT(false && "no cell whose flip creates a violation");
}

void TestShapeErrors() {
  Grid a{2, {"x", "y", "z", "w"}};
  Grid b{2, {"x", "y"}};
  std::string error;
  CompareCells(a, b, a, &error);
  EXPECT(!error.empty());
  EXPECT(!CheckIdentical(a, b).empty());
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestChecksCatchAFlippedCell();
  TestShapeErrors();
  if (failures == 0) std::printf("loopbench_test: all tests passed\n");
  return failures == 0 ? 0 : 1;
}
