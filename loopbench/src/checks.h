#ifndef LOOPBENCH_CHECKS_H_
#define LOOPBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "cfd/cfd.h"
#include "cfd/violation_index.h"
#include "data/table.h"

// End-of-session correctness checks. Each is computed from the tables the
// benchmark holds (dirty origin, final, ground truth), never from the
// program's own accuracy counters, and returns an empty string when it
// passes or a one-line reason when it fails.
namespace loopbench {

// A table's cells as strings, row-major. Checks compare strings so tables
// with unrelated dictionaries (a service dump, a control session) compare
// directly.
struct Grid {
  std::size_t attrs = 0;
  std::vector<std::string> cells;

  std::size_t rows() const { return attrs == 0 ? 0 : cells.size() / attrs; }
  const std::string& at(std::size_t row, std::size_t attr) const {
    return cells[row * attrs + attr];
  }
};

// The first `rows` rows of `table` (all rows when `rows` exceeds them).
Grid ToGrid(const gdr::Table& table,
            std::size_t rows = static_cast<std::size_t>(-1));

// The three-way cell comparison behind repair_f1: a changed cell differs
// between `dirty` and `final`; it is correct when it now equals `clean`.
struct RepairQuality {
  std::size_t changed = 0;
  std::size_t correct_changes = 0;
  std::size_t initially_wrong = 0;  // cells where dirty != clean

  double precision() const;
  double recall() const;
  double f1() const;
};

// All three grids must have the same shape; returns a zeroed result and
// sets `*error` otherwise.
RepairQuality CompareCells(const Grid& dirty, const Grid& final_grid,
                           const Grid& clean, std::string* error);

// Every change must be right: the guarantee of a session whose only
// writes are ground-truth answers and constant-rule cascades.
std::string CheckExactPrecision(const RepairQuality& quality);

// A ViolationIndex built from scratch over `final_table` must report the
// live index's violation count for every rule and in total.
std::string CheckIndexRebuild(const gdr::Table& final_table,
                              const gdr::RuleSet& rules,
                              const gdr::ViolationIndex& live);

// The final table holds exactly the origin rows (initial plus appended),
// and every cell holds a value repair could have written there: one of
// the attribute's dirty or clean values or a rule constant for it (the
// update generator draws candidates only from those).
std::string CheckRowsAndDomain(const Grid& final_grid, const Grid& dirty,
                               const Grid& clean, const gdr::RuleSet& rules);

// Bit-identical tables (an evicted session against its never-evicted
// control).
std::string CheckIdentical(const Grid& got, const Grid& want);

}  // namespace loopbench

#endif  // LOOPBENCH_CHECKS_H_
