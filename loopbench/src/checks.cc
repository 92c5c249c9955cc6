#include "checks.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

namespace loopbench {

Grid ToGrid(const gdr::Table& table, std::size_t rows) {
  Grid grid;
  grid.attrs = table.num_attrs();
  rows = std::min(rows, table.num_rows());
  grid.cells.reserve(rows * grid.attrs);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t a = 0; a < grid.attrs; ++a) {
      grid.cells.push_back(table.at(static_cast<gdr::RowId>(r),
                                    static_cast<gdr::AttrId>(a)));
    }
  }
  return grid;
}

double RepairQuality::precision() const {
  return changed == 0 ? 1.0
                      : static_cast<double>(correct_changes) /
                            static_cast<double>(changed);
}

double RepairQuality::recall() const {
  return initially_wrong == 0 ? 1.0
                              : static_cast<double>(correct_changes) /
                                    static_cast<double>(initially_wrong);
}

double RepairQuality::f1() const {
  const double p = precision();
  const double r = recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

RepairQuality CompareCells(const Grid& dirty, const Grid& final_grid,
                           const Grid& clean, std::string* error) {
  RepairQuality q;
  if (dirty.attrs != final_grid.attrs || dirty.attrs != clean.attrs ||
      dirty.cells.size() != final_grid.cells.size() ||
      dirty.cells.size() != clean.cells.size()) {
    *error = "repair_f1: dirty/final/clean tables differ in shape (" +
             std::to_string(dirty.rows()) + "/" +
             std::to_string(final_grid.rows()) + "/" +
             std::to_string(clean.rows()) + " rows)";
    return q;
  }
  for (std::size_t i = 0; i < dirty.cells.size(); ++i) {
    if (dirty.cells[i] != clean.cells[i]) ++q.initially_wrong;
    if (final_grid.cells[i] != dirty.cells[i]) {
      ++q.changed;
      if (final_grid.cells[i] == clean.cells[i]) ++q.correct_changes;
    }
  }
  return q;
}

std::string CheckExactPrecision(const RepairQuality& quality) {
  if (quality.correct_changes == quality.changed) return "";
  return "precision: " +
         std::to_string(quality.changed - quality.correct_changes) + " of " +
         std::to_string(quality.changed) + " changed cells are wrong";
}

std::string CheckIndexRebuild(const gdr::Table& final_table,
                              const gdr::RuleSet& rules,
                              const gdr::ViolationIndex& live) {
  gdr::Table copy = final_table;
  const auto rebuilt = std::make_unique<gdr::ViolationIndex>(&copy, &rules);
  for (const gdr::RuleId rule : rules.AllRuleIds()) {
    if (rebuilt->RuleViolations(rule) != live.RuleViolations(rule)) {
      return "index: rule " + rules.rule(rule).name() + " has " +
             std::to_string(live.RuleViolations(rule)) +
             " violations live, " +
             std::to_string(rebuilt->RuleViolations(rule)) + " rebuilt";
    }
  }
  if (rebuilt->TotalViolations() != live.TotalViolations()) {
    return "index: total violations " +
           std::to_string(live.TotalViolations()) + " live, " +
           std::to_string(rebuilt->TotalViolations()) + " rebuilt";
  }
  return "";
}

std::string CheckRowsAndDomain(const Grid& final_grid, const Grid& dirty,
                               const Grid& clean, const gdr::RuleSet& rules) {
  if (final_grid.attrs != dirty.attrs || final_grid.rows() != dirty.rows() ||
      clean.rows() != dirty.rows()) {
    return "rows: final table has " + std::to_string(final_grid.rows()) +
           " rows, expected " + std::to_string(dirty.rows()) +
           " (initial plus appended)";
  }
  for (std::size_t a = 0; a < dirty.attrs; ++a) {
    std::unordered_set<std::string> domain;
    for (std::size_t r = 0; r < dirty.rows(); ++r) {
      domain.insert(dirty.at(r, a));
      domain.insert(clean.at(r, a));
    }
    for (const gdr::RuleId id : rules.AllRuleIds()) {
      const gdr::Cfd& rule = rules.rule(id);
      for (const gdr::PatternCell& cell : rule.lhs()) {
        if (cell.attr == static_cast<gdr::AttrId>(a) && cell.constant) {
          domain.insert(*cell.constant);
        }
      }
      if (rule.rhs().attr == static_cast<gdr::AttrId>(a) &&
          rule.rhs().constant) {
        domain.insert(*rule.rhs().constant);
      }
    }
    for (std::size_t r = 0; r < final_grid.rows(); ++r) {
      if (!domain.contains(final_grid.at(r, a))) {
        return "domain: row " + std::to_string(r) + " attribute " +
               rules.schema().attr_name(static_cast<gdr::AttrId>(a)) +
               " holds '" + final_grid.at(r, a) +
               "', which no repair could have written";
      }
    }
  }
  return "";
}

std::string CheckIdentical(const Grid& got, const Grid& want) {
  if (got.attrs != want.attrs || got.cells.size() != want.cells.size()) {
    return "control: table shapes differ (" + std::to_string(got.rows()) +
           " vs " + std::to_string(want.rows()) + " rows)";
  }
  for (std::size_t i = 0; i < got.cells.size(); ++i) {
    if (got.cells[i] != want.cells[i]) {
      return "control: cell (" + std::to_string(i / got.attrs) + ", " +
             std::to_string(i % got.attrs) + ") is '" + got.cells[i] +
             "', the never-evicted control holds '" + want.cells[i] + "'";
    }
  }
  return "";
}

}  // namespace loopbench
