//===- support/Table.h - Aligned text tables --------------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Column-aligned plain-text table writer used by every benchmark harness to
/// print the rows of the paper's tables and the series of its figures.
///
/// Cells are accumulated as strings; printing right-pads each column to its
/// widest cell.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SUPPORT_TABLE_H
#define MARQSIM_SUPPORT_TABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace marqsim {

/// Accumulates rows of string cells and prints them column-aligned.
class Table {
public:
  /// Creates a table with the given header row.
  explicit Table(std::vector<std::string> Header);

  /// Appends a data row; its size must match the header.
  void addRow(std::vector<std::string> Row);

  /// Convenience: appends a row built from strings and integers. Callers
  /// format doubles themselves (formatDouble), choosing each column's
  /// digits.
  template <typename... Ts> void row(const Ts &...Cells) {
    addRow({toCell(Cells)...});
  }

  /// Writes the table, column-aligned, with a rule under the header.
  void print(std::ostream &OS) const;

  size_t numRows() const { return Rows.size(); }

private:
  static std::string toCell(const std::string &S) { return S; }
  static std::string toCell(const char *S) { return S; }
  static std::string toCell(int V) { return std::to_string(V); }
  static std::string toCell(unsigned V) { return std::to_string(V); }
  static std::string toCell(long V) { return std::to_string(V); }
  static std::string toCell(unsigned long V) { return std::to_string(V); }
  static std::string toCell(long long V) { return std::to_string(V); }
  static std::string toCell(unsigned long long V) { return std::to_string(V); }

  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

/// Formats \p V with \p Digits significant decimal digits (fixed notation for
/// moderate magnitudes, scientific otherwise). Keeps benchmark output stable
/// across platforms.
std::string formatDouble(double V, int Digits = 4);

/// Formats \p V as a percentage string such as "23.7%".
std::string formatPercent(double V, int Digits = 1);

} // namespace marqsim

#endif // MARQSIM_SUPPORT_TABLE_H
