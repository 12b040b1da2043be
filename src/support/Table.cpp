//===- support/Table.cpp - Aligned text tables ----------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Table.h"

#include <cassert>
#include <cmath>
#include <cstdio>

using namespace marqsim;

Table::Table(std::vector<std::string> Hdr) : Header(std::move(Hdr)) {
  assert(!Header.empty() && "table needs at least one column");
}

void Table::addRow(std::vector<std::string> Row) {
  assert(Row.size() == Header.size() && "row width must match header");
  Rows.push_back(std::move(Row));
}

void Table::print(std::ostream &OS) const {
  std::vector<size_t> Widths(Header.size());
  for (size_t C = 0; C < Header.size(); ++C)
    Widths[C] = Header[C].size();
  for (const auto &Row : Rows)
    for (size_t C = 0; C < Row.size(); ++C)
      if (Row[C].size() > Widths[C])
        Widths[C] = Row[C].size();

  auto PrintRow = [&](const std::vector<std::string> &Row) {
    for (size_t C = 0; C < Row.size(); ++C) {
      OS << Row[C];
      if (C + 1 == Row.size())
        break;
      for (size_t Pad = Row[C].size(); Pad < Widths[C] + 2; ++Pad)
        OS << ' ';
    }
    OS << '\n';
  };

  PrintRow(Header);
  size_t Total = 0;
  for (size_t W : Widths)
    Total += W + 2;
  for (size_t I = 0; I + 2 < Total; ++I)
    OS << '-';
  OS << '\n';
  for (const auto &Row : Rows)
    PrintRow(Row);
}

std::string marqsim::formatDouble(double V, int Digits) {
  char Buf[64];
  double Mag = std::fabs(V);
  if (V == 0.0) {
    std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, 0.0);
  } else if (Mag >= 1e-4 && Mag < 1e7) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Digits + 2, V);
  } else {
    std::snprintf(Buf, sizeof(Buf), "%.*e", Digits, V);
  }
  return Buf;
}

std::string marqsim::formatPercent(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f%%", Digits, V * 100.0);
  return Buf;
}
