//===- core/Baselines.h - Term orders of the Trotter baselines --*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed term orders of the deterministic product formulas MarQSim is
/// positioned against (paper Section 3.1): the input order, lexicographic,
/// magnitude-descending, and the greedy max-matching order in the spirit of
/// Gui et al. [22]. TrotterStrategy (core/CompilerEngine) repeats one of
/// them per step; the randomized families draw their own orders there.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CORE_BASELINES_H
#define MARQSIM_CORE_BASELINES_H

#include "pauli/Hamiltonian.h"

#include <vector>

namespace marqsim {

/// Term orderings for deterministic Trotter compilation.
enum class TermOrderKind {
  /// Order as listed in the Hamiltonian.
  Given,
  /// Sort by Pauli string (lexical ordering of [26]/[22] flavour).
  Lexicographic,
  /// Sort by descending |h_j|.
  MagnitudeDescending,
  /// Greedy chain maximizing matched operators between neighbours
  /// (travelling-salesperson-style heuristic of [22]).
  GreedyMatched,
};

/// Computes the term visiting order for \p Kind.
std::vector<size_t> orderTerms(const Hamiltonian &H, TermOrderKind Kind);

} // namespace marqsim

#endif // MARQSIM_CORE_BASELINES_H
