//===- core/CNOTCountOracle.h - Pairwise CNOT cost oracle -------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classical oracle CNOT_count(H_i, H_j) of Algorithm 2: the number of
/// CNOT gates remaining between the Rz of snippet i and the Rz of snippet j
/// after cross-snippet gate cancellation in the style of Gui et al. [22].
///
/// Model (documented in DESIGN.md and validated against the emitter and the
/// generic peephole pass in the tests): each snippet of weight k carries
/// k - 1 ladder CNOTs on each side of its Rz. Let M be the set of qubits on
/// which both strings apply the *same* non-identity operator. If M is
/// non-empty, the shared root can be placed inside M; the basis-change
/// layers of all matched qubits cancel, and the ladder CNOTs of the other
/// |M| - 1 matched qubits annihilate pairwise:
///
///   CNOT_count(i, j) = (k_i - 1) + (k_j - 1) - 2 * max(|M| - 1, 0)
///
/// Identical strings merge their rotations outright (cost 0, paper
/// Section 5.2).
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CORE_CNOTCOUNTORACLE_H
#define MARQSIM_CORE_CNOTCOUNTORACLE_H

#include "markov/TransitionMatrix.h"
#include "pauli/Hamiltonian.h"
#include "support/CpuFeatures.h"

#include <cstdint>
#include <vector>

namespace marqsim {

/// CNOT gates between the Rz of \p Prev and the Rz of \p Next after
/// pairwise cancellation. Inline, so a loop compiled with
/// MARQSIM_TARGET_POPCNT counts with the POPCNT instruction.
inline unsigned cnotCountBetween(const PauliString &Prev,
                                 const PauliString &Next) {
  if (Prev == Next)
    return 0; // identical terms merge their rotation angles
  const unsigned KPrev = Prev.weight();
  const unsigned KNext = Next.weight();
  const unsigned Ladder = (KPrev ? KPrev - 1 : 0) + (KNext ? KNext - 1 : 0);
  const unsigned Matched = Prev.matchedOps(Next);
  if (Matched == 0)
    return Ladder;
  assert(2 * (Matched - 1) <= Ladder && "oracle cancellation exceeds supply");
  return Ladder - 2 * (Matched - 1);
}

/// Dense n x n cost table C(i,j) = cnotCountBetween(term_i, term_j).
std::vector<std::vector<unsigned>> cnotCostTable(const Hamiltonian &H);

/// The MCFP cost table of Algorithm 2: \p Scale * cnotCountBetween(term_i,
/// term_j), row-major n x n, built in one pass on \p Path.
std::vector<int64_t> scaledCnotCosts(const Hamiltonian &H, int64_t Scale,
                                     PopcountPath Path = hostPopcountPath());

/// Expected per-transition CNOT cost of sampling with matrix \p P at its
/// stationary distribution \p Pi:  sum_ij pi_i p_ij CNOT_count(i, j).
/// By Proposition 5.1 this equals the optimal MCFP objective when P = Pgc.
double expectedTransitionCNOTs(const Hamiltonian &H,
                               const TransitionMatrix &P,
                               const std::vector<double> &Pi);

} // namespace marqsim

#endif // MARQSIM_CORE_CNOTCOUNTORACLE_H
