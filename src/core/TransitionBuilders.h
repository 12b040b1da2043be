//===- core/TransitionBuilders.h - Transition matrix construction *- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constructors for the transition matrices of the paper:
///
///   * Pqd  — vanilla qDrift (Corollary 4.1): rank-1, rows = pi.
///   * Pgc  — the CNOT-gate-cancellation matrix of Algorithm 2, obtained by
///            solving a Min-Cost Flow Problem on the bipartite Prev -> Next
///            network whose hard capacities encode the stationary
///            distribution (Theorem 5.1) and whose edge costs are
///            CNOT_count(i, j). Diagonal edges are omitted so the trivial
///            identity solution is excluded (Section 5.2).
///   * Prp  — the random-perturbation matrix of Section 5.5: the average of
///            several Pgc-style solutions whose costs were independently
///            perturbed (+1 with probability 1/2), flattening the spectrum.
///   * Pcg  — an extension from the paper's discussion (Section 7): costs
///            favour successors that commute with the current term.
///
/// All builders return matrices that preserve the stationary distribution;
/// strong connectivity is restored by convex combination with Pqd
/// (Theorem 5.2), done by combineWithQDrift / makeConfigMatrix, which read
/// Pqd's rows from pi instead of forming it (TransitionMatrix::combine).
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CORE_TRANSITIONBUILDERS_H
#define MARQSIM_CORE_TRANSITIONBUILDERS_H

#include "markov/TransitionMatrix.h"
#include "pauli/Hamiltonian.h"
#include "support/RNG.h"

namespace marqsim {

/// Options for the MCFP-based builders.
struct MCFPOptions {
  /// Probability quantum: capacities are round(pi_i * ProbScale) with a
  /// largest-remainder correction so they sum exactly to ProbScale.
  int64_t ProbScale = 1'000'000'000;

  /// Cost multiplier (costs are integers; the multiplier leaves headroom
  /// for the +1 random perturbations without precision loss).
  int64_t CostScale = 2;
};

/// Pqd of Corollary 4.1. Valid on its own (complete graph, stationary).
TransitionMatrix buildQDrift(const Hamiltonian &H);

/// Pgc of Algorithm 2. Requires every pi_i <= 0.5 (apply
/// Hamiltonian::splitLargeTerms first; the compiler driver does this
/// automatically). Deterministic.
TransitionMatrix buildGateCancellation(const Hamiltonian &H,
                                       const MCFPOptions &Opts = {});

/// buildGateCancellation over \p CnotCosts, the caller's copy of
/// scaledCnotCosts(H, Opts.CostScale) (core/CNOTCountOracle.h), so a gc-rp
/// mix builds that table once for Pgc and Prp. A table that is not n x n
/// throws std::invalid_argument.
TransitionMatrix buildGateCancellation(const Hamiltonian &H,
                                       const std::vector<int64_t> &CnotCosts,
                                       const MCFPOptions &Opts = {});

/// The generic Algorithm 2 skeleton behind every MCFP builder: the
/// bipartite stationary-capacity flow network with an arbitrary
/// non-negative cost table (diagonal entries ignored — those edges are
/// excluded). A table that is not N x N or has a negative off-diagonal
/// cost throws std::invalid_argument. Exposed so new objectives (e.g.
/// hardware-aware costs) can plug in without reimplementing the flow
/// encoding.
TransitionMatrix
buildFromCostTable(const Hamiltonian &H,
                   const std::vector<std::vector<int64_t>> &Cost,
                   const MCFPOptions &Opts = {});

/// Prp of Section 5.5: averages \p Rounds solutions of the gate-
/// cancellation MCFP whose costs receive independent +1 perturbations with
/// probability 1/2 (the paper's configuration; it uses 100 rounds). The
/// perturbations are drawn from \p Rng serially; the rounds are then
/// solved on up to \p Jobs threads (0 = all cores). The result and the
/// final state of \p Rng are bit-identical for every Jobs value.
TransitionMatrix buildRandomPerturbation(const Hamiltonian &H,
                                         unsigned Rounds, RNG &Rng,
                                         const MCFPOptions &Opts = {},
                                         unsigned Jobs = 1);

/// buildRandomPerturbation over \p CnotCosts, the caller's copy of
/// scaledCnotCosts(H, Opts.CostScale). The table is taken by value (move it
/// in) and released, with the draws, before the averaged matrix is
/// allocated. A table that is not n x n throws std::invalid_argument.
TransitionMatrix buildRandomPerturbation(const Hamiltonian &H,
                                         std::vector<int64_t> CnotCosts,
                                         unsigned Rounds, RNG &Rng,
                                         const MCFPOptions &Opts = {},
                                         unsigned Jobs = 1);

/// Extension (paper Section 7): MCFP matrix whose costs are 0 for
/// mutually commuting term pairs and 1 otherwise, biasing the chain toward
/// runs of commuting terms.
TransitionMatrix buildCommutationGrouping(const Hamiltonian &H,
                                          const MCFPOptions &Opts = {});

/// Theta * Pqd + (1 - Theta) * P — the strong-connectivity-restoring
/// combination (Theorem 5.2 discussion). Requires Theta in (0, 1].
TransitionMatrix combineWithQDrift(const Hamiltonian &H,
                                   const TransitionMatrix &P, double Theta);

/// The paper's experimental configurations: returns
///   WQd * Pqd + WGc * Pgc + WRp * Prp
/// with weights summing to 1 (WRp == 0 skips the perturbation solves).
TransitionMatrix makeConfigMatrix(const Hamiltonian &H, double WQd,
                                  double WGc, double WRp,
                                  unsigned PerturbationRounds = 16,
                                  uint64_t Seed = 1234,
                                  const MCFPOptions &Opts = {});

} // namespace marqsim

#endif // MARQSIM_CORE_TRANSITIONBUILDERS_H
