//===- core/HTTGraph.h - Hamiltonian Term Transition Graph IR ---*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Hamiltonian Term Transition Graph (HTT graph), MarQSim's intermediate
/// representation (paper Definition 4.1).
///
/// The IR binds a decomposed Hamiltonian H = sum_j h_j H_j to the state
/// transition graph of a homogeneous Markov chain: one vertex per term,
/// directed edges weighted by the transition probabilities p_ij. Sampling
/// this chain *is* compilation (Algorithm 1); tuning the edge weights within
/// the correctness envelope of Theorem 4.1 *is* optimization (Section 5).
///
/// The class stores the term list, the target stationary distribution
/// pi_i = |h_i| / lambda, and the transition matrix, and implements the
/// Theorem 4.1 validity checks.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CORE_HTTGRAPH_H
#define MARQSIM_CORE_HTTGRAPH_H

#include "markov/TransitionMatrix.h"
#include "pauli/Hamiltonian.h"

namespace marqsim {

/// MarQSim's IR: a Hamiltonian whose terms are the states of a tunable
/// Markov chain.
class HTTGraph {
public:
  /// Builds the IR for \p H with the given transition matrix (the matrix
  /// size must equal the number of terms).
  HTTGraph(Hamiltonian H, TransitionMatrix P);

  const Hamiltonian &hamiltonian() const { return Ham; }
  const TransitionMatrix &transitionMatrix() const { return P; }
  const std::vector<double> &stationary() const { return Pi; }

  size_t numStates() const { return Ham.numTerms(); }

  /// Theorem 4.1 condition (1): the state transition graph is strongly
  /// connected.
  bool isStronglyConnected(double EdgeTol = 0.0) const {
    return P.isStronglyConnected(EdgeTol);
  }

  /// Theorem 4.1 condition (2): pi P = pi for pi_i = |h_i| / lambda.
  bool preservesStationary(double Tol = 1e-6) const {
    return P.preservesDistribution(Pi, Tol);
  }

  /// Both Theorem 4.1 conditions plus row-stochasticity.
  bool isValidForCompilation(double Tol = 1e-6) const {
    return P.isRowStochastic(Tol) && isStronglyConnected() &&
           preservesStationary(Tol);
  }

  /// Number of directed edges with p_ij > EdgeTol (self-edges included).
  size_t numEdges(double EdgeTol = 0.0) const;

  /// Graphviz DOT rendering of the state transition graph: one node per
  /// Hamiltonian term (labelled with its Pauli string and stationary
  /// weight), one edge per transition probability above \p EdgeTol.
  /// Intended for inspecting small IRs.
  std::string toDot(double EdgeTol = 1e-3) const;

private:
  Hamiltonian Ham;
  TransitionMatrix P;
  std::vector<double> Pi;
};

} // namespace marqsim

#endif // MARQSIM_CORE_HTTGRAPH_H
