//===- sim/DensityMatrix.h - Mixed states and channels ----------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Density-matrix simulation of the *channel* the correctness proof of
/// Theorem 4.1 actually bounds.
///
/// The proof (Appendix A.2) shows that when the chain starts from its
/// stationary distribution, every sampling step applies the same mixed
/// channel
///   E(rho) = sum_j pi_j e^{i tau H_j} rho e^{-i tau H_j},
/// and that E^N differs from the exact evolution by at most ~2 lambda^2
/// t^2 / N. This module implements density matrices, unitary conjugation,
/// the qDrift/MarQSim step channel, and trace distance, so the tests can
/// check the bound directly rather than only sampling circuits.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_DENSITYMATRIX_H
#define MARQSIM_SIM_DENSITYMATRIX_H

#include "pauli/Hamiltonian.h"
#include "sim/StateVector.h"

namespace marqsim {

/// A mixed state over n qubits (dense 2^n x 2^n; small systems only).
class DensityMatrix {
public:
  /// The pure basis state |Basis><Basis|.
  explicit DensityMatrix(unsigned NumQubits, uint64_t Basis = 0);

  /// |Psi><Psi| for a pure state.
  explicit DensityMatrix(const StateVector &Psi);

  unsigned numQubits() const { return NQubits; }
  const Matrix &matrix() const { return Rho; }

  /// tr(rho); 1 for a normalized state.
  double trace() const { return Rho.trace().real(); }

  /// rho -> U rho U^dag.
  void applyUnitary(const Matrix &U);

  /// rho -> e^{i Theta P} rho e^{-i Theta P} (analytic, O(4^n)).
  void applyPauliExp(const PauliString &P, double Theta);

  /// One step of the stationary sampling channel:
  ///   rho -> sum_j pi_j e^{i sgn(h_j) Tau H_j} rho e^{-i sgn(h_j) Tau H_j}
  /// — the channel E of Theorem 4.1's proof. \p Tau is lambda*t/N.
  /// Throws std::invalid_argument when \p Pi does not have one probability
  /// per Hamiltonian term (a mismatched distribution would read out of
  /// bounds in release builds).
  void applySamplingChannel(const Hamiltonian &H,
                            const std::vector<double> &Pi, double Tau);

  /// Applies a single-qubit Kraus channel at \p Qubit:
  ///   rho -> sum_i K_i rho K_i^dag
  /// with each \p Kraus operator a 2x2 matrix embedded at the qubit.
  /// Throws std::invalid_argument on an empty set, non-2x2 operators, or
  /// an out-of-range qubit, and std::runtime_error when the applied map
  /// drifts the trace (i.e. the Kraus set was not trace-preserving).
  void applyChannel(const std::vector<Matrix> &Kraus, unsigned Qubit);

  /// Trace distance (1/2) * ||rho - sigma||_1, computed via the singular
  /// values of the (Hermitian) difference. In [0, 1]. Throws
  /// std::invalid_argument on a dimension mismatch.
  double traceDistance(const DensityMatrix &Other) const;

  /// Fidelity-like overlap with a pure target: <psi| rho |psi>.
  double overlap(const StateVector &Psi) const;

private:
  explicit DensityMatrix(unsigned NumQubits, Matrix Rho)
      : NQubits(NumQubits), Rho(std::move(Rho)) {}

  unsigned NQubits;
  Matrix Rho;
};

/// Embeds a 2x2 single-qubit operator at \p Qubit into the full
/// 2^NumQubits space (identity on every other qubit). Basis-index bit q
/// is qubit q, matching PauliString::applyToBasis.
Matrix embedSingleQubit(const Matrix &Op, unsigned Qubit, unsigned NumQubits);

} // namespace marqsim

#endif // MARQSIM_SIM_DENSITYMATRIX_H
