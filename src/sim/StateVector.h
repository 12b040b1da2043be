//===- sim/StateVector.h - Statevector simulator ----------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A full-statevector quantum simulator over the circuit IR.
///
/// Amplitudes are indexed by computational basis states with qubit 0 as the
/// least significant bit. Gate application is the usual strided two-amplitude
/// update; circuits build unitaries column by column. The simulator both
/// validates the Pauli-rotation synthesis (circuit unitary vs dense
/// exponential) and evaluates compiled circuits in the experiment harnesses.
///
/// The Pauli kernels are fused single-pass updates: exp(i theta P) visits
/// each {X, X^xMask} butterfly pair exactly once and updates it in place
/// (no scratch round trip), and Z-only strings take a diagonal fast path
/// that touches each element's own slot only — half the memory traffic
/// again. Both paths run the minimal arithmetic of sim/Kernels.h: every
/// nonzero amplitude is bit-identical to the textbook two-pass formulation
/// cos|psi> + i sin P|psi>, and so is every fidelity. The loops are plain
/// scalar code, never dispatched: they are the reference that every
/// StatePanel tier (and so every fidelity evaluation) is compared against,
/// zero signs included. SimTest's reference-kernel equivalence tests and
/// KernelTest's exhaustive sign/zero sweep pin this.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_STATEVECTOR_H
#define MARQSIM_SIM_STATEVECTOR_H

#include "circuit/Circuit.h"
#include "linalg/Matrix.h"
#include "pauli/PauliString.h"

#include <cstdint>

namespace marqsim {

namespace detail {
/// Fills \p M with the 2x2 unitary of a single-qubit gate. Returns false
/// for CNOT (the only two-qubit gate; callers special-case the controlled
/// flip). One home for the gate constants so the single-state and panel
/// simulators apply bit-identical matrices.
bool singleQubitMatrix(const Gate &G, Complex M[2][2]);
} // namespace detail

/// An n-qubit pure state (n <= 26 to keep memory bounded). Amplitudes are
/// a CVector (cache-line aligned storage).
class StateVector {
public:
  /// Initializes to the basis state |Basis> over \p NumQubits qubits.
  explicit StateVector(unsigned NumQubits, uint64_t Basis = 0);

  /// Wraps an existing amplitude vector (size must be a power of two).
  StateVector(unsigned NumQubits, CVector Amplitudes);

  unsigned numQubits() const { return NQubits; }
  size_t dim() const { return Amp.size(); }
  const CVector &amplitudes() const { return Amp; }
  CVector &amplitudes() { return Amp; }

  /// Applies one gate.
  void apply(const Gate &G);

  /// Applies all gates of a circuit in order.
  void apply(const Circuit &C);

  /// Applies a bare Pauli string (phase-tracked permutation), in place.
  void applyPauli(const PauliString &P);

  /// Applies exp(i * Theta * P) analytically:
  /// cos(Theta) |psi> + i sin(Theta) P|psi>.
  /// One fused pass: each butterfly pair is loaded and stored exactly once.
  void applyPauliExp(const PauliString &P, double Theta);

  /// <this | Other>, accumulated in ascending basis order.
  Complex overlap(const StateVector &Other) const;

  /// Euclidean norm (1 for a valid state).
  double norm() const;

private:
  void applySingleQubit(unsigned Q, const Complex M[2][2]);

  unsigned NQubits;
  CVector Amp;
};

/// Builds the full 2^n x 2^n unitary of a circuit by applying it to panels
/// of basis columns (intended for tests and small systems).
Matrix circuitUnitary(const Circuit &C);

} // namespace marqsim

#endif // MARQSIM_SIM_STATEVECTOR_H
