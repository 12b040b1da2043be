//===- pauli/PauliSum.h - Complex-weighted Pauli algebra --------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear combinations of Pauli strings with complex coefficients.
///
/// This is the working representation for operator algebra that is not yet a
/// Hermitian Hamiltonian: the Jordan-Wigner images of fermionic ladder
/// operators, their products, and Majorana monomials. Products use the
/// phase-tracked PauliString multiplication; terms are kept in a map keyed
/// by string so collection is automatic.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_PAULI_PAULISUM_H
#define MARQSIM_PAULI_PAULISUM_H

#include "pauli/Hamiltonian.h"

#include <map>

namespace marqsim {

/// A complex-weighted sum of Pauli strings.
class PauliSum {
public:
  PauliSum() = default;

  /// The zero operator.
  static PauliSum zero() { return PauliSum(); }

  /// The scalar operator c * Identity.
  static PauliSum scalar(Complex C);

  /// A single term c * P.
  static PauliSum term(Complex C, PauliString P);

  bool isZero(double Tol = 1e-14) const;
  size_t numTerms() const { return Terms.size(); }
  const std::map<PauliString, Complex> &terms() const { return Terms; }

  /// Adds c * P into the sum.
  void add(Complex C, PauliString P);

  PauliSum operator+(const PauliSum &O) const;
  PauliSum operator*(const PauliSum &O) const;
  PauliSum operator*(Complex C) const;
  PauliSum &operator+=(const PauliSum &O);

  /// Hermitian conjugate (conjugates coefficients; Pauli strings are
  /// self-adjoint).
  PauliSum adjoint() const;

  /// Removes terms with |coefficient| <= Tol.
  void prune(double Tol = 1e-12);

  /// True if every coefficient is real within Tol (i.e. the operator is
  /// Hermitian, since Pauli strings are Hermitian and independent).
  bool isHermitian(double Tol = 1e-10) const;

  /// Converts to a real-weighted Hamiltonian over \p NumQubits qubits.
  /// Requires isHermitian(); the identity component may optionally be
  /// dropped (it only shifts the global phase of the simulation).
  Hamiltonian toHamiltonian(unsigned NumQubits, bool DropIdentity = true,
                            double Tol = 1e-12) const;

private:
  std::map<PauliString, Complex> Terms;
};

} // namespace marqsim

#endif // MARQSIM_PAULI_PAULISUM_H
