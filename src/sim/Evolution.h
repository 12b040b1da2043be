//===- sim/Evolution.h - Exact Hamiltonian evolution ------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact time evolution e^{iHt} for Pauli-sum Hamiltonians.
///
/// Two paths: a dense unitary through the Pade matrix exponential (small
/// systems, used for ground truth in tests) and a matrix-free per-column
/// evolution by the Chebyshev expansion of e^{iHt} (Tal-Ezer & Kosloff,
/// J. Chem. Phys. 81, 3967 (1984)). The column path applies H through the
/// X-mask-grouped PauliOperator, one streaming pass per distinct X mask,
/// and needs about lambda|t| + O((lambda|t|)^{1/3}) products. The
/// experiment harnesses use it so exact reference states are affordable
/// at 12-14 qubits.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_EVOLUTION_H
#define MARQSIM_SIM_EVOLUTION_H

#include "linalg/Matrix.h"
#include "pauli/Hamiltonian.h"
#include "sim/PauliOperator.h"

namespace marqsim {

/// y = H x for a Pauli-sum Hamiltonian (matrix-free).
CVector applyHamiltonian(const Hamiltonian &H, const CVector &X);

/// Computes e^{i T H} |In> by the Chebyshev expansion, accurate to
/// rounding for any finite T. T = 0 and an empty H return In unchanged.
CVector evolveExact(const Hamiltonian &H, double T, const CVector &In);

/// The same, against a prebuilt operator: columns of one Hamiltonian
/// share its grouped diagonals.
CVector evolveExact(const PauliOperator &H, double T, const CVector &In);

/// Dense e^{i T H} via the Pade exponential (<= 10 qubits recommended).
Matrix exactUnitary(const Hamiltonian &H, double T);

} // namespace marqsim

#endif // MARQSIM_SIM_EVOLUTION_H
