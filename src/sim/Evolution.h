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
/// The panel form evolves a block of columns together on full-layout
/// split planes (sim/StatePanel.h): the columns share every coefficient
/// and every grouped diagonal, so each product loads a diagonal entry once
/// for all of them (PauliOperator::applyPanel). It runs the single-vector
/// recurrence elementwise, operation for operation, so every column is
/// bit-identical to evolveExact on that column, zero signs included.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_EVOLUTION_H
#define MARQSIM_SIM_EVOLUTION_H

#include "linalg/Matrix.h"
#include "pauli/Hamiltonian.h"
#include "sim/PauliOperator.h"

namespace marqsim {

class StatePanel;

/// y = H x for a Pauli-sum Hamiltonian (matrix-free).
CVector applyHamiltonian(const Hamiltonian &H, const CVector &X);

/// Computes e^{i T H} |In> by the Chebyshev expansion, accurate to
/// rounding for any finite T. T = 0 and an empty H return In unchanged.
CVector evolveExact(const Hamiltonian &H, double T, const CVector &In);

/// The same, against a prebuilt operator: columns of one Hamiltonian
/// share its grouped diagonals.
CVector evolveExact(const PauliOperator &H, double T, const CVector &In);

/// Replaces every column of the full-layout \p Panel by e^{i T H} applied
/// to it: the same coefficients, slices and recurrence as the vector form
/// on split planes, so each column's bits equal evolveExact on it. T = 0
/// and an empty H leave the panel unchanged.
void evolveExact(const PauliOperator &H, double T, StatePanel &Panel);

/// Dense e^{i T H} via the Pade exponential (<= 10 qubits recommended).
Matrix exactUnitary(const Hamiltonian &H, double T);

} // namespace marqsim

#endif // MARQSIM_SIM_EVOLUTION_H
