//===- sim/PauliOperator.h - X-mask-grouped Pauli-sum operator --*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Pauli-sum Hamiltonian as a matrix-free operator grouped by X mask.
///
/// Every Pauli string acts on a basis state as P|b> = phase(b) |b ^ x>,
/// where x is its X mask and phase(b) depends only on b's Z-mask parity.
/// Terms sharing an X mask therefore share a permutation, and their sum is
/// that permutation times one diagonal:
///
///   H = sum_j h_j P_j = sum_x X^x D_x,
///   D_x[b] = sum_{j: x_j = x} h_j phase_j(b).
///
/// The diagonals are built once, so a matrix-vector product is one
/// streaming pass per distinct X mask (47 for OH-, 98 for LiH) rather than
/// one pass per term with a per-element phase computation.
///
/// applyPanel runs the same product on a full-layout panel of columns
/// (split real/imag planes, sim/StatePanel.h): each group's diagonal entry
/// is loaded once per row and updates every column in one vector operation
/// (kernels::Ops::PanelGroupProductF64), and every column gets the bits
/// apply() gives it, zero signs included.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_PAULIOPERATOR_H
#define MARQSIM_SIM_PAULIOPERATOR_H

#include "linalg/Matrix.h"
#include "pauli/Hamiltonian.h"

#include <cstdint>
#include <vector>

namespace marqsim {

class PauliOperator {
public:
  explicit PauliOperator(const Hamiltonian &H);

  unsigned numQubits() const { return NQubits; }

  /// Number of distinct X masks, i.e. streaming passes per product.
  size_t numGroups() const { return XMasks.size(); }

  /// sum_j |h_j| of the source Hamiltonian, a bound on the spectral norm.
  double lambda() const { return Lambda; }

  /// Y = H X over 2^n amplitudes; \p X and \p Y must not alias.
  void apply(const Complex *X, Complex *Y) const;

  CVector apply(const CVector &X) const;

  /// Y = H X for every lane of full-layout split planes: element (b, L)
  /// at [b * Stride + L], 2^n rows. Groups run in apply()'s order with its
  /// per-element operations, so each lane is bit-identical to apply() on
  /// that column. \p X and \p Y must not alias.
  void applyPanel(const double *XRe, const double *XIm, double *YRe,
                  double *YIm, size_t Stride) const;

private:
  unsigned NQubits;
  double Lambda;
  std::vector<uint64_t> XMasks;   ///< ascending
  std::vector<CVector> Diagonals; ///< D_x, parallel to XMasks
};

} // namespace marqsim

#endif // MARQSIM_SIM_PAULIOPERATOR_H
