//===- sim/PauliOperator.cpp - X-mask-grouped Pauli-sum operator ------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/PauliOperator.h"

#include "sim/Kernels.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace marqsim;

PauliOperator::PauliOperator(const Hamiltonian &H)
    : NQubits(H.numQubits()), Lambda(H.lambda()) {
  const size_t Dim = size_t(1) << NQubits;
  std::map<uint64_t, CVector> Groups;
  for (const PauliTerm &T : H.terms()) {
    CVector &D = Groups.try_emplace(T.String.xMask(), Dim, Complex(0.0, 0.0))
                     .first->second;
    // phase(b) = i^{|x&z|} (-1)^{|z&b|}: one constant and its negation.
    const Complex Pos = T.Coeff * T.String.applyToBasis(0);
    const uint64_t ZM = T.String.zMask();
    for (uint64_t B = 0; B < Dim; ++B)
      D[B] += __builtin_parityll(ZM & B) ? -Pos : Pos;
  }
  for (auto &[XM, D] : Groups) {
    XMasks.push_back(XM);
    Diagonals.push_back(std::move(D));
  }
}

void PauliOperator::apply(const Complex *X, Complex *Y) const {
  const size_t Dim = size_t(1) << NQubits;
  std::fill(Y, Y + Dim, Complex(0.0, 0.0));
  for (size_t G = 0; G < XMasks.size(); ++G) {
    const uint64_t XM = XMasks[G];
    const Complex *D = Diagonals[G].data();
    // Below the lowest set bit of XM, b -> b ^ XM keeps the low bits, so
    // each aligned run of that length maps onto one contiguous run.
    const size_t Run = XM ? size_t(XM & (~XM + 1)) : Dim;
    for (size_t Base = 0; Base < Dim; Base += Run) {
      Complex *Out = Y + (Base ^ XM);
      for (size_t J = 0; J < Run; ++J) {
        const Complex Dv = D[Base + J], Xv = X[Base + J];
        Out[J] += Complex(Dv.real() * Xv.real() - Dv.imag() * Xv.imag(),
                          Dv.real() * Xv.imag() + Dv.imag() * Xv.real());
      }
    }
  }
}

CVector PauliOperator::apply(const CVector &X) const {
  assert(X.size() == size_t(1) << NQubits && "state size mismatch");
  CVector Y(X.size());
  apply(X.data(), Y.data());
  return Y;
}

void PauliOperator::applyPanel(const double *XRe, const double *XIm,
                               double *YRe, double *YIm, size_t Stride) const {
  const size_t Dim = size_t(1) << NQubits;
  std::fill(YRe, YRe + Dim * Stride, 0.0);
  std::fill(YIm, YIm + Dim * Stride, 0.0);
  const kernels::Ops &K = kernels::active();
  for (size_t G = 0; G < XMasks.size(); ++G)
    K.PanelGroupProductF64(Diagonals[G].data(), XRe, XIm, YRe, YIm, Dim,
                           Stride, XMasks[G]);
}
