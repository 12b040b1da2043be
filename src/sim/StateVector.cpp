//===- sim/StateVector.cpp - Statevector simulator ---------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/StateVector.h"

#include "sim/Kernels.h"
#include "sim/StatePanel.h"

#include <cmath>

using namespace marqsim;

StateVector::StateVector(unsigned NumQubits, uint64_t Basis)
    : NQubits(NumQubits), Amp(size_t(1) << NumQubits, Complex(0.0, 0.0)) {
  assert(NumQubits <= 26 && "statevector too large");
  assert(Basis < Amp.size() && "basis state out of range");
  Amp[Basis] = Complex(1.0, 0.0);
}

StateVector::StateVector(unsigned NumQubits, CVector Amplitudes)
    : NQubits(NumQubits), Amp(std::move(Amplitudes)) {
  assert(Amp.size() == size_t(1) << NumQubits &&
         "amplitude vector size mismatch");
}

bool marqsim::detail::singleQubitMatrix(const Gate &G, Complex M[2][2]) {
  const Complex I(0.0, 1.0);
  switch (G.Kind) {
  case GateKind::H: {
    const double S = 1.0 / std::sqrt(2.0);
    M[0][0] = S;
    M[0][1] = S;
    M[1][0] = S;
    M[1][1] = -S;
    return true;
  }
  case GateKind::X:
    M[0][0] = 0.0;
    M[0][1] = 1.0;
    M[1][0] = 1.0;
    M[1][1] = 0.0;
    return true;
  case GateKind::Y:
    M[0][0] = 0.0;
    M[0][1] = -I;
    M[1][0] = I;
    M[1][1] = 0.0;
    return true;
  case GateKind::Z:
    M[0][0] = 1.0;
    M[0][1] = 0.0;
    M[1][0] = 0.0;
    M[1][1] = -1.0;
    return true;
  case GateKind::S:
    M[0][0] = 1.0;
    M[0][1] = 0.0;
    M[1][0] = 0.0;
    M[1][1] = I;
    return true;
  case GateKind::Sdg:
    M[0][0] = 1.0;
    M[0][1] = 0.0;
    M[1][0] = 0.0;
    M[1][1] = -I;
    return true;
  case GateKind::Rx: {
    double C = std::cos(G.Angle / 2), Sn = std::sin(G.Angle / 2);
    M[0][0] = C;
    M[0][1] = -I * Sn;
    M[1][0] = -I * Sn;
    M[1][1] = C;
    return true;
  }
  case GateKind::Ry: {
    double C = std::cos(G.Angle / 2), Sn = std::sin(G.Angle / 2);
    M[0][0] = C;
    M[0][1] = -Sn;
    M[1][0] = Sn;
    M[1][1] = C;
    return true;
  }
  case GateKind::Rz:
    M[0][0] = std::exp(-I * (G.Angle / 2));
    M[0][1] = 0.0;
    M[1][0] = 0.0;
    M[1][1] = std::exp(I * (G.Angle / 2));
    return true;
  case GateKind::CNOT:
    return false;
  }
  assert(false && "invalid GateKind");
  return false;
}

void StateVector::applySingleQubit(unsigned Q, const Complex M[2][2]) {
  assert(Q < NQubits && "qubit out of range");
  const uint64_t Bit = 1ULL << Q;
  const size_t Dim = Amp.size();
  for (uint64_t Base = 0; Base < Dim; ++Base) {
    if (Base & Bit)
      continue;
    const Complex A0 = Amp[Base];
    const Complex A1 = Amp[Base | Bit];
    Amp[Base] = M[0][0] * A0 + M[0][1] * A1;
    Amp[Base | Bit] = M[1][0] * A0 + M[1][1] * A1;
  }
}

void StateVector::apply(const Gate &G) {
  Complex M[2][2];
  if (detail::singleQubitMatrix(G, M)) {
    applySingleQubit(G.Qubit0, M);
    return;
  }
  assert(G.Kind == GateKind::CNOT && "invalid GateKind");
  if (G.Kind != GateKind::CNOT)
    return; // release builds: an invalid kind stays a no-op
  const uint64_t CBit = 1ULL << G.Qubit0;
  const uint64_t TBit = 1ULL << G.Qubit1;
  const size_t Dim = Amp.size();
  for (uint64_t X = 0; X < Dim; ++X)
    if ((X & CBit) && !(X & TBit))
      std::swap(Amp[X], Amp[X | TBit]);
}

void StateVector::apply(const Circuit &C) {
  assert(C.numQubits() <= NQubits && "circuit wider than state");
  for (const Gate &G : C.gates())
    apply(G);
}

void StateVector::applyPauli(const PauliString &P) {
  assert((P.supportMask() >> NQubits) == 0 &&
         "Pauli string acts outside the register");
  const uint64_t XM = P.xMask();
  const detail::PauliPhases Phases(P);
  if (XM == 0) {
    // Diagonal: a pure per-element phase, in place.
    for (uint64_t X = 0; X < Amp.size(); ++X)
      Amp[X] = Phases.at(X) * Amp[X];
    return;
  }
  // One in-place pass over the {X, X ^ XM} pairs: P|psi>[X] is the
  // partner amplitude times its phase, exactly the value the old scratch
  // pass stored.
  const uint64_t Pivot = XM & (~XM + 1); // lowest set bit of XM
  for (uint64_t X = 0; X < Amp.size(); ++X) {
    if (X & Pivot)
      continue;
    const uint64_t Y = X ^ XM;
    const Complex A0 = Amp[X];
    const Complex A1 = Amp[Y];
    Amp[X] = Phases.at(Y) * A1;
    Amp[Y] = Phases.at(X) * A0;
  }
}

void StateVector::applyPauliExp(const PauliString &P, double Theta) {
  assert((P.supportMask() >> NQubits) == 0 &&
         "Pauli string acts outside the register");
  const Complex CosT(std::cos(Theta), 0.0);
  const Complex ISinT(0.0, std::sin(Theta));
  if (P.isIdentity()) {
    // exp(i Theta I) is the global phase cos + i sin.
    const Complex Phase = CosT + ISinT;
    for (Complex &A : Amp)
      A *= Phase;
    return;
  }
  // The diagonal fast path and the fused butterfly both live behind the
  // kernel dispatch: scalar reference or a bit-identical SIMD variant.
  const uint64_t XM = P.xMask();
  const detail::PauliPhases Phases(P);
  const kernels::Ops &K = kernels::active();
  if (XM == 0)
    K.ExpDiagonalF64(Amp.data(), Amp.size(), CosT, ISinT, Phases);
  else
    K.ExpButterflyF64(Amp.data(), Amp.size(), XM, CosT, ISinT, Phases);
}

Complex StateVector::overlap(const StateVector &Other) const {
  assert(Amp.size() == Other.Amp.size() && "overlap size mismatch");
  return innerProduct(Amp, Other.Amp);
}

Complex StateVector::overlapWithTarget(const CVector &Target) const {
  assert(Target.size() == Amp.size() && "overlap size mismatch");
  return innerProduct(Target, Amp);
}

double StateVector::norm() const { return vectorNorm(Amp); }

Matrix marqsim::circuitUnitary(const Circuit &C) {
  assert(C.numQubits() <= 12 && "circuit unitary too large");
  const size_t Dim = size_t(1) << C.numQubits();
  Matrix U(Dim, Dim);
  // Panels of basis columns share each gate's setup; every column still
  // sees the exact per-element arithmetic of a standalone StateVector.
  for (uint64_t Base = 0; Base < Dim; Base += StatePanel::PreferredWidth) {
    const size_t Count =
        std::min<size_t>(StatePanel::PreferredWidth, Dim - Base);
    std::vector<uint64_t> Cols(Count);
    for (size_t L = 0; L < Count; ++L)
      Cols[L] = Base + L;
    StatePanel Panel(C.numQubits(), Cols);
    Panel.applyAll(C);
    for (size_t L = 0; L < Count; ++L)
      for (size_t Row = 0; Row < Dim; ++Row)
        U.at(Row, Base + L) = Panel.at(L, Row);
  }
  return U;
}
