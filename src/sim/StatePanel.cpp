//===- sim/StatePanel.cpp - Multi-column statevector panel -------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/StatePanel.h"

#include "sim/Kernels.h"

#include <cmath>

using namespace marqsim;

Sector Sector::full(unsigned NumQubits) {
  Sector S(NumQubits);
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    S.Basis.push_back(uint64_t(1) << Q);
  return S;
}

void Sector::insert(uint64_t XMask) {
  const uint64_t V = reduce(XMask);
  if (V == 0)
    return;
  // V is zero at every pivot, so its leading bit is a new pivot. Clearing
  // that bit from the other basis vectors keeps the form reduced and
  // leaves their (higher) leading bits where they are.
  const uint64_t Lead = lead(V);
  for (uint64_t &B : Basis)
    if (B & Lead)
      B ^= V;
  auto Pos = Basis.begin();
  while (Pos != Basis.end() && lead(*Pos) < Lead)
    ++Pos;
  Basis.insert(Pos, V);
}

// The identity basis (full rank) maps every mask to itself; the fast paths
// below keep full-layout panels free of per-element basis walks.

uint64_t Sector::reduce(uint64_t X) const {
  if (rank() == NQubits)
    return 0;
  for (uint64_t B : Basis)
    if (X & lead(B))
      X ^= B;
  return X;
}

uint64_t Sector::coords(uint64_t X) const {
  if (rank() == NQubits)
    return X;
  uint64_t U = 0;
  for (size_t I = 0; I < Basis.size(); ++I)
    U |= uint64_t((X & lead(Basis[I])) != 0) << I;
  return U;
}

uint64_t Sector::expand(uint64_t U) const {
  if (rank() == NQubits)
    return U;
  uint64_t X = 0;
  for (size_t I = 0; U; ++I, U >>= 1)
    if (U & 1)
      X ^= Basis[I];
  return X;
}

uint64_t Sector::zMask(uint64_t ZMask) const {
  if (rank() == NQubits)
    return ZMask;
  uint64_t Z = 0;
  for (size_t I = 0; I < Basis.size(); ++I)
    Z |= uint64_t(__builtin_parityll(ZMask & Basis[I])) << I;
  return Z;
}

TargetPanel::TargetPanel(const StatePanel &Layout, const CVector *Targets)
    : Rows(Layout.rows()), Cols(Layout.numColumns()),
      Stride(Layout.laneStride()), TRe(Rows * Stride, 0.0),
      TImNeg(Rows * Stride, 0.0) {
  assert(Cols > 0 && "empty target panel");
  for (size_t Col = 0; Col < Cols; ++Col)
    assert(Targets[Col].size() == (size_t(1) << Layout.numQubits()) &&
           "target size mismatch");
  for (uint64_t U = 0; U < Rows; ++U) {
    for (size_t Col = 0; Col < Cols; ++Col) {
      const Complex &T = Targets[Col][Layout.basisIndex(Col, U)];
      TRe[size_t(U) * Stride + Col] = T.real();
      TImNeg[size_t(U) * Stride + Col] = -T.imag(); // exact sign flip
    }
  }
}

StatePanel::StatePanel(unsigned NumQubits, const uint64_t *Basis,
                       size_t NumColumns)
    : StatePanel(Sector::full(NumQubits), Basis, NumColumns) {}

StatePanel::StatePanel(unsigned NumQubits, const std::vector<uint64_t> &Basis)
    : StatePanel(NumQubits, Basis.data(), Basis.size()) {}

StatePanel::StatePanel(const Sector &Span, const uint64_t *Basis,
                       size_t NumColumns)
    : Span(Span), Rows(size_t(1) << Span.rank()), Cols(NumColumns),
      Stride((NumColumns + LaneMultiple - 1) & ~(LaneMultiple - 1)),
      Reps(NumColumns), Re(Rows * Stride, 0.0), Im(Rows * Stride, 0.0) {
  assert(Span.numQubits() <= 26 && "statevector too large");
  assert(Stride <= kernels::LaneSineTableSize / 2 &&
         "a run's lane sines must fit one table");
  for (size_t Col = 0; Col < Cols; ++Col) {
    assert(Basis[Col] >> Span.numQubits() == 0 && "basis state out of range");
    Reps[Col] = Span.reduce(Basis[Col]);
    Re[size_t(Span.coords(Basis[Col])) * Stride + Col] = 1.0;
    assert((Reps[Col] == 0 || Col < 64) &&
           "a sector panel has at most 64 columns");
    Flipping |= Reps[Col] != 0;
  }
}

uint64_t StatePanel::laneFlips(uint64_t ZMask) const {
  uint64_t Flips = 0;
  // Columns past 64 sit in the zero coset (constructor), so never flip.
  for (size_t Col = 0; Col < Cols && Col < 64; ++Col)
    Flips |= uint64_t(__builtin_parityll(ZMask & Reps[Col])) << Col;
  return Flips;
}

Complex StatePanel::at(size_t Col, uint64_t X) const {
  assert(Col < Cols && "column out of range");
  if (Span.reduce(X) != Reps[Col])
    return Complex(0.0, 0.0);
  const size_t I = size_t(Span.coords(X)) * Stride + Col;
  return Complex(Re[I], Im[I]);
}

CVector StatePanel::column(size_t Col) const {
  assert(Col < Cols && "column out of range");
  CVector Out(size_t(1) << numQubits(), Complex(0.0, 0.0));
  for (uint64_t U = 0; U < Rows; ++U) {
    const size_t I = size_t(U) * Stride + Col;
    Out[basisIndex(Col, U)] = Complex(Re[I], Im[I]);
  }
  return Out;
}

kernels::RotationStep StatePanel::localStep(const PauliString &P,
                                            double Theta,
                                            uint64_t &XMask) const {
  assert(Span.contains(P.xMask()) && "rotation leaves the panel's sector");
  kernels::RotationStep R = kernels::RotationStep::of(P, Theta);
  R.ZMask = Span.zMask(P.zMask());
  R.LaneFlips = laneFlips(P.zMask());
  XMask = Span.coords(P.xMask());
  return R;
}

void StatePanel::applyPauliExpAll(const PauliString &P, double Theta) {
  assert((P.supportMask() >> numQubits()) == 0 &&
         "Pauli string acts outside the register");
  if (P.isIdentity()) {
    // exp(i Theta I) is the global phase cos + i sin; elementwise over
    // the planes, padding lanes included (they stay zero).
    const Complex Phase =
        Complex(std::cos(Theta), 0.0) + Complex(0.0, std::sin(Theta));
    for (size_t I = 0, E = Re.size(); I < E; ++I) {
      const Complex A(Re[I], Im[I]);
      const Complex N = A * Phase;
      Re[I] = N.real();
      Im[I] = N.imag();
    }
    return;
  }
  // Per-rotation setup — trig, the signed-sine constants — done once here
  // and amortized over every column.
  uint64_t XMask;
  const kernels::RotationStep R = localStep(P, Theta, XMask);
  applyPauliExpRun(XMask, &R, 1);
}

void StatePanel::applyPauliExpRun(uint64_t XMask,
                                  const kernels::RotationStep *Steps,
                                  size_t K) {
  assert(XMask < Rows && "run acts outside the panel's rows");
  kernels::active().PanelExpRunF64(Re.data(), Im.data(), Rows, Stride, XMask,
                                   Steps, K);
}

void StatePanel::applyAll(const Gate &G) {
  assert(isFullLayout() && "gates run on the full layout only");
  const size_t Dim = Rows;
  Complex M[2][2];
  if (detail::singleQubitMatrix(G, M)) {
    assert(G.Qubit0 < numQubits() && "qubit out of range");
    // The identical matrix a standalone StateVector applies.
    const uint64_t Bit = 1ULL << G.Qubit0;
    for (uint64_t Base = 0; Base < Dim; ++Base) {
      if (Base & Bit)
        continue;
      double *Re0 = Re.data() + Base * Stride;
      double *Im0 = Im.data() + Base * Stride;
      double *Re1 = Re.data() + (Base | Bit) * Stride;
      double *Im1 = Im.data() + (Base | Bit) * Stride;
      for (size_t L = 0; L < Stride; ++L) {
        const Complex A0(Re0[L], Im0[L]);
        const Complex A1(Re1[L], Im1[L]);
        const Complex N0 = M[0][0] * A0 + M[0][1] * A1;
        const Complex N1 = M[1][0] * A0 + M[1][1] * A1;
        Re0[L] = N0.real();
        Im0[L] = N0.imag();
        Re1[L] = N1.real();
        Im1[L] = N1.imag();
      }
    }
    return;
  }
  assert(G.Kind == GateKind::CNOT && "invalid GateKind");
  if (G.Kind != GateKind::CNOT)
    return; // release builds: an invalid kind stays a no-op
  const uint64_t CBit = 1ULL << G.Qubit0;
  const uint64_t TBit = 1ULL << G.Qubit1;
  for (uint64_t X = 0; X < Dim; ++X) {
    if (!(X & CBit) || (X & TBit))
      continue;
    double *Re0 = Re.data() + X * Stride;
    double *Im0 = Im.data() + X * Stride;
    double *Re1 = Re.data() + (X | TBit) * Stride;
    double *Im1 = Im.data() + (X | TBit) * Stride;
    for (size_t L = 0; L < Stride; ++L) {
      std::swap(Re0[L], Re1[L]);
      std::swap(Im0[L], Im1[L]);
    }
  }
}

void StatePanel::applyAll(const Circuit &C) {
  assert(C.numQubits() <= numQubits() && "circuit wider than panel");
  for (const Gate &G : C.gates())
    applyAll(G);
}

void StatePanel::applyPauliExpAllFused(const PauliString &P, double Theta,
                                       const TargetPanel &Targets,
                                       Complex *Out) {
  assert(Targets.laneStride() == Stride && Targets.rows() == Rows &&
         Targets.numColumns() == Cols && "target panel shape mismatch");
  const double *WR = Targets.realPlane();
  const double *WI = Targets.negImagPlane();
  if (P.isIdentity()) {
    // The kernels have no identity path; rotate via the global-phase loop
    // and accumulate here with the same per-lane ascending-basis chain
    // the fused kernels run (each op individually rounded), so this path
    // is bit-identical to applyPauliExpAll + overlapWith too.
    applyPauliExpAll(P, Theta);
    for (size_t Col = 0; Col < Cols; ++Col) {
      double AccRe = 0.0, AccIm = 0.0;
      for (uint64_t U = 0; U < Rows; ++U) {
        const size_t I = size_t(U) * Stride + Col;
        AccRe += WR[I] * Re[I] - WI[I] * Im[I];
        AccIm += WR[I] * Im[I] + WI[I] * Re[I];
      }
      Out[Col] = Complex(AccRe, AccIm);
    }
    return;
  }
  uint64_t XMask;
  const kernels::RotationStep R = localStep(P, Theta, XMask);
  // Lane L of the accumulator planes carries column L's overlap chain;
  // padding lanes accumulate zeros against zero targets and are dropped.
  std::vector<double, AlignedAllocator<double, 64>> AccRe(Stride, 0.0);
  std::vector<double, AlignedAllocator<double, 64>> AccIm(Stride, 0.0);
  kernels::active().PanelExpOverlapF64(Re.data(), Im.data(), Rows, Stride,
                                       XMask, R, WR, WI, AccRe.data(),
                                       AccIm.data());
  for (size_t Col = 0; Col < Cols; ++Col)
    Out[Col] = Complex(AccRe[Col], AccIm[Col]);
}

Complex StatePanel::overlapWith(const CVector &Target, size_t Col) const {
  assert(Target.size() == (size_t(1) << numQubits()) &&
         "overlap size mismatch");
  assert(Col < Cols && "column out of range");
  // Ascending rows are ascending basis states (the Sector order lemma).
  Complex S = 0.0;
  for (uint64_t U = 0; U < Rows; ++U) {
    const size_t I = size_t(U) * Stride + Col;
    S += std::conj(Target[basisIndex(Col, U)]) * Complex(Re[I], Im[I]);
  }
  return S;
}
