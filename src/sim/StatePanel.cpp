//===- sim/StatePanel.cpp - Multi-column statevector panel -------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/StatePanel.h"

#include "sim/Kernels.h"

#include <cmath>

using namespace marqsim;

TargetPanel::TargetPanel(const CVector *Targets, size_t Count, size_t Stride)
    : Dim(Count ? Targets[0].size() : 0), Cols(Count), Stride(Stride),
      TRe(Dim * Stride, 0.0), TImNeg(Dim * Stride, 0.0) {
  assert(Count > 0 && Stride >= Count && "bad target panel shape");
  for (size_t Col = 0; Col < Cols; ++Col) {
    assert(Targets[Col].size() == Dim && "target size mismatch");
    for (uint64_t X = 0; X < Dim; ++X) {
      const Complex &T = Targets[Col][X];
      TRe[size_t(X) * Stride + Col] = T.real();
      TImNeg[size_t(X) * Stride + Col] = -T.imag(); // exact sign flip
    }
  }
}

StatePanel::StatePanel(unsigned NumQubits, const uint64_t *Basis,
                       size_t NumColumns)
    : NQubits(NumQubits), Dim(size_t(1) << NumQubits), Cols(NumColumns),
      Stride((NumColumns + LaneMultiple - 1) & ~(LaneMultiple - 1)),
      Re(Dim * Stride, 0.0), Im(Dim * Stride, 0.0) {
  assert(NumQubits <= 26 && "statevector too large");
  for (size_t Col = 0; Col < Cols; ++Col) {
    assert(Basis[Col] < Dim && "basis state out of range");
    Re[size_t(Basis[Col]) * Stride + Col] = 1.0;
  }
}

StatePanel::StatePanel(unsigned NumQubits, const std::vector<uint64_t> &Basis)
    : StatePanel(NumQubits, Basis.data(), Basis.size()) {}

CVector StatePanel::column(size_t Col) const {
  assert(Col < Cols && "column out of range");
  CVector Out(Dim);
  for (uint64_t X = 0; X < Dim; ++X)
    Out[X] = at(Col, X);
  return Out;
}

void StatePanel::applyPauliExpAll(const PauliString &P, double Theta) {
  assert((P.supportMask() >> NQubits) == 0 &&
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
  const kernels::RotationStep R = kernels::RotationStep::of(P, Theta);
  applyPauliExpRun(P.xMask(), &R, 1);
}

void StatePanel::applyPauliExpRun(uint64_t XMask,
                                  const kernels::RotationStep *Steps,
                                  size_t K) {
  assert((XMask >> NQubits) == 0 && "run acts outside the register");
  kernels::active().PanelExpRunF64(Re.data(), Im.data(), Dim, Stride, XMask,
                                   Steps, K);
}

void StatePanel::applyAll(const Gate &G) {
  Complex M[2][2];
  if (detail::singleQubitMatrix(G, M)) {
    assert(G.Qubit0 < NQubits && "qubit out of range");
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
  assert(C.numQubits() <= NQubits && "circuit wider than panel");
  for (const Gate &G : C.gates())
    applyAll(G);
}

void StatePanel::applyPauliExpAllFused(const PauliString &P, double Theta,
                                       const TargetPanel &Targets,
                                       Complex *Out) {
  assert(Targets.laneStride() == Stride && Targets.dim() == Dim &&
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
      for (uint64_t X = 0; X < Dim; ++X) {
        const size_t I = size_t(X) * Stride + Col;
        AccRe += WR[I] * Re[I] - WI[I] * Im[I];
        AccIm += WR[I] * Im[I] + WI[I] * Re[I];
      }
      Out[Col] = Complex(AccRe, AccIm);
    }
    return;
  }
  const kernels::RotationStep R = kernels::RotationStep::of(P, Theta);
  // Lane L of the accumulator planes carries column L's overlap chain;
  // padding lanes accumulate zeros against zero targets and are dropped.
  std::vector<double, AlignedAllocator<double, 64>> AccRe(Stride, 0.0);
  std::vector<double, AlignedAllocator<double, 64>> AccIm(Stride, 0.0);
  kernels::active().PanelExpOverlapF64(Re.data(), Im.data(), Dim, Stride,
                                       P.xMask(), R, WR, WI, AccRe.data(),
                                       AccIm.data());
  for (size_t Col = 0; Col < Cols; ++Col)
    Out[Col] = Complex(AccRe[Col], AccIm[Col]);
}

Complex StatePanel::overlapWith(const CVector &Target, size_t Col) const {
  assert(Target.size() == Dim && "overlap size mismatch");
  assert(Col < Cols && "column out of range");
  Complex S = 0.0;
  for (uint64_t X = 0; X < Dim; ++X)
    S += std::conj(Target[X]) * at(Col, X);
  return S;
}
