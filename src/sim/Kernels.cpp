//===- sim/Kernels.cpp - Scalar reference kernels and dispatch ---------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The scalar tier is the semantic definition of every kernel: the SIMD
// tiers must reproduce its per-element arithmetic bit for bit. The
// statevector bodies are the original fused loops of
// StateVector::applyPauliExp, moved here verbatim; the panel bodies are the
// SoA restatement of StatePanel::applyPauliExpAll with identical
// per-element expressions; the fused overlap body chains the rotation
// sweep with the ascending-basis accumulation loop of
// StatePanel::overlapWith, one lane chain per column.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

#include "support/CpuFeatures.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace marqsim;
using marqsim::detail::PauliPhases;

namespace {

//===----------------------------------------------------------------------===//
// Scalar statevector kernels (interleaved complex amplitudes)
//===----------------------------------------------------------------------===//

void scalarExpButterflyF64(Complex *Amp, size_t Dim, uint64_t XM, Complex CosT,
                           Complex ISinT, const PauliPhases &Ph) {
  // Fused butterfly: each {X, X ^ XM} pair is visited once and updated in
  // place with the same per-element arithmetic as the two-pass scratch
  // formulation (cos * psi + i sin * P psi), so results are bit-identical.
  const uint64_t Pivot = XM & (~XM + 1); // lowest set bit of XM
  for (uint64_t X = 0; X < Dim; ++X) {
    if (X & Pivot)
      continue;
    const uint64_t Y = X ^ XM;
    const Complex A0 = Amp[X];
    const Complex A1 = Amp[Y];
    Amp[X] = CosT * A0 + ISinT * (Ph.at(Y) * A1);
    Amp[Y] = CosT * A1 + ISinT * (Ph.at(X) * A0);
  }
}

void scalarExpDiagonalF64(Complex *Amp, size_t Dim, Complex CosT,
                          Complex ISinT, const PauliPhases &Ph) {
  // Diagonal fast path: P|X> = (+/-1)|X>, so each element only needs its
  // own slot. The update keeps the literal two-product expression (rather
  // than one fused factor cos +/- i sin) because a single multiply flips
  // the sign of exact-zero amplitudes when cos(Theta) < 0; this form is
  // bit-identical to the reference kernel including zero signs.
  for (uint64_t X = 0; X < Dim; ++X) {
    const Complex A = Amp[X];
    Amp[X] = CosT * A + ISinT * (Ph.at(X) * A);
  }
}

//===----------------------------------------------------------------------===//
// Scalar panel kernels (split real/imag planes, row X at [X * Stride])
//===----------------------------------------------------------------------===//

// The sweeps cover the full Stride of every row, padding lanes included —
// padding holds zeros and the updates are elementwise, so the dead lanes
// stay zero (times cos/sin factors) and never leak into live columns.
// This matches the SIMD tiers, which process whole vectors per row.

void scalarPanelExpButterflyF64(double *Re, double *Im, size_t Dim,
                                size_t Stride, uint64_t XM, Complex CosT,
                                Complex ISinT, const PauliPhases &Ph) {
  const uint64_t Pivot = XM & (~XM + 1); // lowest set bit of XM
  for (uint64_t X = 0; X < Dim; ++X) {
    if (X & Pivot)
      continue;
    const uint64_t Y = X ^ XM;
    const Complex PhX = Ph.at(X);
    const Complex PhY = Ph.at(Y);
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    double *ReY = Re + Y * Stride, *ImY = Im + Y * Stride;
    for (size_t L = 0; L < Stride; ++L) {
      const Complex A0(ReX[L], ImX[L]);
      const Complex A1(ReY[L], ImY[L]);
      const Complex N0 = CosT * A0 + ISinT * (PhY * A1);
      const Complex N1 = CosT * A1 + ISinT * (PhX * A0);
      ReX[L] = N0.real();
      ImX[L] = N0.imag();
      ReY[L] = N1.real();
      ImY[L] = N1.imag();
    }
  }
}

void scalarPanelExpDiagonalF64(double *Re, double *Im, size_t Dim,
                               size_t Stride, Complex CosT, Complex ISinT,
                               const PauliPhases &Ph) {
  for (uint64_t X = 0; X < Dim; ++X) {
    const Complex PhX = Ph.at(X);
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    for (size_t L = 0; L < Stride; ++L) {
      const Complex A(ReX[L], ImX[L]);
      const Complex N = CosT * A + ISinT * (PhX * A);
      ReX[L] = N.real();
      ImX[L] = N.imag();
    }
  }
}

// The overlap accumulation: lane L of AccRe/AccIm runs column L's chain
// S += conj(Target[X]) * at(Col, X) in ascending basis order. With the
// target's imaginary plane pre-negated (TImNeg = -imag, an exact sign
// flip), conj(T) * A expands to exactly
//   re: TRe*ar - TImNeg*ai ; im: TRe*ai + TImNeg*ar
// with each multiply, the subtract/add, and the accumulate add rounded
// individually — operation for operation the std::complex chain of
// StatePanel::overlapWith.
void scalarPanelOverlapAccumF64(const double *Re, const double *Im,
                                size_t Dim, size_t Stride, const double *TRe,
                                const double *TImNeg, double *AccRe,
                                double *AccIm) {
  for (uint64_t X = 0; X < Dim; ++X) {
    const double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    const double *WR = TRe + X * Stride, *WI = TImNeg + X * Stride;
    for (size_t L = 0; L < Stride; ++L) {
      const double Ar = ReX[L];
      const double Ai = ImX[L];
      AccRe[L] += WR[L] * Ar - WI[L] * Ai;
      AccIm[L] += WR[L] * Ai + WI[L] * Ar;
    }
  }
}

void scalarPanelExpOverlapF64(double *Re, double *Im, size_t Dim,
                              size_t Stride, uint64_t XM, Complex CosT,
                              Complex ISinT, const PauliPhases &Ph,
                              const double *TRe, const double *TImNeg,
                              double *AccRe, double *AccIm) {
  // Rotation sweep first, then one streaming accumulation pass: the
  // butterfly visits rows in pair order, so accumulating inside it would
  // reorder the per-column chains. Two passes inside one kernel call is
  // still one panel re-read instead of one strided re-read per column.
  if (XM == 0)
    scalarPanelExpDiagonalF64(Re, Im, Dim, Stride, CosT, ISinT, Ph);
  else
    scalarPanelExpButterflyF64(Re, Im, Dim, Stride, XM, CosT, ISinT, Ph);
  scalarPanelOverlapAccumF64(Re, Im, Dim, Stride, TRe, TImNeg, AccRe, AccIm);
}

const kernels::Ops ScalarOps = {
    "scalar",
    scalarExpButterflyF64,
    scalarExpDiagonalF64,
    scalarPanelExpButterflyF64,
    scalarPanelExpDiagonalF64,
    scalarPanelExpOverlapF64,
};

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

const kernels::Ops *bestOpsForHost() {
  if (const kernels::Ops *V = kernels::detail::avx512Ops())
    return V;
  if (const kernels::Ops *V = kernels::detail::avx2Ops())
    return V;
  if (const kernels::Ops *V = kernels::detail::neonOps())
    return V;
  return &ScalarOps;
}

[[noreturn]] void failUnknownTier(const std::string &Requested) {
  const CpuFeatures &F = cpuFeatures();
  std::string Have;
  for (const kernels::Ops *T : kernels::availableOps()) {
    if (!Have.empty())
      Have += ", ";
    Have += T->Name;
  }
  std::fprintf(stderr,
               "marqsim: MARQSIM_KERNEL_TIER=%s is not runnable on this host "
               "(available tiers: %s; detected features: avx2=%d fma=%d "
               "avx512f=%d avx512dq=%d avx512-os=%d neon=%d)\n",
               Requested.c_str(), Have.c_str(), F.AVX2, F.FMA, F.AVX512F,
               F.AVX512DQ, F.AVX512OS, F.NEON);
  std::exit(1);
}

/// The default policy: the environment pin when present (fail fast on a
/// tier this host cannot run), else the best tier the CPU supports.
const kernels::Ops *selectFromPolicy() {
  const std::string Pinned = kernels::tierOverrideFromEnv();
  if (!Pinned.empty()) {
    if (const kernels::Ops *T = kernels::findTier(Pinned))
      return T;
    failUnknownTier(Pinned);
  }
  return bestOpsForHost();
}

// The cached selection. Null until the first active() call (or an explicit
// select*); stores are release so the pointed-to table is visible to
// acquire loads on other threads.
std::atomic<const kernels::Ops *> Active{nullptr};

} // namespace

std::string kernels::tierOverrideFromEnv() {
  const char *E = std::getenv("MARQSIM_KERNEL_TIER");
  return E ? E : "";
}

std::vector<const kernels::Ops *> kernels::availableOps() {
  std::vector<const Ops *> Tiers;
  if (const Ops *V = detail::avx512Ops())
    Tiers.push_back(V);
  if (const Ops *V = detail::avx2Ops())
    Tiers.push_back(V);
  if (const Ops *V = detail::neonOps())
    Tiers.push_back(V);
  Tiers.push_back(&ScalarOps);
  return Tiers;
}

const kernels::Ops *kernels::findTier(const std::string &Name) {
  for (const Ops *T : availableOps())
    if (Name == T->Name)
      return T;
  return nullptr;
}

const kernels::Ops &kernels::active() {
  const Ops *K = Active.load(std::memory_order_acquire);
  if (K)
    return *K;
  // First use: apply the default policy. Racing threads compute the same
  // answer, so a benign double-store is fine.
  K = selectFromPolicy();
  Active.store(K, std::memory_order_release);
  return *K;
}

const char *kernels::activeName() { return active().Name; }

const char *kernels::detectedName() { return bestOpsForHost()->Name; }

const kernels::Ops &kernels::scalarOps() { return ScalarOps; }

void kernels::selectTierForTesting(const Ops &Tier) {
  Active.store(&Tier, std::memory_order_release);
}

void kernels::selectAuto() {
  Active.store(selectFromPolicy(), std::memory_order_release);
}
