//===- sim/Kernels.cpp - Scalar reference kernels and dispatch ---------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The scalar tier is the semantic definition of every kernel: the SIMD
// tiers must reproduce its per-element arithmetic bit for bit, zero signs
// included. Each update is the minimal-arithmetic form of the Kernels.h
// contract: kernels::rotate with the per-lane sine of the row's parity
// from the run's lane-sine table, which carries each step's LaneFlips
// (StateVector's butterfly runs the same rotate with the per-row signed
// sine, so one column of a panel and a single-state walk agree). The run
// applies a run's rotations pair by pair, step by step, so each element
// sees the same operation sequence as one sweep per rotation; the fused
// overlap body chains the rotation sweep with the ascending-basis
// accumulation loop of StatePanel::overlapWith, one lane chain per column;
// the grouped product runs PauliOperator::apply's complex expansion on
// every lane; the transport row prefilter tests one entry at a time.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

#include "support/CpuFeatures.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace marqsim;
using marqsim::kernels::RotationStep;

namespace {

//===----------------------------------------------------------------------===//
// Scalar panel kernels (split real/imag planes, row X at [X * Stride])
//===----------------------------------------------------------------------===//

// The sweeps cover the full Stride of every row, padding lanes included —
// padding holds zeros and the updates are elementwise, so the dead lanes
// stay zero (times cos/sin factors) and never leak into live columns.
// This matches the SIMD tiers, which process whole vectors per row.

/// One rotation of the row pair {X, Y} across every lane: row X from
/// partner Y with the lane sines \p SY, row Y from partner X with \p SX.
template <bool KOdd>
void rotatePair(double *ReX, double *ImX, double *ReY, double *ImY,
                size_t Stride, double C, const double *SX, const double *SY) {
  for (size_t L = 0; L < Stride; ++L) {
    const double A0Re = ReX[L], A0Im = ImX[L];
    const double A1Re = ReY[L], A1Im = ImY[L];
    kernels::rotate<KOdd>(C, SY[L], A0Re, A0Im, A1Re, A1Im, ReX[L], ImX[L]);
    kernels::rotate<KOdd>(C, SX[L], A1Re, A1Im, A0Re, A0Im, ReY[L], ImY[L]);
  }
}

/// One piece of a run (kernels::withLaneSines): row u's lane sines for
/// step J are Tab's parity(ZMask & u) row of that step.
void scalarPanelRunPiece(double *Re, double *Im, size_t Dim, size_t Stride,
                         uint64_t XM, const RotationStep *Steps, size_t K,
                         const double *Tab) {
  const auto Sines = [&](size_t J, unsigned Parity) {
    return Tab + (2 * J + Parity) * Stride;
  };
  if (XM == 0) {
    // The diagonal run: each row is its own partner (k = 0).
    for (uint64_t X = 0; X < Dim; ++X) {
      double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
      for (size_t J = 0; J < K; ++J) {
        const double C = Steps[J].Cos;
        const double *S = Sines(J, __builtin_parityll(Steps[J].ZMask & X));
        for (size_t L = 0; L < Stride; ++L)
          kernels::rotate<false>(C, S[L], ReX[L], ImX[L], ReX[L], ImX[L],
                                 ReX[L], ImX[L]);
      }
    }
    return;
  }
  const uint64_t Pivot = XM & (~XM + 1); // lowest set bit of XM
  for (uint64_t X = 0; X < Dim; ++X) {
    if (X & Pivot)
      continue;
    const uint64_t Y = X ^ XM;
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    double *ReY = Re + Y * Stride, *ImY = Im + Y * Stride;
    for (size_t J = 0; J < K; ++J) {
      const RotationStep &R = Steps[J];
      const unsigned PX = __builtin_parityll(R.ZMask & X);
      const double *SX = Sines(J, PX), *SY = Sines(J, PX ^ R.KOdd);
      if (R.KOdd)
        rotatePair<true>(ReX, ImX, ReY, ImY, Stride, R.Cos, SX, SY);
      else
        rotatePair<false>(ReX, ImX, ReY, ImY, Stride, R.Cos, SX, SY);
    }
  }
}

void scalarPanelExpRunF64(double *Re, double *Im, size_t Dim, size_t Stride,
                          uint64_t XM, const RotationStep *Steps, size_t K) {
  kernels::withLaneSines(
      Steps, K, Stride,
      [&](const RotationStep *Piece, size_t N, const double *Tab) {
        scalarPanelRunPiece(Re, Im, Dim, Stride, XM, Piece, N, Tab);
      });
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
                              size_t Stride, uint64_t XM,
                              const RotationStep &R, const double *TRe,
                              const double *TImNeg, double *AccRe,
                              double *AccIm) {
  // Rotation sweep first, then one streaming accumulation pass: the
  // butterfly visits rows in pair order, so accumulating inside it would
  // reorder the per-column chains. Two passes inside one kernel call is
  // still one panel re-read instead of one strided re-read per column.
  scalarPanelExpRunF64(Re, Im, Dim, Stride, XM, &R, 1);
  scalarPanelOverlapAccumF64(Re, Im, Dim, Stride, TRe, TImNeg, AccRe, AccIm);
}

// One X-mask group of the grouped Hamiltonian product, row by row: the
// product of PauliOperator::apply, (d.re*x.re - d.im*x.im,
// d.re*x.im + d.im*x.re), added into the partner row's lanes.
void scalarPanelGroupProductF64(const Complex *D, const double *XRe,
                                const double *XIm, double *YRe, double *YIm,
                                size_t Dim, size_t Stride, uint64_t XM) {
  for (uint64_t U = 0; U < Dim; ++U) {
    const double DRe = D[U].real(), DIm = D[U].imag();
    const double *XR = XRe + U * Stride, *XI = XIm + U * Stride;
    double *YR = YRe + (U ^ XM) * Stride, *YI = YIm + (U ^ XM) * Stride;
    for (size_t L = 0; L < Stride; ++L) {
      YR[L] += DRe * XR[L] - DIm * XI[L];
      YI[L] += DRe * XI[L] + DIm * XR[L];
    }
  }
}

// The transport row prefilter, one entry at a time, each draw bit read
// from its own word, a mask word per 64 entries.
void scalarRowCandidatesI64(const int64_t *Row, const uint64_t *Draws,
                            size_t DrawBit, int64_t Scale, const int64_t *Pot,
                            const int64_t *Dist, int64_t Base, size_t N,
                            uint64_t *Mask) {
  for (size_t J0 = 0; J0 < N; J0 += 64) {
    const size_t End = std::min(N, J0 + 64);
    uint64_t Bits = 0;
    for (size_t J = J0; J < End; ++J) {
      const size_t K = DrawBit + J;
      const bool Drawn = (Draws[K / 64] >> (K % 64)) & 1;
      Bits |= uint64_t(kernels::rowCandidate(Base, Row[J], Drawn, Scale,
                                             Pot[J], Dist[J]))
              << (J - J0);
    }
    Mask[J0 / 64] = Bits;
  }
}

const kernels::Ops ScalarOps = {
    "scalar",
    scalarPanelExpRunF64,
    scalarPanelExpOverlapF64,
    scalarPanelGroupProductF64,
    scalarRowCandidatesI64,
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
