//===- sim/KernelsNEON.cpp - NEON kernel tier --------------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// AArch64 AdvSIMD implementations of the dispatched kernels: 2 double
// lanes per vector. AdvSIMD is baseline on AArch64, so no
// per-file flags are needed; on other architectures only the null stub is
// compiled.
//
// Bit-identity: only discrete vmul/vadd/vsub intrinsics (no vfma), each
// lane evaluating the scalar reference's exact expression. a - b is
// realized as a + (-b) where the sign flip is an exact XOR — IEEE-754
// defines subtraction as addition of the negated operand, so the lane
// results match scalar bit for bit, zero signs included. The project-wide
// -ffp-contract=off keeps the scalar tier free of fused contractions on
// AArch64 too, so both tiers round identically.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

#if defined(__aarch64__)

#include "support/CpuFeatures.h"

#include <arm_neon.h>

using namespace marqsim;
using marqsim::detail::PauliPhases;

namespace {

//===----------------------------------------------------------------------===//
// Interleaved complex helpers (one complex per float64x2_t: [re, im])
//===----------------------------------------------------------------------===//

// w * a with scalar semantics re = wr*ar - wi*ai, im = wr*ai + wi*ar.
// t1 = [wr*ar, wr*ai]; t2 = [wi*ai, wi*ar]; negate t2's even lane via an
// exact sign-bit XOR, then one rounded add per lane.
inline float64x2_t cmul1(float64x2_t WrDup, float64x2_t WiDup, float64x2_t A) {
  const float64x2_t T1 = vmulq_f64(WrDup, A);
  const float64x2_t ASwap = vextq_f64(A, A, 1); // [ai, ar]
  const float64x2_t T2 = vmulq_f64(WiDup, ASwap);
  const uint64x2_t SignEven = {0x8000000000000000ULL, 0};
  const float64x2_t T2Adj = vreinterpretq_f64_u64(
      veorq_u64(vreinterpretq_u64_f64(T2), SignEven));
  return vaddq_f64(T1, T2Adj);
}

void neonExpButterflyF64(Complex *AmpC, size_t Dim, uint64_t XM, Complex CosT,
                         Complex ISinT, const PauliPhases &Ph) {
  double *Amp = reinterpret_cast<double *>(AmpC);
  const float64x2_t CDup = vdupq_n_f64(CosT.real());
  const float64x2_t SDup = vdupq_n_f64(ISinT.imag());
  const float64x2_t Zero = vdupq_n_f64(0.0);
  const uint64_t Pivot = XM & (~XM + 1); // lowest set bit of XM
  for (uint64_t X = 0; X < Dim; ++X) {
    if (X & Pivot)
      continue;
    const uint64_t Y = X ^ XM;
    const float64x2_t A0 = vld1q_f64(Amp + 2 * X);
    const float64x2_t A1 = vld1q_f64(Amp + 2 * Y);
    const float64x2_t PhX =
        vld1q_f64(reinterpret_cast<const double *>(&Ph.at(X)));
    const float64x2_t PhY =
        vld1q_f64(reinterpret_cast<const double *>(&Ph.at(Y)));
    // new0 = CosT*A0 + ISinT*(PhY*A1); CosT = (c,0), ISinT = (0,s).
    const float64x2_t U0 =
        cmul1(Zero, SDup, cmul1(vdupq_laneq_f64(PhY, 0),
                                vdupq_laneq_f64(PhY, 1), A1));
    const float64x2_t U1 =
        cmul1(Zero, SDup, cmul1(vdupq_laneq_f64(PhX, 0),
                                vdupq_laneq_f64(PhX, 1), A0));
    vst1q_f64(Amp + 2 * X, vaddq_f64(cmul1(CDup, Zero, A0), U0));
    vst1q_f64(Amp + 2 * Y, vaddq_f64(cmul1(CDup, Zero, A1), U1));
  }
}

void neonExpDiagonalF64(Complex *AmpC, size_t Dim, Complex CosT, Complex ISinT,
                        const PauliPhases &Ph) {
  double *Amp = reinterpret_cast<double *>(AmpC);
  const float64x2_t CDup = vdupq_n_f64(CosT.real());
  const float64x2_t SDup = vdupq_n_f64(ISinT.imag());
  const float64x2_t Zero = vdupq_n_f64(0.0);
  for (uint64_t X = 0; X < Dim; ++X) {
    const float64x2_t A = vld1q_f64(Amp + 2 * X);
    const float64x2_t PhX =
        vld1q_f64(reinterpret_cast<const double *>(&Ph.at(X)));
    const float64x2_t U = cmul1(
        Zero, SDup,
        cmul1(vdupq_laneq_f64(PhX, 0), vdupq_laneq_f64(PhX, 1), A));
    vst1q_f64(Amp + 2 * X, vaddq_f64(cmul1(CDup, Zero, A), U));
  }
}

//===----------------------------------------------------------------------===//
// Panel kernels (split planes; a row is Stride contiguous lanes)
//===----------------------------------------------------------------------===//

inline float64x2_t mulRe(float64x2_t Wr, float64x2_t Wi, float64x2_t Ar,
                         float64x2_t Ai) {
  return vsubq_f64(vmulq_f64(Wr, Ar), vmulq_f64(Wi, Ai));
}
inline float64x2_t mulIm(float64x2_t Wr, float64x2_t Wi, float64x2_t Ar,
                         float64x2_t Ai) {
  return vaddq_f64(vmulq_f64(Wr, Ai), vmulq_f64(Wi, Ar));
}

// One panel element update over one row chunk: N = CosT*A + ISinT*(P*A2).
#define MARQSIM_PANEL_UPDATE(Ar, Ai, Pr, Pi, A2r, A2i, NrOut, NiOut)           \
  do {                                                                         \
    const float64x2_t Ur = mulRe(Pr, Pi, A2r, A2i);                            \
    const float64x2_t Ui = mulIm(Pr, Pi, A2r, A2i);                            \
    const float64x2_t T2r = mulRe(Zero, SDup, Ur, Ui);                         \
    const float64x2_t T2i = mulIm(Zero, SDup, Ur, Ui);                         \
    const float64x2_t T1r = mulRe(CDup, Zero, Ar, Ai);                         \
    const float64x2_t T1i = mulIm(CDup, Zero, Ar, Ai);                         \
    NrOut = vaddq_f64(T1r, T2r);                                               \
    NiOut = vaddq_f64(T1i, T2i);                                               \
  } while (0)

void neonPanelExpButterflyF64(double *Re, double *Im, size_t Dim,
                              size_t Stride, uint64_t XM, Complex CosT,
                              Complex ISinT, const PauliPhases &Ph) {
  const uint64_t Pivot = XM & (~XM + 1);
  const float64x2_t CDup = vdupq_n_f64(CosT.real());
  const float64x2_t SDup = vdupq_n_f64(ISinT.imag());
  const float64x2_t Zero = vdupq_n_f64(0.0);
  for (uint64_t X = 0; X < Dim; ++X) {
    if (X & Pivot)
      continue;
    const uint64_t Y = X ^ XM;
    const Complex PhX = Ph.at(X);
    const Complex PhY = Ph.at(Y);
    const float64x2_t PXr = vdupq_n_f64(PhX.real());
    const float64x2_t PXi = vdupq_n_f64(PhX.imag());
    const float64x2_t PYr = vdupq_n_f64(PhY.real());
    const float64x2_t PYi = vdupq_n_f64(PhY.imag());
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    double *ReY = Re + Y * Stride, *ImY = Im + Y * Stride;
    for (size_t L = 0; L < Stride; L += 2) {
      const float64x2_t A0r = vld1q_f64(ReX + L);
      const float64x2_t A0i = vld1q_f64(ImX + L);
      const float64x2_t A1r = vld1q_f64(ReY + L);
      const float64x2_t A1i = vld1q_f64(ImY + L);
      float64x2_t N0r, N0i, N1r, N1i;
      MARQSIM_PANEL_UPDATE(A0r, A0i, PYr, PYi, A1r, A1i, N0r, N0i);
      MARQSIM_PANEL_UPDATE(A1r, A1i, PXr, PXi, A0r, A0i, N1r, N1i);
      vst1q_f64(ReX + L, N0r);
      vst1q_f64(ImX + L, N0i);
      vst1q_f64(ReY + L, N1r);
      vst1q_f64(ImY + L, N1i);
    }
  }
}

void neonPanelExpDiagonalF64(double *Re, double *Im, size_t Dim, size_t Stride,
                             Complex CosT, Complex ISinT,
                             const PauliPhases &Ph) {
  const float64x2_t CDup = vdupq_n_f64(CosT.real());
  const float64x2_t SDup = vdupq_n_f64(ISinT.imag());
  const float64x2_t Zero = vdupq_n_f64(0.0);
  for (uint64_t X = 0; X < Dim; ++X) {
    const Complex PhX = Ph.at(X);
    const float64x2_t Pr = vdupq_n_f64(PhX.real());
    const float64x2_t Pi = vdupq_n_f64(PhX.imag());
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    for (size_t L = 0; L < Stride; L += 2) {
      const float64x2_t Ar = vld1q_f64(ReX + L);
      const float64x2_t Ai = vld1q_f64(ImX + L);
      float64x2_t Nr, Ni;
      MARQSIM_PANEL_UPDATE(Ar, Ai, Pr, Pi, Ar, Ai, Nr, Ni);
      vst1q_f64(ReX + L, Nr);
      vst1q_f64(ImX + L, Ni);
    }
  }
}

//===----------------------------------------------------------------------===//
// Fused final-rotation + overlap kernels
//===----------------------------------------------------------------------===//

// Streaming accumulation pass: row X lands on every lane's chain before
// row X+1, the ascending-basis order of StatePanel::overlapWith. Targets
// carry a pre-negated imaginary plane, so each lane is the discretely
// rounded conj(Target) * Amp expansion.
void neonPanelOverlapAccumF64(const double *Re, const double *Im, size_t Dim,
                              size_t Stride, const double *TRe,
                              const double *TImNeg, double *AccRe,
                              double *AccIm) {
  for (uint64_t X = 0; X < Dim; ++X) {
    const double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    const double *WrX = TRe + X * Stride, *WiX = TImNeg + X * Stride;
    for (size_t L = 0; L < Stride; L += 2) {
      const float64x2_t Ar = vld1q_f64(ReX + L);
      const float64x2_t Ai = vld1q_f64(ImX + L);
      const float64x2_t Wr = vld1q_f64(WrX + L);
      const float64x2_t Wi = vld1q_f64(WiX + L);
      vst1q_f64(AccRe + L,
                vaddq_f64(vld1q_f64(AccRe + L), mulRe(Wr, Wi, Ar, Ai)));
      vst1q_f64(AccIm + L,
                vaddq_f64(vld1q_f64(AccIm + L), mulIm(Wr, Wi, Ar, Ai)));
    }
  }
}

void neonPanelExpOverlapF64(double *Re, double *Im, size_t Dim, size_t Stride,
                            uint64_t XM, Complex CosT, Complex ISinT,
                            const PauliPhases &Ph, const double *TRe,
                            const double *TImNeg, double *AccRe,
                            double *AccIm) {
  if (XM == 0)
    neonPanelExpDiagonalF64(Re, Im, Dim, Stride, CosT, ISinT, Ph);
  else
    neonPanelExpButterflyF64(Re, Im, Dim, Stride, XM, CosT, ISinT, Ph);
  neonPanelOverlapAccumF64(Re, Im, Dim, Stride, TRe, TImNeg, AccRe, AccIm);
}

const kernels::Ops NEONOps = {
    "neon",
    neonExpButterflyF64,
    neonExpDiagonalF64,
    neonPanelExpButterflyF64,
    neonPanelExpDiagonalF64,
    neonPanelExpOverlapF64,
};

} // namespace

const kernels::Ops *kernels::detail::neonOps() {
  return cpuFeatures().NEON ? &NEONOps : nullptr;
}

#else // !__aarch64__

const marqsim::kernels::Ops *marqsim::kernels::detail::neonOps() {
  return nullptr;
}

#endif
