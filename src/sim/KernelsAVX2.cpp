//===- sim/KernelsAVX2.cpp - AVX2 kernel tier --------------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// 256-bit implementations of the dispatched kernels. This translation unit
// is compiled with -mavx2 -mfma (CMake sets the flags per file on x86-64
// hosts whose compiler accepts them); everywhere else the #if below leaves
// only the null stub, so the file builds on every platform.
//
// Bit-identity: every arithmetic intrinsic here is a discrete mul/add/sub
// (or addsub) — never an FMA — and each lane performs exactly the scalar
// reference's expression with the same operand values. IEEE-754 addition
// and multiplication round each operation independently of its neighbours,
// so lanes match the scalar results bit for bit, including zero signs
// (the 0-component products of CosT/ISinT are materialized, not elided).
// The FMA feature bit is still required for dispatch ("avx2-fma") so the
// tier name pins the microarchitecture class benchmarks report.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include "support/CpuFeatures.h"

#include <immintrin.h>

using namespace marqsim;
using marqsim::detail::PauliPhases;

namespace {

//===----------------------------------------------------------------------===//
// Interleaved complex helpers (statevector layout: [re, im] pairs)
//===----------------------------------------------------------------------===//

// w * a for two interleaved complexes per vector, with wr/wi already
// duplicated per lane pair. Scalar semantics per element:
//   re = wr*ar - wi*ai ; im = wr*ai + wi*ar
// t1 = [wr*ar, wr*ai], t2 = [wi*ai, wi*ar]; addsub subtracts in even
// lanes and adds in odd lanes — each lane one rounding, like scalar.
inline __m256d cmulDup(__m256d WrDup, __m256d WiDup, __m256d A) {
  const __m256d T1 = _mm256_mul_pd(WrDup, A);
  const __m256d ASwap = _mm256_permute_pd(A, 0x5); // [ai, ar] per complex
  const __m256d T2 = _mm256_mul_pd(WiDup, ASwap);
  return _mm256_addsub_pd(T1, T2);
}

// Same with a per-complex phase vector [pr0, pi0, pr1, pi1].
inline __m256d cmulVec(__m256d Ph, __m256d A) {
  const __m256d WrDup = _mm256_movedup_pd(Ph);        // [pr0,pr0,pr1,pr1]
  const __m256d WiDup = _mm256_permute_pd(Ph, 0xF);   // [pi0,pi0,pi1,pi1]
  return cmulDup(WrDup, WiDup, A);
}

// Loads the phases of two consecutive basis indices as one vector.
inline __m256d loadPhases(const PauliPhases &Ph, uint64_t X) {
  const __m128d P0 =
      _mm_loadu_pd(reinterpret_cast<const double *>(&Ph.at(X)));
  const __m128d P1 =
      _mm_loadu_pd(reinterpret_cast<const double *>(&Ph.at(X + 1)));
  return _mm256_set_m128d(P1, P0);
}

void avx2ExpButterflyF64(Complex *AmpC, size_t Dim, uint64_t XM, Complex CosT,
                         Complex ISinT, const PauliPhases &Ph) {
  const uint64_t Pivot = XM & (~XM + 1); // lowest set bit of XM
  if (Pivot < 2) {
    // Pivot-0 pairs alternate element by element; the contiguous-run
    // layout below needs runs of at least two complexes, so defer to the
    // (bit-identical) scalar reference.
    kernels::scalarOps().ExpButterflyF64(AmpC, Dim, XM, CosT, ISinT, Ph);
    return;
  }
  double *Amp = reinterpret_cast<double *>(AmpC);
  const __m256d CDup = _mm256_set1_pd(CosT.real());
  const __m256d SDup = _mm256_set1_pd(ISinT.imag());
  const __m256d Zero = _mm256_setzero_pd();
  // X indices without the pivot bit form runs of Pivot consecutive values
  // every 2*Pivot; their partners Y = X ^ XM are consecutive too (XM has
  // no bits below the pivot), so both sides load as whole vectors.
  for (uint64_t Base = 0; Base < Dim; Base += 2 * Pivot) {
    for (uint64_t Off = 0; Off < Pivot; Off += 2) {
      const uint64_t X = Base + Off;
      const uint64_t Y = X ^ XM;
      double *PX = Amp + 2 * X;
      double *PY = Amp + 2 * Y;
      const __m256d A0 = _mm256_load_pd(PX);
      const __m256d A1 = _mm256_load_pd(PY);
      const __m256d PhX = loadPhases(Ph, X);
      const __m256d PhY = loadPhases(Ph, Y);
      // new0 = CosT*A0 + ISinT*(PhY*A1); CosT = (c,0), ISinT = (0,s).
      const __m256d T0 = cmulDup(CDup, Zero, A0);
      const __m256d U0 = cmulDup(Zero, SDup, cmulVec(PhY, A1));
      const __m256d T1 = cmulDup(CDup, Zero, A1);
      const __m256d U1 = cmulDup(Zero, SDup, cmulVec(PhX, A0));
      _mm256_store_pd(PX, _mm256_add_pd(T0, U0));
      _mm256_store_pd(PY, _mm256_add_pd(T1, U1));
    }
  }
}

void avx2ExpDiagonalF64(Complex *AmpC, size_t Dim, Complex CosT, Complex ISinT,
                        const PauliPhases &Ph) {
  if (Dim < 2) {
    kernels::scalarOps().ExpDiagonalF64(AmpC, Dim, CosT, ISinT, Ph);
    return;
  }
  double *Amp = reinterpret_cast<double *>(AmpC);
  const __m256d CDup = _mm256_set1_pd(CosT.real());
  const __m256d SDup = _mm256_set1_pd(ISinT.imag());
  const __m256d Zero = _mm256_setzero_pd();
  for (uint64_t X = 0; X < Dim; X += 2) {
    double *P = Amp + 2 * X;
    const __m256d A = _mm256_load_pd(P);
    const __m256d T = cmulDup(CDup, Zero, A);
    const __m256d U = cmulDup(Zero, SDup, cmulVec(loadPhases(Ph, X), A));
    _mm256_store_pd(P, _mm256_add_pd(T, U));
  }
}

//===----------------------------------------------------------------------===//
// Panel kernels (split planes; a row is Stride contiguous lanes)
//===----------------------------------------------------------------------===//

// SoA complex product pieces, scalar semantics per lane:
//   (w * a).re = wr*ar - wi*ai ; (w * a).im = wr*ai + wi*ar
inline __m256d mulRe(__m256d Wr, __m256d Wi, __m256d Ar, __m256d Ai) {
  return _mm256_sub_pd(_mm256_mul_pd(Wr, Ar), _mm256_mul_pd(Wi, Ai));
}
inline __m256d mulIm(__m256d Wr, __m256d Wi, __m256d Ar, __m256d Ai) {
  return _mm256_add_pd(_mm256_mul_pd(Wr, Ai), _mm256_mul_pd(Wi, Ar));
}

// One panel element update, all lanes of one row chunk:
//   N = CosT * A + ISinT * (PhW * A2)
// where A2 is the partner row (or A itself on the diagonal path).
#define MARQSIM_PANEL_UPDATE(Ar, Ai, Pr, Pi, A2r, A2i, NrOut, NiOut)           \
  do {                                                                         \
    const __m256d Ur = mulRe(Pr, Pi, A2r, A2i);                                \
    const __m256d Ui = mulIm(Pr, Pi, A2r, A2i);                                \
    const __m256d T2r = mulRe(Zero, SDup, Ur, Ui);                             \
    const __m256d T2i = mulIm(Zero, SDup, Ur, Ui);                             \
    const __m256d T1r = mulRe(CDup, Zero, Ar, Ai);                             \
    const __m256d T1i = mulIm(CDup, Zero, Ar, Ai);                             \
    NrOut = _mm256_add_pd(T1r, T2r);                                           \
    NiOut = _mm256_add_pd(T1i, T2i);                                           \
  } while (0)

void avx2PanelExpButterflyF64(double *Re, double *Im, size_t Dim,
                              size_t Stride, uint64_t XM, Complex CosT,
                              Complex ISinT, const PauliPhases &Ph) {
  const uint64_t Pivot = XM & (~XM + 1);
  const __m256d CDup = _mm256_set1_pd(CosT.real());
  const __m256d SDup = _mm256_set1_pd(ISinT.imag());
  const __m256d Zero = _mm256_setzero_pd();
  for (uint64_t X = 0; X < Dim; ++X) {
    if (X & Pivot)
      continue;
    const uint64_t Y = X ^ XM;
    const Complex PhX = Ph.at(X);
    const Complex PhY = Ph.at(Y);
    const __m256d PXr = _mm256_set1_pd(PhX.real());
    const __m256d PXi = _mm256_set1_pd(PhX.imag());
    const __m256d PYr = _mm256_set1_pd(PhY.real());
    const __m256d PYi = _mm256_set1_pd(PhY.imag());
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    double *ReY = Re + Y * Stride, *ImY = Im + Y * Stride;
    for (size_t L = 0; L < Stride; L += 4) {
      const __m256d A0r = _mm256_load_pd(ReX + L);
      const __m256d A0i = _mm256_load_pd(ImX + L);
      const __m256d A1r = _mm256_load_pd(ReY + L);
      const __m256d A1i = _mm256_load_pd(ImY + L);
      __m256d N0r, N0i, N1r, N1i;
      MARQSIM_PANEL_UPDATE(A0r, A0i, PYr, PYi, A1r, A1i, N0r, N0i);
      MARQSIM_PANEL_UPDATE(A1r, A1i, PXr, PXi, A0r, A0i, N1r, N1i);
      _mm256_store_pd(ReX + L, N0r);
      _mm256_store_pd(ImX + L, N0i);
      _mm256_store_pd(ReY + L, N1r);
      _mm256_store_pd(ImY + L, N1i);
    }
  }
}

void avx2PanelExpDiagonalF64(double *Re, double *Im, size_t Dim, size_t Stride,
                             Complex CosT, Complex ISinT,
                             const PauliPhases &Ph) {
  const __m256d CDup = _mm256_set1_pd(CosT.real());
  const __m256d SDup = _mm256_set1_pd(ISinT.imag());
  const __m256d Zero = _mm256_setzero_pd();
  for (uint64_t X = 0; X < Dim; ++X) {
    const Complex PhX = Ph.at(X);
    const __m256d Pr = _mm256_set1_pd(PhX.real());
    const __m256d Pi = _mm256_set1_pd(PhX.imag());
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    for (size_t L = 0; L < Stride; L += 4) {
      const __m256d Ar = _mm256_load_pd(ReX + L);
      const __m256d Ai = _mm256_load_pd(ImX + L);
      __m256d Nr, Ni;
      MARQSIM_PANEL_UPDATE(Ar, Ai, Pr, Pi, Ar, Ai, Nr, Ni);
      _mm256_store_pd(ReX + L, Nr);
      _mm256_store_pd(ImX + L, Ni);
    }
  }
}

//===----------------------------------------------------------------------===//
// Fused final-rotation + overlap kernels
//===----------------------------------------------------------------------===//

// The streaming accumulation pass of the fused kernel: row X's
// contribution lands on every lane's chain before row X+1's, exactly the
// ascending-basis order of StatePanel::overlapWith. Each mulRe/mulIm is
// the discretely-rounded expansion of conj(Target) * Amp with the target
// imaginary plane pre-negated.
void avx2PanelOverlapAccumF64(const double *Re, const double *Im, size_t Dim,
                              size_t Stride, const double *TRe,
                              const double *TImNeg, double *AccRe,
                              double *AccIm) {
  for (uint64_t X = 0; X < Dim; ++X) {
    const double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    const double *WrX = TRe + X * Stride, *WiX = TImNeg + X * Stride;
    for (size_t L = 0; L < Stride; L += 4) {
      const __m256d Ar = _mm256_load_pd(ReX + L);
      const __m256d Ai = _mm256_load_pd(ImX + L);
      const __m256d Wr = _mm256_load_pd(WrX + L);
      const __m256d Wi = _mm256_load_pd(WiX + L);
      const __m256d SumR =
          _mm256_add_pd(_mm256_load_pd(AccRe + L), mulRe(Wr, Wi, Ar, Ai));
      const __m256d SumI =
          _mm256_add_pd(_mm256_load_pd(AccIm + L), mulIm(Wr, Wi, Ar, Ai));
      _mm256_store_pd(AccRe + L, SumR);
      _mm256_store_pd(AccIm + L, SumI);
    }
  }
}

void avx2PanelExpOverlapF64(double *Re, double *Im, size_t Dim, size_t Stride,
                            uint64_t XM, Complex CosT, Complex ISinT,
                            const PauliPhases &Ph, const double *TRe,
                            const double *TImNeg, double *AccRe,
                            double *AccIm) {
  if (XM == 0)
    avx2PanelExpDiagonalF64(Re, Im, Dim, Stride, CosT, ISinT, Ph);
  else
    avx2PanelExpButterflyF64(Re, Im, Dim, Stride, XM, CosT, ISinT, Ph);
  avx2PanelOverlapAccumF64(Re, Im, Dim, Stride, TRe, TImNeg, AccRe, AccIm);
}

const kernels::Ops AVX2Ops = {
    "avx2-fma",
    avx2ExpButterflyF64,
    avx2ExpDiagonalF64,
    avx2PanelExpButterflyF64,
    avx2PanelExpDiagonalF64,
    avx2PanelExpOverlapF64,
};

} // namespace

const kernels::Ops *kernels::detail::avx2Ops() {
  const CpuFeatures &F = cpuFeatures();
  return (F.AVX2 && F.FMA) ? &AVX2Ops : nullptr;
}

#else // !(x86-64 with AVX2+FMA codegen)

const marqsim::kernels::Ops *marqsim::kernels::detail::avx2Ops() {
  return nullptr;
}

#endif
