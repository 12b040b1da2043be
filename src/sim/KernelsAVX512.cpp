//===- sim/KernelsAVX512.cpp - AVX-512 kernel tier ---------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// 512-bit implementations of the panel kernels: 8 double lanes per
// vector. The translation unit is compiled with -mavx512f -mavx512dq (CMake
// sets the flags per file on x86-64 hosts whose compiler accepts them);
// everywhere else the #if below leaves only the null stub. Dispatch
// additionally requires the OS XSAVE state (CpuFeatures::AVX512OS) so ZMM
// registers are actually preserved across context switches.
//
// The interleaved single-statevector walk (the width-1 fidelity block)
// reuses the AVX2 tier's kernels. A 512-bit walk has to gather four
// per-element phases into one vector through a stack buffer; it measured
// 2.0-2.3x slower than the AVX2 walk, which loads two phases straight from
// the table (10-16 qubits, 4-vCPU AVX-512 host).
//
// Bit-identity: every arithmetic intrinsic is a discrete mul/add/sub,
// never an FMA, each lane evaluating the scalar reference's exact
// expression on the same operand values, zero signs included.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

#if defined(__x86_64__) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include "support/CpuFeatures.h"

#include <immintrin.h>

using namespace marqsim;
using marqsim::detail::PauliPhases;

namespace {

/// The interleaved walk's tier: the next one down the precedence chain,
/// which keeps its own short-run fallbacks — every path ends at the
/// scalar reference, and every hop is bit-identical.
const kernels::Ops &fallbackOps() {
  if (const kernels::Ops *V = kernels::detail::avx2Ops())
    return *V;
  return kernels::scalarOps();
}

void avx512ExpButterflyF64(Complex *Amp, size_t Dim, uint64_t XM,
                           Complex CosT, Complex ISinT,
                           const PauliPhases &Ph) {
  fallbackOps().ExpButterflyF64(Amp, Dim, XM, CosT, ISinT, Ph);
}

void avx512ExpDiagonalF64(Complex *Amp, size_t Dim, Complex CosT,
                          Complex ISinT, const PauliPhases &Ph) {
  fallbackOps().ExpDiagonalF64(Amp, Dim, CosT, ISinT, Ph);
}

//===----------------------------------------------------------------------===//
// Panel kernels (split planes; a row is Stride contiguous lanes)
//===----------------------------------------------------------------------===//

// SoA complex product pieces, scalar semantics per lane:
//   (w * a).re = wr*ar - wi*ai ; (w * a).im = wr*ai + wi*ar
inline __m512d mulRe(__m512d Wr, __m512d Wi, __m512d Ar, __m512d Ai) {
  return _mm512_sub_pd(_mm512_mul_pd(Wr, Ar), _mm512_mul_pd(Wi, Ai));
}
inline __m512d mulIm(__m512d Wr, __m512d Wi, __m512d Ar, __m512d Ai) {
  return _mm512_add_pd(_mm512_mul_pd(Wr, Ai), _mm512_mul_pd(Wi, Ar));
}

// One panel element update over one row chunk: N = CosT*A + ISinT*(P*A2).
#define MARQSIM_PANEL_UPDATE(Ar, Ai, Pr, Pi, A2r, A2i, NrOut, NiOut)           \
  do {                                                                         \
    const __m512d Ur = mulRe(Pr, Pi, A2r, A2i);                                \
    const __m512d Ui = mulIm(Pr, Pi, A2r, A2i);                                \
    const __m512d T2r = mulRe(Zero, SDup, Ur, Ui);                             \
    const __m512d T2i = mulIm(Zero, SDup, Ur, Ui);                             \
    const __m512d T1r = mulRe(CDup, Zero, Ar, Ai);                             \
    const __m512d T1i = mulIm(CDup, Zero, Ar, Ai);                             \
    NrOut = _mm512_add_pd(T1r, T2r);                                           \
    NiOut = _mm512_add_pd(T1i, T2i);                                           \
  } while (0)

void avx512PanelExpButterflyF64(double *Re, double *Im, size_t Dim,
                                size_t Stride, uint64_t XM, Complex CosT,
                                Complex ISinT, const PauliPhases &Ph) {
  const uint64_t Pivot = XM & (~XM + 1);
  const __m512d CDup = _mm512_set1_pd(CosT.real());
  const __m512d SDup = _mm512_set1_pd(ISinT.imag());
  const __m512d Zero = _mm512_setzero_pd();
  for (uint64_t X = 0; X < Dim; ++X) {
    if (X & Pivot)
      continue;
    const uint64_t Y = X ^ XM;
    const Complex PhX = Ph.at(X);
    const Complex PhY = Ph.at(Y);
    const __m512d PXr = _mm512_set1_pd(PhX.real());
    const __m512d PXi = _mm512_set1_pd(PhX.imag());
    const __m512d PYr = _mm512_set1_pd(PhY.real());
    const __m512d PYi = _mm512_set1_pd(PhY.imag());
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    double *ReY = Re + Y * Stride, *ImY = Im + Y * Stride;
    for (size_t L = 0; L < Stride; L += 8) {
      const __m512d A0r = _mm512_load_pd(ReX + L);
      const __m512d A0i = _mm512_load_pd(ImX + L);
      const __m512d A1r = _mm512_load_pd(ReY + L);
      const __m512d A1i = _mm512_load_pd(ImY + L);
      __m512d N0r, N0i, N1r, N1i;
      MARQSIM_PANEL_UPDATE(A0r, A0i, PYr, PYi, A1r, A1i, N0r, N0i);
      MARQSIM_PANEL_UPDATE(A1r, A1i, PXr, PXi, A0r, A0i, N1r, N1i);
      _mm512_store_pd(ReX + L, N0r);
      _mm512_store_pd(ImX + L, N0i);
      _mm512_store_pd(ReY + L, N1r);
      _mm512_store_pd(ImY + L, N1i);
    }
  }
}

void avx512PanelExpDiagonalF64(double *Re, double *Im, size_t Dim,
                               size_t Stride, Complex CosT, Complex ISinT,
                               const PauliPhases &Ph) {
  const __m512d CDup = _mm512_set1_pd(CosT.real());
  const __m512d SDup = _mm512_set1_pd(ISinT.imag());
  const __m512d Zero = _mm512_setzero_pd();
  for (uint64_t X = 0; X < Dim; ++X) {
    const Complex PhX = Ph.at(X);
    const __m512d Pr = _mm512_set1_pd(PhX.real());
    const __m512d Pi = _mm512_set1_pd(PhX.imag());
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    for (size_t L = 0; L < Stride; L += 8) {
      const __m512d Ar = _mm512_load_pd(ReX + L);
      const __m512d Ai = _mm512_load_pd(ImX + L);
      __m512d Nr, Ni;
      MARQSIM_PANEL_UPDATE(Ar, Ai, Pr, Pi, Ar, Ai, Nr, Ni);
      _mm512_store_pd(ReX + L, Nr);
      _mm512_store_pd(ImX + L, Ni);
    }
  }
}

//===----------------------------------------------------------------------===//
// Fused final-rotation + overlap kernels
//===----------------------------------------------------------------------===//

// Streaming accumulation pass: row X's contribution lands on every lane's
// chain before row X+1's — the ascending-basis order of overlapWith. The
// target imaginary plane is pre-negated, so each lane is the discretely
// rounded conj(Target) * Amp expansion.
void avx512PanelOverlapAccumF64(const double *Re, const double *Im, size_t Dim,
                                size_t Stride, const double *TRe,
                                const double *TImNeg, double *AccRe,
                                double *AccIm) {
  for (uint64_t X = 0; X < Dim; ++X) {
    const double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    const double *WrX = TRe + X * Stride, *WiX = TImNeg + X * Stride;
    for (size_t L = 0; L < Stride; L += 8) {
      const __m512d Ar = _mm512_load_pd(ReX + L);
      const __m512d Ai = _mm512_load_pd(ImX + L);
      const __m512d Wr = _mm512_load_pd(WrX + L);
      const __m512d Wi = _mm512_load_pd(WiX + L);
      _mm512_store_pd(AccRe + L, _mm512_add_pd(_mm512_load_pd(AccRe + L),
                                               mulRe(Wr, Wi, Ar, Ai)));
      _mm512_store_pd(AccIm + L, _mm512_add_pd(_mm512_load_pd(AccIm + L),
                                               mulIm(Wr, Wi, Ar, Ai)));
    }
  }
}

void avx512PanelExpOverlapF64(double *Re, double *Im, size_t Dim,
                              size_t Stride, uint64_t XM, Complex CosT,
                              Complex ISinT, const PauliPhases &Ph,
                              const double *TRe, const double *TImNeg,
                              double *AccRe, double *AccIm) {
  if (XM == 0)
    avx512PanelExpDiagonalF64(Re, Im, Dim, Stride, CosT, ISinT, Ph);
  else
    avx512PanelExpButterflyF64(Re, Im, Dim, Stride, XM, CosT, ISinT, Ph);
  avx512PanelOverlapAccumF64(Re, Im, Dim, Stride, TRe, TImNeg, AccRe, AccIm);
}

const kernels::Ops AVX512Ops = {
    "avx512",
    avx512ExpButterflyF64,
    avx512ExpDiagonalF64,
    avx512PanelExpButterflyF64,
    avx512PanelExpDiagonalF64,
    avx512PanelExpOverlapF64,
};

} // namespace

const kernels::Ops *kernels::detail::avx512Ops() {
  const CpuFeatures &F = cpuFeatures();
  return (F.AVX512F && F.AVX512DQ && F.AVX512OS) ? &AVX512Ops : nullptr;
}

#else // !(x86-64 with AVX-512F/DQ codegen)

const marqsim::kernels::Ops *marqsim::kernels::detail::avx512Ops() {
  return nullptr;
}

#endif
