//===- sim/KernelsSimd.h - Shared vector-extension kernel body --*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one body of every vector kernel tier, written with GCC/Clang vector
/// extensions and templated on the vector width in doubles: the interleaved
/// single-statevector walk at WalkW (2 or 4: one or two complexes per
/// vector), the panel sweeps at PanelW (2, 4 or 8 lanes). Each tier file
/// includes it under its ISA guard, compiles it with its own per-file ISA
/// flags, and instantiates one table with makeOps<WalkW, PanelW>().
///
/// Bit-identity: every vector operator below is one IEEE-754 operation per
/// lane, rounded on its own, on the operand values the scalar reference
/// uses; the build's -ffp-contract=off means no FMA is ever emitted. So
/// each lane reproduces the scalar expression bit for bit, zero signs
/// included — which is why broadcasts are written x - V{} (exact for -0)
/// and never V{} + x (which turns -0 into +0).
///
/// Everything here has internal linkage (an unnamed namespace): each tier's
/// translation unit owns its own ISA-specific copy, and the linker can
/// never merge one tier's instantiation into another's table.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_KERNELSSIMD_H
#define MARQSIM_SIM_KERNELSSIMD_H

#include "sim/Kernels.h"

namespace marqsim {
namespace kernels {
namespace {
namespace simd {

using marqsim::detail::PauliPhases;

template <unsigned W> struct VecOf {
  typedef double Type __attribute__((vector_size(W * sizeof(double))));
};
template <unsigned W> using Vec = typename VecOf<W>::Type;

// Whole-vector moves through a copy of V that may sit at any double's
// address and may alias double, the idiom of the intrinsics' unaligned
// loads. A memcpy here, or phases built from scalars, made the 4-wide walk
// 3-6% slower (4-vCPU AVX-512 host).
template <class V> struct Unaligned {
  typedef V Type __attribute__((aligned(sizeof(double)), may_alias));
};
template <class V> inline V load(const double *P) {
  return *reinterpret_cast<const typename Unaligned<V>::Type *>(P);
}
template <class V> inline void store(double *P, V X) {
  *reinterpret_cast<typename Unaligned<V>::Type *>(P) = X;
}

/// Complex values as two vectors, real parts and imaginary parts. On split
/// planes (Cx * Cx) the lanes are independent complexes; as the multiplier
/// of an interleaved vector (Cx * V) each part is duplicated across the
/// [re, im] pair it multiplies.
template <class V> struct Cx {
  V Re, Im;
};

// x - 0 is x for every x, -0 included.
template <class V> inline Cx<V> splat(Complex Z) {
  return {Z.real() - V{}, Z.imag() - V{}};
}

/// CosT = (c, 0) and ISinT = (0, s), as the Ops contract fixes. The two
/// zero parts share one zero vector, which keeps the 4-wide panel loop
/// within AVX2's 16 registers.
template <class V> struct Rotation {
  Cx<V> C, S;
  Rotation(Complex CosT, Complex ISinT)
      : C{CosT.real() - V{}, V{}}, S{V{}, ISinT.imag() - V{}} {}
};

// std::complex's expansion: re = wr*ar - wi*ai ; im = wr*ai + wi*ar.
template <class V> inline Cx<V> operator*(Cx<V> W, Cx<V> A) {
  return {W.Re * A.Re - W.Im * A.Im, W.Re * A.Im + W.Im * A.Re};
}
template <class V> inline Cx<V> operator+(Cx<V> A, Cx<V> B) {
  return {A.Re + B.Re, A.Im + B.Im};
}

// The same expansion on interleaved [re, im] pairs: t1 = [wr*ar, wr*ai],
// t2 = [wi*ai, wi*ar]; even lanes take t1 - t2, odd lanes t1 + t2. GCC
// lowers the width-4 shuffle to vaddsubpd, still one rounding per lane.
template <class V> inline V operator*(Cx<V> W, V A) {
  constexpr unsigned N = sizeof(V) / sizeof(double);
  static_assert(N == 2 || N == 4, "the walk runs at width 2 or 4");
  if constexpr (N == 2) {
    const V T1 = W.Re * A, T2 = W.Im * __builtin_shufflevector(A, A, 1, 0);
    return __builtin_shufflevector(T1 - T2, T1 + T2, 0, 3);
  } else {
    const V T1 = W.Re * A,
            T2 = W.Im * __builtin_shufflevector(A, A, 1, 0, 3, 2);
    return __builtin_shufflevector(T1 - T2, T1 + T2, 0, 5, 2, 7);
  }
}

// The phases of V's complexes (basis indices X, X+1, ...), duplicated per
// pair: one 2-wide load per phase, joined in pairs at width 4.
template <class V> inline Cx<V> phasesAt(const PauliPhases &Ph, uint64_t X) {
  using V2 = Vec<2>;
  const V2 P0 = load<V2>(reinterpret_cast<const double *>(&Ph.at(X)));
  if constexpr (sizeof(V) == sizeof(V2)) {
    return {__builtin_shufflevector(P0, P0, 0, 0),
            __builtin_shufflevector(P0, P0, 1, 1)};
  } else {
    const V2 P1 = load<V2>(reinterpret_cast<const double *>(&Ph.at(X + 1)));
    return {__builtin_shufflevector(P0, P1, 0, 0, 2, 2),
            __builtin_shufflevector(P0, P1, 1, 1, 3, 3)};
  }
}

//===----------------------------------------------------------------------===//
// Interleaved statevector walk
//===----------------------------------------------------------------------===//

template <unsigned W>
void expButterfly(Complex *AmpC, size_t Dim, uint64_t XM, Complex CosT,
                  Complex ISinT, const PauliPhases &Ph) {
  using V = Vec<W>;
  constexpr uint64_t Run = W / 2; // complexes per vector
  const uint64_t Pivot = XM & (~XM + 1); // lowest set bit of XM
  if (Pivot < Run) {
    // Pivot runs narrower than a vector alternate inside it; the
    // (bit-identical) scalar reference handles them.
    scalarOps().ExpButterflyF64(AmpC, Dim, XM, CosT, ISinT, Ph);
    return;
  }
  double *Amp = reinterpret_cast<double *>(AmpC);
  const Rotation<V> R(CosT, ISinT);
  // X indices without the pivot bit form runs of Pivot consecutive values
  // every 2*Pivot; their partners Y = X ^ XM are consecutive too (XM has
  // no bits below the pivot), so both sides load as whole vectors.
  for (uint64_t Base = 0; Base < Dim; Base += 2 * Pivot) {
    for (uint64_t X = Base; X < Base + Pivot; X += Run) {
      const uint64_t Y = X ^ XM;
      const V A0 = load<V>(Amp + 2 * X), A1 = load<V>(Amp + 2 * Y);
      store(Amp + 2 * X, R.C * A0 + R.S * (phasesAt<V>(Ph, Y) * A1));
      store(Amp + 2 * Y, R.C * A1 + R.S * (phasesAt<V>(Ph, X) * A0));
    }
  }
}

template <unsigned W>
void expDiagonal(Complex *AmpC, size_t Dim, Complex CosT, Complex ISinT,
                 const PauliPhases &Ph) {
  using V = Vec<W>;
  if (Dim < W / 2) {
    scalarOps().ExpDiagonalF64(AmpC, Dim, CosT, ISinT, Ph);
    return;
  }
  double *Amp = reinterpret_cast<double *>(AmpC);
  const Rotation<V> R(CosT, ISinT);
  for (uint64_t X = 0; X < Dim; X += W / 2) {
    const V A = load<V>(Amp + 2 * X);
    store(Amp + 2 * X, R.C * A + R.S * (phasesAt<V>(Ph, X) * A));
  }
}

//===----------------------------------------------------------------------===//
// Panel sweeps (split planes; a row is Stride contiguous lanes)
//===----------------------------------------------------------------------===//

template <class V> inline Cx<V> loadRow(const double *Re, const double *Im) {
  return {load<V>(Re), load<V>(Im)};
}
template <class V> inline void storeRow(double *Re, double *Im, Cx<V> A) {
  store(Re, A.Re);
  store(Im, A.Im);
}

template <unsigned W>
void panelButterfly(double *Re, double *Im, size_t Dim, size_t Stride,
                    uint64_t XM, Complex CosT, Complex ISinT,
                    const PauliPhases &Ph) {
  using V = Vec<W>;
  const uint64_t Pivot = XM & (~XM + 1);
  const Rotation<V> R(CosT, ISinT);
  for (uint64_t X = 0; X < Dim; ++X) {
    if (X & Pivot)
      continue;
    const uint64_t Y = X ^ XM;
    const Cx<V> PhX = splat<V>(Ph.at(X)), PhY = splat<V>(Ph.at(Y));
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    double *ReY = Re + Y * Stride, *ImY = Im + Y * Stride;
    for (size_t L = 0; L < Stride; L += W) {
      const Cx<V> A0 = loadRow<V>(ReX + L, ImX + L);
      const Cx<V> A1 = loadRow<V>(ReY + L, ImY + L);
      storeRow(ReX + L, ImX + L, R.C * A0 + R.S * (PhY * A1));
      storeRow(ReY + L, ImY + L, R.C * A1 + R.S * (PhX * A0));
    }
  }
}

template <unsigned W>
void panelDiagonal(double *Re, double *Im, size_t Dim, size_t Stride,
                   Complex CosT, Complex ISinT, const PauliPhases &Ph) {
  using V = Vec<W>;
  const Rotation<V> R(CosT, ISinT);
  for (uint64_t X = 0; X < Dim; ++X) {
    const Cx<V> PhX = splat<V>(Ph.at(X));
    double *ReX = Re + X * Stride, *ImX = Im + X * Stride;
    for (size_t L = 0; L < Stride; L += W) {
      const Cx<V> A = loadRow<V>(ReX + L, ImX + L);
      storeRow(ReX + L, ImX + L, R.C * A + R.S * (PhX * A));
    }
  }
}

// The fused final rotation, then one streaming accumulation pass: row X
// lands on every lane's chain before row X+1, the ascending-basis order of
// StatePanel::overlapWith, and {TRe, TImNeg} * A is the discretely
// rounded conj(Target) * Amp expansion.
template <unsigned W>
void panelExpOverlap(double *Re, double *Im, size_t Dim, size_t Stride,
                     uint64_t XM, Complex CosT, Complex ISinT,
                     const PauliPhases &Ph, const double *TRe,
                     const double *TImNeg, double *AccRe, double *AccIm) {
  using V = Vec<W>;
  if (XM == 0)
    panelDiagonal<W>(Re, Im, Dim, Stride, CosT, ISinT, Ph);
  else
    panelButterfly<W>(Re, Im, Dim, Stride, XM, CosT, ISinT, Ph);
  for (uint64_t X = 0; X < Dim; ++X) {
    const size_t Row = X * Stride;
    for (size_t L = 0; L < Stride; L += W) {
      const Cx<V> T = loadRow<V>(TRe + Row + L, TImNeg + Row + L);
      const Cx<V> A = loadRow<V>(Re + Row + L, Im + Row + L);
      storeRow(AccRe + L, AccIm + L, loadRow<V>(AccRe + L, AccIm + L) + T * A);
    }
  }
}

/// One tier's table: the walk at WalkW doubles, the panels at PanelW.
template <unsigned WalkW, unsigned PanelW>
constexpr Ops makeOps(const char *Name) {
  return {Name,
          expButterfly<WalkW>,
          expDiagonal<WalkW>,
          panelButterfly<PanelW>,
          panelDiagonal<PanelW>,
          panelExpOverlap<PanelW>};
}

} // namespace simd
} // namespace
} // namespace kernels
} // namespace marqsim

#endif // MARQSIM_SIM_KERNELSSIMD_H
