//===- sim/KernelsSimd.h - Shared vector-extension kernel body --*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one body of every vector kernel tier, written with GCC/Clang vector
/// extensions and templated on the vector width in 64-bit lanes, PanelW
/// (4 or 8 doubles or integers). Each tier file includes it under its
/// ISA guard, compiles it with its own per-file ISA flags, and
/// instantiates one table with makeOps<PanelW>().
///
/// Bit-identity: every vector operator below is one IEEE-754 operation per
/// lane, rounded on its own, and each lane runs the scalar reference's
/// minimal-arithmetic update (kernels::rotate, the same template) on the
/// same operand values; the build's -ffp-contract=off means no FMA is ever
/// emitted. So each lane reproduces the scalar reference bit for bit, zero
/// signs included — which is why broadcasts are written x - V{} (exact for
/// -0) and never V{} + x (which turns -0 into +0), and sign flips are
/// exact negations.
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

using marqsim::kernels::RotationStep;

template <unsigned W> struct VecOf {
  typedef double Type __attribute__((vector_size(W * sizeof(double))));
};
template <unsigned W> using Vec = typename VecOf<W>::Type;

// Whole-vector moves through a copy of V that may sit at any 8-byte
// element's address and may alias it, the idiom of the intrinsics'
// unaligned loads.
template <class V> struct Unaligned {
  typedef V Type __attribute__((aligned(sizeof(double)), may_alias));
};
template <class V, class E> inline V load(const E *P) {
  return *reinterpret_cast<const typename Unaligned<V>::Type *>(P);
}
template <class V> inline void store(double *P, V X) {
  *reinterpret_cast<typename Unaligned<V>::Type *>(P) = X;
}

/// Complex values as two vectors, real parts and imaginary parts; on split
/// planes the lanes are independent complexes.
template <class V> struct Cx {
  V Re, Im;
};

// std::complex's expansion: re = wr*ar - wi*ai ; im = wr*ai + wi*ar.
template <class V> inline Cx<V> operator*(Cx<V> W, Cx<V> A) {
  return {W.Re * A.Re - W.Im * A.Im, W.Re * A.Im + W.Im * A.Re};
}
template <class V> inline Cx<V> operator+(Cx<V> A, Cx<V> B) {
  return {A.Re + B.Re, A.Im + B.Im};
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

/// Row pairs (rows, on the diagonal) a run step updates together: the
/// pairs' updates are independent chains, so interleaving them hides the
/// multiply-then-add latency of each. Four pairs keep 16 row vectors in
/// AVX-512's 32 registers (eight spill and measured ~25% slower on OH-),
/// two keep 8 in AVX2's 16.
template <unsigned W> constexpr unsigned PairsPerStep = W == 4 ? 2 : 4;

/// One step of a run on G pairs held in registers: A0[g] is row X[g],
/// A1[g] its partner X[g] ^ XM. \p Sines is the step's lane-sine table
/// row pair at this vector's lanes (kernels::withLaneSines): parity 0 at
/// Sines, parity 1 at Sines + Stride.
template <bool KOdd, unsigned G, class V>
inline void stepPairs(const RotationStep &R, const double *Sines,
                      size_t Stride, const uint64_t *X, Cx<V> *A0,
                      Cx<V> *A1) {
  const V C = R.Cos - V{};
  for (unsigned G0 = 0; G0 < G; ++G0) {
    const unsigned PX = __builtin_parityll(R.ZMask & X[G0]);
    const V SXv = load<V>(Sines + PX * Stride);
    const V SYv = load<V>(Sines + (PX ^ KOdd) * Stride);
    const Cx<V> B0 = A0[G0], B1 = A1[G0];
    kernels::rotate<KOdd>(C, SYv, B0.Re, B0.Im, B1.Re, B1.Im, A0[G0].Re,
                          A0[G0].Im);
    kernels::rotate<KOdd>(C, SXv, B1.Re, B1.Im, B0.Re, B0.Im, A1[G0].Re,
                          A1[G0].Im);
  }
}

template <unsigned W, unsigned G>
void panelRunPairs(double *Re, double *Im, size_t Dim, size_t Stride,
                   uint64_t XM, const RotationStep *Steps, size_t K,
                   const double *Tab) {
  using V = Vec<W>;
  const uint64_t Low = (XM & (~XM + 1)) - 1; // the bits below the pivot
  for (uint64_t P0 = 0; P0 < Dim / 2; P0 += G) {
    // Pair P's row X is P with a zero spliced in at the pivot bit.
    uint64_t X[G];
    for (unsigned G0 = 0; G0 < G; ++G0)
      X[G0] = (((P0 + G0) & ~Low) << 1) | ((P0 + G0) & Low);
    for (size_t L = 0; L < Stride; L += W) {
      Cx<V> A0[G], A1[G];
      for (unsigned G0 = 0; G0 < G; ++G0) {
        A0[G0] = loadRow<V>(Re + X[G0] * Stride + L, Im + X[G0] * Stride + L);
        const uint64_t Y = X[G0] ^ XM;
        A1[G0] = loadRow<V>(Re + Y * Stride + L, Im + Y * Stride + L);
      }
      for (size_t J = 0; J < K; ++J) {
        const double *Sines = Tab + 2 * J * Stride + L;
        if (Steps[J].KOdd)
          stepPairs<true, G>(Steps[J], Sines, Stride, X, A0, A1);
        else
          stepPairs<false, G>(Steps[J], Sines, Stride, X, A0, A1);
      }
      for (unsigned G0 = 0; G0 < G; ++G0) {
        storeRow(Re + X[G0] * Stride + L, Im + X[G0] * Stride + L, A0[G0]);
        const uint64_t Y = X[G0] ^ XM;
        storeRow(Re + Y * Stride + L, Im + Y * Stride + L, A1[G0]);
      }
    }
  }
}

template <unsigned W, unsigned G>
void panelRunDiagonal(double *Re, double *Im, size_t Dim, size_t Stride,
                      const RotationStep *Steps, size_t K,
                      const double *Tab) {
  using V = Vec<W>;
  for (uint64_t X0 = 0; X0 < Dim; X0 += G) {
    for (size_t L = 0; L < Stride; L += W) {
      Cx<V> A[G];
      for (unsigned G0 = 0; G0 < G; ++G0)
        A[G0] = loadRow<V>(Re + (X0 + G0) * Stride + L,
                           Im + (X0 + G0) * Stride + L);
      for (size_t J = 0; J < K; ++J) {
        const V C = Steps[J].Cos - V{};
        const double *Sines = Tab + 2 * J * Stride + L;
        for (unsigned G0 = 0; G0 < G; ++G0) {
          const unsigned P = __builtin_parityll(Steps[J].ZMask & (X0 + G0));
          const V S = load<V>(Sines + P * Stride);
          const Cx<V> B = A[G0];
          kernels::rotate<false>(C, S, B.Re, B.Im, B.Re, B.Im, A[G0].Re,
                                 A[G0].Im);
        }
      }
      for (unsigned G0 = 0; G0 < G; ++G0)
        storeRow(Re + (X0 + G0) * Stride + L, Im + (X0 + G0) * Stride + L,
                 A[G0]);
    }
  }
}

/// The run entry: G pairs per step, fewer when the panel has fewer (pair
/// and row counts are powers of two, so G divides any count >= G); the
/// lane sines of each piece of the run are built once, before its rows.
template <unsigned W, unsigned G = PairsPerStep<W>>
void panelRun(double *Re, double *Im, size_t Dim, size_t Stride, uint64_t XM,
              const RotationStep *Steps, size_t K) {
  if constexpr (G > 1) {
    if ((XM ? Dim / 2 : Dim) < G)
      return panelRun<W, G / 2>(Re, Im, Dim, Stride, XM, Steps, K);
  }
  kernels::withLaneSines(
      Steps, K, Stride,
      [&](const RotationStep *Piece, size_t N, const double *Tab) {
        if (XM)
          panelRunPairs<W, G>(Re, Im, Dim, Stride, XM, Piece, N, Tab);
        else
          panelRunDiagonal<W, G>(Re, Im, Dim, Stride, Piece, N, Tab);
      });
}

// The fused final rotation, then one streaming accumulation pass: row u
// lands on every lane's chain before row u+1, the ascending-basis order of
// StatePanel::overlapWith, and {TRe, TImNeg} * A is the discretely
// rounded conj(Target) * Amp expansion.
template <unsigned W>
void panelExpOverlap(double *Re, double *Im, size_t Dim, size_t Stride,
                     uint64_t XM, const RotationStep &R, const double *TRe,
                     const double *TImNeg, double *AccRe, double *AccIm) {
  using V = Vec<W>;
  panelRun<W>(Re, Im, Dim, Stride, XM, &R, 1);
  for (uint64_t X = 0; X < Dim; ++X) {
    const size_t Row = X * Stride;
    for (size_t L = 0; L < Stride; L += W) {
      const Cx<V> T = loadRow<V>(TRe + Row + L, TImNeg + Row + L);
      const Cx<V> A = loadRow<V>(Re + Row + L, Im + Row + L);
      storeRow(AccRe + L, AccIm + L, loadRow<V>(AccRe + L, AccIm + L) + T * A);
    }
  }
}

// One X-mask group of the grouped Hamiltonian product: row u's diagonal
// entry is broadcast once (d - V{}, exact for -0) and updates every lane
// of row u ^ XM with the std::complex expansion, then the add.
template <unsigned W>
void panelGroupProduct(const Complex *D, const double *XRe, const double *XIm,
                       double *YRe, double *YIm, size_t Dim, size_t Stride,
                       uint64_t XM) {
  using V = Vec<W>;
  for (uint64_t U = 0; U < Dim; ++U) {
    const Cx<V> Du = {D[U].real() - V{}, D[U].imag() - V{}};
    const size_t XRow = U * Stride, YRow = (U ^ XM) * Stride;
    for (size_t L = 0; L < Stride; L += W) {
      const Cx<V> P = Du * loadRow<V>(XRe + XRow + L, XIm + XRow + L);
      storeRow(YRe + YRow + L, YIm + YRow + L,
               loadRow<V>(YRe + YRow + L, YIm + YRow + L) + P);
    }
  }
}

//===----------------------------------------------------------------------===//
// Transport row prefilter (64-bit integer lanes)
//===----------------------------------------------------------------------===//

template <unsigned W> struct UVecOf {
  typedef uint64_t Type __attribute__((vector_size(W * sizeof(uint64_t))));
};
template <unsigned W> struct SVecOf {
  typedef int64_t Type __attribute__((vector_size(W * sizeof(int64_t))));
};

/// Row[J..J+K) against Dist as mask bits 0..K-1 (K <= 64), entry J + B
/// perturbed by Scale under bit B of \p Drawn: whole vectors compare
/// lane-parallel — each lane's draw bit selecting Scale or zero, wrapping
/// sums, a signed compare, each lane's all-ones
/// result kept at its bit — and the last K % W entries run
/// kernels::rowCandidate one by one. Integer arithmetic is exact, so the
/// word equals the scalar reference's.
template <unsigned W>
inline uint64_t rowCandidateBits(const int64_t *Row, uint64_t Drawn,
                                 int64_t Scale, const int64_t *Pot,
                                 const int64_t *Dist, int64_t Base, size_t J,
                                 size_t K) {
  using U = typename UVecOf<W>::Type;
  using S = typename SVecOf<W>::Type;
  U Lane;
  for (unsigned L = 0; L < W; ++L)
    Lane[L] = uint64_t(1) << L;
  const U B = static_cast<uint64_t>(Base) - U{};
  const U Sc = static_cast<uint64_t>(Scale) - U{};
  const U Draws = Drawn - U{};
  U Acc = {};
  size_t B0 = 0;
  for (; B0 + W <= K; B0 += W) {
    const U Bump = (Draws & (Lane << B0)) != 0 ? Sc : U{};
    const U Cand =
        B + load<U>(Row + J + B0) + Bump - load<U>(Pot + J + B0);
    const S Hit = (S)Cand <= load<S>(Dist + J + B0);
    Acc |= (U)Hit & (Lane << B0);
  }
  uint64_t Bits = 0;
  for (unsigned L = 0; L < W; ++L)
    Bits |= Acc[L];
  for (; B0 < K; ++B0)
    Bits |= uint64_t(kernels::rowCandidate(Base, Row[J + B0],
                                           (Drawn >> B0) & 1, Scale,
                                           Pot[J + B0], Dist[J + B0]))
            << B0;
  return Bits;
}

/// Draw bits DrawBit + J .. DrawBit + J + K - 1 (J a multiple of 64,
/// K <= 64) as bits 0..K-1. The window starts at bit DrawBit of word
/// J / 64 and reads the next word only when it runs into it, so the last
/// row never reads past the last draw word.
inline uint64_t drawWindow(const uint64_t *Draws, size_t DrawBit, size_t J,
                           size_t K) {
  const uint64_t *Word = Draws + J / 64;
  uint64_t Bits = Word[0] >> DrawBit;
  if (DrawBit != 0 && DrawBit + K > 64)
    Bits |= Word[1] << (64 - DrawBit);
  return Bits;
}

template <unsigned W>
void rowCandidates(const int64_t *Row, const uint64_t *Draws, size_t DrawBit,
                   int64_t Scale, const int64_t *Pot, const int64_t *Dist,
                   int64_t Base, size_t N, uint64_t *Mask) {
  for (size_t J = 0; J < N; J += 64) {
    const size_t K = N - J < 64 ? N - J : 64;
    Mask[J / 64] = rowCandidateBits<W>(Row, drawWindow(Draws, DrawBit, J, K),
                                       Scale, Pot, Dist, Base, J, K);
  }
}

/// One tier's table: the panels at PanelW doubles per vector, the row
/// prefilter at PanelW 64-bit integers.
template <unsigned PanelW> constexpr Ops makeOps(const char *Name) {
  return {Name, panelRun<PanelW>, panelExpOverlap<PanelW>,
          panelGroupProduct<PanelW>, rowCandidates<PanelW>};
}

} // namespace simd
} // namespace
} // namespace kernels
} // namespace marqsim

#endif // MARQSIM_SIM_KERNELSSIMD_H
