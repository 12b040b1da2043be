//===- sim/Kernels.h - Dispatched statevector kernels -----------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime-dispatched SIMD layer under StatePanel and the transport
/// solver.
///
/// Every hot evaluation loop — the panel sweeps over runs of same-xMask
/// rotations (the Z-diagonal run included), the fused final-rotation +
/// target-overlap sweep, and the grouped Hamiltonian product of the
/// lane-batched exact targets — and the MCFP solver's Dijkstra row scan
/// (flow/TransportFlow.h) resolve through one table of four kernel entry
/// points (Ops). The table is
/// selected once per process from the CPU probe (support/CpuFeatures.h),
/// best tier first: AVX-512F/DQ hosts whose OS enables the ZMM state get
/// 512-bit kernels ("avx512"), AVX2+FMA hosts get 256-bit kernels
/// ("avx2-fma"), AArch64 gets NEON, and everything else the scalar
/// reference implementations, which are always compiled in.
/// MARQSIM_KERNEL_TIER pins a specific tier by name;
/// pinning a tier the host cannot run aborts the process with a message
/// naming the detected features, never a silent fallback. StateVector
/// dispatches nothing: its butterfly and diagonal loops are the scalar
/// reference every panel tier is tested against.
///
/// Every evaluation kernel is FP64: fidelity evaluation has one precision,
/// and every golden, manifest and cache key is pinned to its bits. The row
/// scan is 64-bit integer arithmetic, so every tier sets the same bits by
/// construction.
///
/// The vector tiers share one body (sim/KernelsSimd.h), written with
/// GCC/Clang vector extensions and instantiated per tier at its widths;
/// each tier file compiles it with that ISA's flags.
///
/// Minimal arithmetic: P|X> = sigma(X) i^k |X ^ xMask>, with
/// k = popcount(xMask & zMask) mod 4 and sigma(X) = (-1)^popcount(zMask & X),
/// so i sin(Theta) P is a sign times i^{k+1}: a swap of the partner's parts
/// (k even) or none (k odd). Every kernel updates amplitude a0 of row X
/// from its partner a1 (the row itself on the diagonal) in six individually
/// rounded operations, with s_Y = +/-sin(Theta) exact (RotationStep::sinAt;
/// on a panel lane, laneSin):
///   k even: re = c*a0.re - s_Y*a1.im ; im = c*a0.im + s_Y*a1.re
///   k odd:  re = c*a0.re - s_Y*a1.re ; im = c*a0.im - s_Y*a1.im
/// No FMA is ever emitted: the whole project builds with -ffp-contract=off.
///
/// Determinism contract: every nonzero amplitude, and therefore every
/// fidelity value, is bit-identical to the textbook expression
/// CosT*a0 + ISinT*(Ph*a1) evaluated with std::complex<double> on
/// (c, 0), (0, s) and the +/- i^k phase — the full expansion adds only
/// exact zero products to the same three roundings. Only the sign of an
/// exact-zero amplitude may differ from that expression, and a zero's sign
/// reaches nothing but other zeros (x + (+/-0) = x, and overlaps and
/// fidelities take magnitudes). Zero signs are defined by the scalar
/// reference in Kernels.cpp (and StateVector's loops, which run the same
/// kernels::rotate) and shared by every tier: the vector kernels
/// perform, lane for lane, exactly its operations, so every dispatch
/// choice emits bit-identical amplitudes, zero signs included, and the
/// frozen fidelity goldens hold on every ISA. Amplitude updates are
/// elementwise-independent maps, so lane order never matters, and a run of
/// rotations applied in one pass (PanelExpRunF64) hands each element the
/// same operation sequence as one sweep per rotation. The fused overlap
/// kernels accumulate each column's overlap as its own lane chain in
/// ascending basis order — the exact chain StatePanel::overlapWith runs —
/// so fusing never changes a single bit either.
///
/// Panel-plane layout contract (StatePanel): split real/imag planes,
/// row-major by sector coordinate — element (u, column) of a plane lives
/// at [u * Stride + column] — with Stride a multiple of one 64-byte vector
/// (8 doubles) and both plane bases 64-byte aligned. Rows therefore start
/// on cache lines and a column sweep is a run of contiguous full-width
/// vector lanes; kernels process the zero-filled padding lanes along with
/// the live ones (lanes never interact, so padding stays inert).
///
/// Rows are sector coordinates (sim/StatePanel.h, Sector): each of the
/// 2^r rows is a coefficient vector u over a GF(2) basis b_1..b_r of the
/// schedule's x-masks, and row u of lane L holds the amplitude of basis
/// state X_L(u) = rep_L ^ (sum of u_i b_i), rep_L being the lane's coset
/// representative. With the identity basis (r = n, every rep 0) row u is
/// basis state u: the full layout. A rotation enters the kernels in these
/// coordinates: its xMask becomes the pivot bits of xMask (the partner of
/// row u is row u ^ xMask' in every lane), its ZMask becomes
/// zMask'_i = parity(zMask & b_i), and k, hence Sin's sign and KOdd, stay
/// those of the original string. Since
///   parity(zMask & X_L(u)) = parity(zMask & rep_L) ^ parity(zMask' & u),
/// lane L's sine on row u is flipIf(Sin, parity(ZMask & u) ^ lane L's bit
/// of LaneFlips) — RotationStep::laneSin gives the parity-0 value — and
/// every in-sector amplitude sees the operations of the full layout. The
/// panel kernels build each run's per-lane sines once, ahead of the row
/// loop (withLaneSines), and pick a row's by its parity.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_KERNELS_H
#define MARQSIM_SIM_KERNELS_H

#include "linalg/Matrix.h"
#include "pauli/PauliString.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace marqsim {

namespace detail {
/// The per-string phase table of one Pauli string. applyToBasis(X) is
/// always +/- i^{|xMask & zMask|} with the sign given by the parity of
/// zMask & X, so StateVector::applyPauli precomputes the two constants once
/// per string and selects per element — the selected value is
/// bit-identical to what PauliString::applyToBasis returns.
struct PauliPhases {
  Complex Pos, Neg;
  uint64_t ZMask;

  explicit PauliPhases(const PauliString &P) : ZMask(P.zMask()) {
    static const Complex IPow[4] = {
        {1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
    Pos = IPow[__builtin_popcountll(P.xMask() & P.zMask()) % 4];
    Neg = -Pos; // the same unary negation applyToBasis applies
  }

  const Complex &at(uint64_t X) const {
    return (__builtin_popcountll(ZMask & X) & 1) ? Neg : Pos;
  }
};
} // namespace detail

namespace kernels {

/// One non-identity rotation exp(i Theta P) planned for the minimal
/// arithmetic of the determinism contract: everything a kernel needs per
/// rotation, computed once (FidelityEvaluator plans a whole schedule).
struct RotationStep {
  double Cos;     ///< cos Theta
  double Sin;     ///< sin Theta, negated when k >= 2 (i^{k+1} = -i or -1)
  uint64_t ZMask; ///< P's zMask: sigma(X) = (-1)^popcount(ZMask & X)
  /// Panel lanes whose sine is negated: bit L = parity(zMask & rep_L) in
  /// sector coordinates (layout contract above); zero on the full layout
  /// and ignored by StateVector.
  uint64_t LaneFlips;
  bool KOdd; ///< k odd: i^{k+1} is real, the partner's parts stay put

  static RotationStep of(const PauliString &P, double Theta) {
    return of(P, std::cos(Theta), std::sin(Theta));
  }

  /// The step of exp(i Theta P) given c = cos Theta and s = sin Theta.
  static RotationStep of(const PauliString &P, double C, double S) {
    const unsigned K = __builtin_popcountll(P.xMask() & P.zMask()) % 4;
    return {C, K >= 2 ? -S : S, P.zMask(), 0, (K & 1) != 0};
  }

  // The helpers the vector body calls are always inlined, so no tier
  // object emits an ISA-specific out-of-line copy the linker could hand to
  // another tier, even in an unoptimized build.

  /// s_X = sigma(X) * Sin, the signed sine every update from a partner at
  /// basis index X uses. The sign flip is an XOR of the sign bit — exact
  /// for every value, zeros included — and branch-free, because the
  /// parity is data-dependent.
  __attribute__((always_inline)) double sinAt(uint64_t X) const {
    return flipIf(Sin, __builtin_parityll(ZMask & X));
  }

  /// Lane \p L's signed sine on a panel row u with parity(ZMask & u) = 0;
  /// a row of odd parity negates it. Lanes past 64 never flip.
  __attribute__((always_inline)) double laneSin(size_t L) const {
    return flipIf(Sin, L < 64 && ((LaneFlips >> L) & 1));
  }

  /// \p S negated when \p Flip is set: s_Y = flipIf(s_X, KOdd), since
  /// sigma(X ^ xMask) = sigma(X) * (-1)^k.
  __attribute__((always_inline)) static double flipIf(double S, bool Flip) {
    uint64_t Bits;
    std::memcpy(&Bits, &S, sizeof(Bits));
    Bits ^= uint64_t(Flip) << 63;
    std::memcpy(&S, &Bits, sizeof(S));
    return S;
  }
};

/// Doubles in one panel run's lane-sine table (16 KB on the stack).
constexpr size_t LaneSineTableSize = 2048;

/// Hands a run of \p K steps over \p Stride lanes to \p Pass in pieces,
/// each with its lane-sine table built once, ahead of the row loop:
/// Pass(Steps, N, Tab) with Tab[(2 * J + P) * Stride + L] step J's signed
/// sine at lane L on a row of parity P (laneSin(L), exactly negated for
/// P = 1). A piece holds as many steps as the table fits; each piece is
/// one pass, which hands every element the same operation sequence as one
/// pass for the whole run. Stride <= LaneSineTableSize / 2.
template <class PassFn>
__attribute__((always_inline)) inline void
withLaneSines(const RotationStep *Steps, size_t K, size_t Stride,
              PassFn &&Pass) {
  alignas(64) double Tab[LaneSineTableSize];
  const size_t Piece = LaneSineTableSize / (2 * Stride);
  for (size_t J0 = 0; J0 < K; J0 += Piece) {
    const size_t N = K - J0 < Piece ? K - J0 : Piece;
    for (size_t J = 0; J < N; ++J) {
      double *Even = Tab + 2 * J * Stride, *Odd = Even + Stride;
      for (size_t L = 0; L < Stride; ++L) {
        Even[L] = Steps[J0 + J].laneSin(L);
        Odd[L] = -Even[L];
      }
    }
    Pass(Steps + J0, N, static_cast<const double *>(Tab));
  }
}

/// Row X's new value (NRe, NIm) from its own amplitude (ARe, AIm) and its
/// partner's (BRe, BIm), given the partner's signed sine S — the contract's
/// two forms, written once for scalar doubles and vector lanes alike so
/// every tier runs the same operations in the same order.
template <bool KOdd, class T>
__attribute__((always_inline)) inline void rotate(T C, T S, T ARe, T AIm,
                                                  T BRe, T BIm, T &NRe,
                                                  T &NIm) {
  if constexpr (KOdd) {
    NRe = C * ARe - S * BRe;
    NIm = C * AIm - S * BIm;
  } else {
    NRe = C * ARe - S * BIm;
    NIm = C * AIm + S * BRe;
  }
}

/// Whether a settled supply's arc to demand J may lie on a shortest path
/// (TransportFlow::dijkstra): its candidate distance \p Base + \p Cost +
/// (\p Drawn ? \p Scale : 0) - \p Pot, summed modulo 2^64 and read as
/// signed, is at most the demand's current distance \p Dist. \p Cost +
/// \p Scale under a drawn bit is the arc's cost in a perturbation round,
/// so the sum equals the one over a materialized entry Cost + Drawn *
/// Scale. The vector body runs the same test per lane.
__attribute__((always_inline)) inline bool rowCandidate(int64_t Base,
                                                        int64_t Cost,
                                                        bool Drawn,
                                                        int64_t Scale,
                                                        int64_t Pot,
                                                        int64_t Dist) {
  return static_cast<int64_t>(
             static_cast<uint64_t>(Base) + static_cast<uint64_t>(Cost) +
             (static_cast<uint64_t>(Scale) & -static_cast<uint64_t>(Drawn)) -
             static_cast<uint64_t>(Pot)) <= Dist;
}

/// One implementation tier of every dispatched kernel.
struct Ops {
  /// Tier name as reported by --stats and the bench CSVs:
  /// "avx512", "avx2-fma", "neon", or "scalar".
  const char *Name;

  /// A run of K rotations sharing xMask \p XM over SoA planes of \p Dim
  /// rows (layout contract above: \p XM and each step's ZMask and
  /// LaneFlips in sector coordinates), applied in one pass: each
  /// {u, u ^ XM} row pair (each row when XM == 0, the diagonal run) is
  /// loaded once, takes Steps[0], ..., Steps[K-1] in order, and is stored
  /// once — bit-identical to K one-step sweeps. K == 1 is the
  /// single-rotation sweep.
  void (*PanelExpRunF64)(double *Re, double *Im, size_t Dim, size_t Stride,
                         uint64_t XM, const RotationStep *Steps, size_t K);

  /// Fused final-rotation + overlap sweep over a panel: applies
  /// exp(i Theta P) to the planes exactly like PanelExpRunF64 with K == 1,
  /// then accumulates per-lane overlaps against a packed conjugated target
  /// panel in one streaming pass instead of one strided re-read per
  /// column.
  ///
  /// TRe / TImNeg hold the targets at the same [u * Stride + column]
  /// layout with the imaginary plane already negated (exact, sign flip
  /// only), so each lane's update is AccRe += TRe*ar - TImNeg*ai and
  /// AccIm += TRe*ai + TImNeg*ar — operation for operation the chain
  /// S += conj(Target[X]) * at(Col, X) runs in overlapWith. AccRe/AccIm
  /// are Stride doubles each, zeroed by the caller; lane L's final value
  /// is column L's overlap, accumulated in ascending row order — which is
  /// ascending basis order (the Sector order lemma) — so fused and unfused
  /// evaluation are bit-identical.
  void (*PanelExpOverlapF64)(double *Re, double *Im, size_t Dim,
                             size_t Stride, uint64_t XM, const RotationStep &R,
                             const double *TRe, const double *TImNeg,
                             double *AccRe, double *AccIm);

  /// One X-mask group of a PauliOperator product over full-layout panel
  /// planes of \p Dim rows: for every row u and lane,
  ///   Y[u ^ XM] += D[u] * X[u],
  /// the product expanded as (d.re*x.re - d.im*x.im, d.re*x.im + d.im*x.re)
  /// and then added — the operations of PauliOperator::apply, so every
  /// lane's column gets the bits the single-vector product gives it, zero
  /// signs included. \p D is the group's diagonal (one complex per row,
  /// shared by every lane); \p X and \p Y must not alias. XM == 0 is the
  /// diagonal group.
  void (*PanelGroupProductF64)(const Complex *D, const double *XRe,
                               const double *XIm, double *YRe, double *YIm,
                               size_t Dim, size_t Stride, uint64_t XM);

  /// The transport solver's row prefilter over a cost view: for every
  /// J < \p N, bit J % 64 of Mask[J / 64] is rowCandidate(Base, Row[J],
  /// D_J, Scale, Pot[J], Dist[J]), where D_J is bit (DrawBit + J) % 64 of
  /// Draws[(DrawBit + J) / 64] and \p DrawBit < 64. Only the words that
  /// hold the N draw bits are read. The bits past N in the last of the
  /// ceil(N / 64) mask words are clear. The caller runs its scalar
  /// relaxation on the set bits only.
  void (*RowCandidatesI64)(const int64_t *Row, const uint64_t *Draws,
                           size_t DrawBit, int64_t Scale, const int64_t *Pot,
                           const int64_t *Dist, int64_t Base, size_t N,
                           uint64_t *Mask);
};

/// The dispatched table: selected on first use from the CPU probe and the
/// MARQSIM_KERNEL_TIER environment override, then cached. Thread-safe.
/// Aborts the process (exit 1, message on stderr) when the environment
/// pins a tier this host cannot run.
const Ops &active();

/// Name of the dispatched tier ("avx512" / "avx2-fma" / "neon" /
/// "scalar").
const char *activeName();

/// Name of the best tier the CPU supports, ignoring every environment
/// override — what dispatch *would* pick on a clean environment. Stats
/// report detected vs selected so a pinned process is visible.
const char *detectedName();

/// The always-available scalar reference tier.
const Ops &scalarOps();

/// Every tier this host can run, best first; scalar is always last. The
/// list depends only on the CPU probe (never on the environment), so
/// test sweeps and bench tables are stable across pinned runs.
std::vector<const Ops *> availableOps();

/// Tier lookup by name. Returns null when the name is unknown or the
/// tier is not runnable on this host.
const Ops *findTier(const std::string &Name);

/// The environment's tier pin: MARQSIM_KERNEL_TIER verbatim, empty when
/// unset.
std::string tierOverrideFromEnv();

/// Test/bench hook: pin dispatch to an explicit tier (one of
/// availableOps()). Production code never calls this; restore the default
/// policy with selectAuto().
void selectTierForTesting(const Ops &Tier);

/// Restores the default dispatch policy (CPU probe + environment).
void selectAuto();

namespace detail {
/// Per-ISA tables; null when the binary was built without the ISA or the
/// host CPU (or, for AVX-512, the OS XSAVE state) lacks it. Each is the
/// shared body of sim/KernelsSimd.h instantiated at its tier's widths in
/// KernelsAVX512.cpp / KernelsAVX2.cpp / KernelsNEON.cpp, which also
/// define the null stubs, so every accessor exists on every platform.
const Ops *avx512Ops();
const Ops *avx2Ops();
const Ops *neonOps();
} // namespace detail

} // namespace kernels
} // namespace marqsim

#endif // MARQSIM_SIM_KERNELS_H
