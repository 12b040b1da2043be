//===- sim/Kernels.h - Dispatched statevector kernels -----------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime-dispatched SIMD layer under StateVector and StatePanel.
///
/// Every hot evaluation loop — the fused Pauli-exponential butterfly, the
/// Z-diagonal fast path, the panel applyPauliExpAll sweeps, and the fused
/// final-rotation + target-overlap sweep — resolves through one table of
/// kernel entry points (Ops). The table is selected once per process from
/// the CPU probe (support/CpuFeatures.h), best tier first: AVX-512F/DQ
/// hosts whose OS enables the ZMM state get 512-bit kernels ("avx512"),
/// AVX2+FMA hosts get 256-bit kernels ("avx2-fma"), AArch64 gets NEON,
/// and everything else the scalar reference implementations, which are
/// always compiled in. MARQSIM_KERNEL_TIER pins a specific tier by name;
/// pinning a tier the host cannot run aborts the process with a message
/// naming the detected features, never a silent fallback.
///
/// Every kernel is FP64: fidelity evaluation has one precision, and every
/// golden, manifest and cache key is pinned to its bits.
///
/// The vector tiers share one body (sim/KernelsSimd.h), written with
/// GCC/Clang vector extensions and instantiated per tier at its widths;
/// each tier file compiles it with that ISA's flags.
///
/// Determinism contract: the vector kernels perform, lane for lane,
/// exactly the per-element arithmetic of the scalar reference — the same
/// complex-multiply expansion std::complex<double> uses on the same
/// operand values. Each vector operator is one individually rounded
/// operation per lane, and no FMA is ever emitted: the whole project
/// builds with -ffp-contract=off, so no multiply+add is contracted.
/// Amplitude updates are elementwise-independent maps, so lane order never
/// matters, and every dispatch choice emits bit-identical amplitudes; the
/// frozen fidelity goldens hold on every ISA. The fused overlap kernels
/// accumulate each column's overlap as its own lane chain in ascending
/// basis order — the exact chain StatePanel::overlapWith runs — so fusing
/// never changes a single bit either.
///
/// Panel-plane layout contract (StatePanel): split real/imag planes,
/// row-major by basis index — element (X, column) of a plane lives at
/// [X * Stride + column] — with Stride a multiple of one 64-byte vector
/// (8 doubles) and both plane bases 64-byte aligned. Rows therefore start
/// on cache lines and a column sweep is a run of contiguous full-width
/// vector lanes; kernels process the zero-filled padding lanes along with
/// the live ones (lanes never interact, so padding stays inert).
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_KERNELS_H
#define MARQSIM_SIM_KERNELS_H

#include "linalg/Matrix.h"
#include "pauli/PauliString.h"

#include <cstdint>
#include <string>
#include <vector>

namespace marqsim {

namespace detail {
/// The per-rotation phase table of one Pauli string. applyToBasis(X) is
/// always +/- i^{|xMask & zMask|} with the sign given by the parity of
/// zMask & X, so a kernel can precompute the two constants once per
/// rotation and select per element — the selected value is bit-identical
/// to what PauliString::applyToBasis returns, at a fraction of the cost.
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

/// One implementation tier of every dispatched kernel. CosT carries
/// (cos Theta, 0) and ISinT (0, sin Theta) — the exact constants the
/// scalar expressions use, so the 0-component products (and their
/// sign-of-zero effects) are reproduced verbatim.
struct Ops {
  /// Tier name as reported by --stats and the bench CSVs:
  /// "avx512", "avx2-fma", "neon", or "scalar".
  const char *Name;

  /// exp(i Theta P) on one interleaved std::complex<double> statevector,
  /// xMask != 0: the fused in-place butterfly over {X, X ^ xMask} pairs.
  void (*ExpButterflyF64)(Complex *Amp, size_t Dim, uint64_t XM,
                          Complex CosT, Complex ISinT,
                          const detail::PauliPhases &Ph);

  /// exp(i Theta P) for Z-only strings (xMask == 0): the per-element
  /// diagonal fast path on an interleaved statevector.
  void (*ExpDiagonalF64)(Complex *Amp, size_t Dim, Complex CosT,
                         Complex ISinT, const detail::PauliPhases &Ph);

  /// The panel butterfly sweep over SoA planes (layout contract above).
  void (*PanelExpButterflyF64)(double *Re, double *Im, size_t Dim,
                               size_t Stride, uint64_t XM, Complex CosT,
                               Complex ISinT, const detail::PauliPhases &Ph);

  /// The panel Z-diagonal sweep over SoA planes.
  void (*PanelExpDiagonalF64)(double *Re, double *Im, size_t Dim,
                              size_t Stride, Complex CosT, Complex ISinT,
                              const detail::PauliPhases &Ph);

  /// Fused final-rotation + overlap sweep over a panel: applies
  /// exp(i Theta P) to the planes exactly like PanelExp{Butterfly,
  /// Diagonal}F64 (XM == 0 selects the diagonal path), then accumulates
  /// per-lane overlaps against a packed conjugated target panel in one
  /// streaming pass instead of one strided re-read per column.
  ///
  /// TRe / TImNeg hold the targets at the same [X * Stride + column]
  /// layout with the imaginary plane already negated (exact, sign flip
  /// only), so each lane's update is AccRe += TRe*ar - TImNeg*ai and
  /// AccIm += TRe*ai + TImNeg*ar — operation for operation the chain
  /// S += conj(Target[X]) * at(Col, X) runs in overlapWith. AccRe/AccIm
  /// are Stride doubles each, zeroed by the caller; lane L's final value
  /// is column L's overlap, accumulated in ascending basis order, so
  /// fused and unfused evaluation are bit-identical.
  void (*PanelExpOverlapF64)(double *Re, double *Im, size_t Dim,
                             size_t Stride, uint64_t XM, Complex CosT,
                             Complex ISinT, const detail::PauliPhases &Ph,
                             const double *TRe, const double *TImNeg,
                             double *AccRe, double *AccIm);
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
