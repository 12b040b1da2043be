//===- sim/StatePanel.h - Multi-column statevector panel --------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A panel of C statevectors evolved in lockstep under one gate stream.
///
/// Fidelity evaluation replays the same compiled schedule against many
/// target columns; doing that one column at a time re-derives every
/// per-rotation quantity (masks, cos/sin, the +/- i^k phase constants) C
/// times and re-reads the schedule C times. The panel stores the C
/// statevectors as split real/imag planes, row-major by basis index:
/// element (X, column) of a plane lives at [X * Stride + column], with
/// Stride rounded up to one full 64-byte vector (8 doubles) and both
/// planes allocated 64-byte aligned. A rotation's sweep over one basis row
/// is therefore a run of contiguous, aligned, full-width vector lanes — the
/// layout the
/// dispatched SIMD kernels (sim/Kernels.h) consume directly, with the
/// padding lanes held at zero and processed inertly alongside the live
/// columns. Per-rotation setup happens once per sweep and each butterfly
/// pair's phase pair is selected once and broadcast across the columns.
///
/// Determinism contract: every column of the panel evolves with exactly
/// the per-element arithmetic of a standalone StateVector — the kernels
/// share the phase-selection helper and gate matrices — so a panel of C
/// columns is bit-identical to C serial single-state replays for every
/// panel width and every kernel dispatch. SimTest pins this across widths
/// and fast paths.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_STATEPANEL_H
#define MARQSIM_SIM_STATEPANEL_H

#include "sim/StateVector.h"
#include "support/AlignedAlloc.h"

#include <cstdint>
#include <vector>

namespace marqsim {

/// A block of fidelity targets packed into the panel-plane layout for the
/// fused evolve+overlap kernels: real plane plus a pre-negated
/// imaginary plane (TImNeg = -imag, an exact sign flip), element
/// (X, column) at [X * Stride + column], padding lanes zero, both planes
/// 64-byte aligned. With the negated plane, conj(Target) * Amp expands to
/// the discretely-rounded lane arithmetic the kernels run — see
/// kernels::Ops::PanelExpOverlapF64. Targets are packed once and reused
/// across schedule replays.
class TargetPanel {
public:
  /// Packs \p Count target statevectors (each of the same dimension) at
  /// row stride \p Stride, which must match the evolving panel's
  /// laneStride() and be a multiple of StatePanel::LaneMultiple.
  TargetPanel(const CVector *Targets, size_t Count, size_t Stride);

  size_t dim() const { return Dim; }
  size_t numColumns() const { return Cols; }
  size_t laneStride() const { return Stride; }
  const double *realPlane() const { return TRe.data(); }
  const double *negImagPlane() const { return TImNeg.data(); }

private:
  size_t Dim;
  size_t Cols;
  size_t Stride;
  std::vector<double, AlignedAllocator<double, 64>> TRe, TImNeg;
};

/// A cache-blocked panel of statevectors (one per requested basis column)
/// evolved together over split real/imag planes. n <= 26 as for
/// StateVector; callers bound the width (see PreferredWidth) to keep the
/// working set in cache.
class StatePanel {
public:
  /// The default column-block width of panel consumers: wide enough to
  /// amortize per-rotation setup, narrow enough that a block of 2^n
  /// columns stays cache-resident at the experiment sizes. Fixed —
  /// never derived from worker counts — so chunked evaluation partitions
  /// identically for every EvalJobs value.
  static constexpr size_t PreferredWidth = 8;

  /// Lane stride rounding: rows start every LaneMultiple elements — one
  /// full 64-byte vector of 8 doubles — so 512-bit loads stay aligned and
  /// rows begin on cache lines.
  static constexpr size_t LaneMultiple = 64 / sizeof(double);

  /// Initializes column k to the basis state |Basis[k]>.
  StatePanel(unsigned NumQubits, const uint64_t *Basis, size_t NumColumns);
  StatePanel(unsigned NumQubits, const std::vector<uint64_t> &Basis);

  unsigned numQubits() const { return NQubits; }
  size_t dim() const { return Dim; }
  size_t numColumns() const { return Cols; }

  /// Elements per plane row (numColumns rounded up to LaneMultiple);
  /// element (X, Col) of a plane lives at [X * laneStride() + Col].
  size_t laneStride() const { return Stride; }

  double *realPlane() { return Re.data(); }
  double *imagPlane() { return Im.data(); }
  const double *realPlane() const { return Re.data(); }
  const double *imagPlane() const { return Im.data(); }

  /// Amplitude of basis state \p X in column \p Col.
  Complex at(size_t Col, uint64_t X) const {
    const size_t I = size_t(X) * Stride + Col;
    return Complex(Re[I], Im[I]);
  }

  /// Materializes column \p Col as one contiguous statevector (the panel
  /// itself stores columns strided across rows).
  CVector column(size_t Col) const;

  /// Applies exp(i * Theta * P) to every column in one schedule sweep.
  /// Diagonal (Z-only) strings take the per-element phase fast path.
  /// Dispatches to the active kernel tier.
  void applyPauliExpAll(const PauliString &P, double Theta);

  /// Applies one gate to every column.
  void applyAll(const Gate &G);

  /// Applies all gates of a circuit in order to every column.
  void applyAll(const Circuit &C);

  /// <Target | column Col>, accumulated in ascending basis order — the
  /// same chain as innerProduct over a standalone statevector, so the two
  /// are bit-identical.
  Complex overlapWith(const CVector &Target, size_t Col) const;

  /// The fused tail of fidelity evaluation: applies exp(i * Theta * P) to
  /// every column exactly like applyPauliExpAll, then accumulates
  /// Out[Col] = <Target col | column Col> against the packed \p Targets in
  /// the same pass through memory instead of one strided overlapWith
  /// re-read per column. Each column's overlap runs its own ascending-
  /// basis lane chain — the exact chain overlapWith runs — so the fused
  /// path is bit-identical to applyPauliExpAll followed by overlapWith,
  /// for every kernel dispatch. \p Targets must
  /// be packed at this panel's laneStride(). \p Out receives
  /// numColumns() overlaps.
  void applyPauliExpAllFused(const PauliString &P, double Theta,
                             const TargetPanel &Targets, Complex *Out);

private:
  unsigned NQubits;
  size_t Dim;
  size_t Cols;
  size_t Stride;
  std::vector<double, AlignedAllocator<double, 64>> Re, Im;
};

} // namespace marqsim

#endif // MARQSIM_SIM_STATEPANEL_H
