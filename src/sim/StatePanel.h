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
/// statevectors as split real/imag planes, row-major by row u (the basis
/// index on the full layout, a sector coordinate otherwise): element
/// (u, column) of a plane lives at [u * Stride + column], with
/// Stride rounded up to one full 64-byte vector (8 doubles) and both
/// planes allocated 64-byte aligned. A rotation's sweep over one row
/// is therefore a run of contiguous, aligned, full-width vector lanes — the
/// layout the
/// dispatched SIMD kernels (sim/Kernels.h) consume directly, with the
/// padding lanes held at zero and processed inertly alongside the live
/// columns. Per-rotation setup happens once per sweep (once per schedule
/// for a planned run), and each run's per-lane signed sines are built
/// once, ahead of its row loop.
///
/// The panel is fidelity evaluation's one substrate: every block of
/// columns, a single column included, evolves as a panel, and the
/// dispatched kernels have no other client. A 1-column panel still pays
/// for a full vector of lanes per row, but in a sector of 2^r rows, with
/// every run in one pass and the fused overlap tail.
///
/// Symmetry sectors: a rotation exp(i Theta P) maps basis state |X> only
/// to |X> and |X ^ xMask>, so a column that starts at |x> and takes
/// rotations whose x-masks span a GF(2) subspace S never leaves the coset
/// x + S. A panel built over a Sector stores each column in those 2^r rows
/// only (r = rank S): row u of lane L is basis state
/// X_L(u) = rep_L ^ expand(u), where rep_L is the column's coset
/// representative (Sector). The rows it drops hold exact zeros on the
/// full layout, and an overlap adds nothing but exact zeros there, so
/// every overlap and fidelity keeps its bits (see FidelityEvaluator). The
/// identity basis (r = n) is the full layout: row u is basis state u.
///
/// Determinism contract: every column of the panel evolves with exactly
/// the per-element arithmetic of a standalone StateVector, the scalar
/// reference — both run the minimal-arithmetic updates of sim/Kernels.h,
/// zero signs included — so a panel of C columns is bit-identical to C
/// serial single-state replays (on every in-sector amplitude;
/// out-of-sector amplitudes are exact zeros either way) for every panel
/// width, every run grouping and every kernel dispatch. Against the textbook std::complex expression, every
/// nonzero amplitude and every overlap and fidelity is bit-identical;
/// only the signs of exact-zero amplitudes are the scalar reference's
/// own. SimTest pins this across widths, fast paths and sectors.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_STATEPANEL_H
#define MARQSIM_SIM_STATEPANEL_H

#include "sim/StateVector.h"
#include "support/AlignedAlloc.h"

#include <cstdint>
#include <vector>

namespace marqsim {

namespace kernels {
struct RotationStep;
} // namespace kernels

/// The GF(2) span S of a set of x-masks over n qubits, held as a reduced
/// row-echelon basis b_1..b_r: the pivot of b_i is its leading (highest)
/// set bit, no other basis vector has that bit set, and pivots ascend
/// with i. It is the row coordinate system of a StatePanel:
///   reduce(X)  X with every pivot bit cleared by basis vectors — the
///              canonical representative rep of the coset X + S;
///   coords(X)  u with bit i = X's bit at pivot i, so that
///              X = reduce(X) ^ expand(u), expand(u) = XOR of the b_i
///              whose bit u_i is set.
/// Order lemma: for any reduced rep, u -> rep ^ expand(u) is strictly
/// increasing (the highest bit where u and u' differ is pivot i's
/// coordinate, and b_i decides the highest bit where their images differ),
/// so ascending rows visit a coset in ascending basis order.
class Sector {
public:
  /// The zero span over \p NumQubits qubits (rank 0).
  explicit Sector(unsigned NumQubits) : NQubits(NumQubits) {}

  /// The identity basis e_0..e_{n-1}: rank n, every rep 0, coords(X) = X —
  /// the full layout.
  static Sector full(unsigned NumQubits);

  /// Extends the span by \p XMask (a no-op when it is already inside).
  void insert(uint64_t XMask);

  unsigned numQubits() const { return NQubits; }
  unsigned rank() const { return static_cast<unsigned>(Basis.size()); }
  const std::vector<uint64_t> &basis() const { return Basis; }

  bool contains(uint64_t X) const { return reduce(X) == 0; }
  uint64_t reduce(uint64_t X) const;
  uint64_t coords(uint64_t X) const;
  uint64_t expand(uint64_t U) const;

  /// A Pauli zMask in row coordinates: bit i = parity(ZMask & b_i), so
  /// parity(ZMask & expand(u)) = parity(zMask(ZMask) & u).
  uint64_t zMask(uint64_t ZMask) const;

  bool operator==(const Sector &O) const {
    return NQubits == O.NQubits && Basis == O.Basis;
  }

private:
  /// The leading (pivot) bit of a nonzero basis vector.
  static uint64_t lead(uint64_t B) {
    return uint64_t(1) << (63 - __builtin_clzll(B));
  }

  unsigned NQubits;
  std::vector<uint64_t> Basis; // ascending pivots
};

class StatePanel;

/// A block of fidelity targets packed into a panel's layout for the
/// fused evolve+overlap kernels: real plane plus a pre-negated
/// imaginary plane (TImNeg = -imag, an exact sign flip), element
/// (u, column) at [u * Stride + column] holding the target's amplitude at
/// the panel's basis state X_column(u), padding lanes zero, both planes
/// 64-byte aligned. With the negated plane, conj(Target) * Amp expands to
/// the discretely-rounded lane arithmetic the kernels run — see
/// kernels::Ops::PanelExpOverlapF64.
class TargetPanel {
public:
  /// Gathers one full target statevector per column of \p Layout (each
  /// of dimension 2^n) into \p Layout's rows and lane stride.
  TargetPanel(const StatePanel &Layout, const CVector *Targets);

  size_t rows() const { return Rows; }
  size_t numColumns() const { return Cols; }
  size_t laneStride() const { return Stride; }
  const double *realPlane() const { return TRe.data(); }
  const double *negImagPlane() const { return TImNeg.data(); }

private:
  size_t Rows;
  size_t Cols;
  size_t Stride;
  std::vector<double, AlignedAllocator<double, 64>> TRe, TImNeg;
};

/// A cache-blocked panel of statevectors (one per requested basis column)
/// evolved together over split real/imag planes, each column stored in
/// its symmetry sector (see the file comment). n <= 26 as for
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

  /// Initializes column k to the basis state |Basis[k]> on the full
  /// layout (Sector::full). At most kernels::LaneSineTableSize / 2 (1024)
  /// columns.
  StatePanel(unsigned NumQubits, const uint64_t *Basis, size_t NumColumns);
  StatePanel(unsigned NumQubits, const std::vector<uint64_t> &Basis);

  /// Initializes column k to |Basis[k]> in its coset of \p Span: 2^rank
  /// rows. Every rotation applied must have its xMask in \p Span. At most
  /// 64 columns (one RotationStep::LaneFlips bit each).
  StatePanel(const Sector &Span, const uint64_t *Basis, size_t NumColumns);

  unsigned numQubits() const { return Span.numQubits(); }
  const Sector &sector() const { return Span; }
  bool isFullLayout() const { return Span.rank() == Span.numQubits(); }
  size_t numColumns() const { return Cols; }

  /// Rows of each plane: 2^rank of the sector (2^n on the full layout).
  size_t rows() const { return Rows; }

  /// Elements per plane row (numColumns rounded up to LaneMultiple);
  /// element (u, Col) of a plane lives at [u * laneStride() + Col].
  size_t laneStride() const { return Stride; }

  double *realPlane() { return Re.data(); }
  double *imagPlane() { return Im.data(); }
  const double *realPlane() const { return Re.data(); }
  const double *imagPlane() const { return Im.data(); }

  /// The basis state row \p Row of column \p Col holds: X_Col(Row).
  uint64_t basisIndex(size_t Col, uint64_t Row) const {
    return Reps[Col] ^ Span.expand(Row);
  }

  /// Bit L = parity(ZMask & rep_L) over the live lanes: the
  /// RotationStep::LaneFlips of a string with \p ZMask on this panel.
  uint64_t laneFlips(uint64_t ZMask) const;

  /// Whether any column sits outside the sector's zero coset, i.e.
  /// whether laneFlips can be nonzero.
  bool hasLaneFlips() const { return Flipping; }

  /// Amplitude of basis state \p X in column \p Col (an exact zero
  /// outside the column's coset).
  Complex at(size_t Col, uint64_t X) const;

  /// Materializes column \p Col as one contiguous 2^n statevector (the
  /// panel itself stores columns strided across rows).
  CVector column(size_t Col) const;

  /// Applies exp(i * Theta * P) to every column in one schedule sweep.
  /// Diagonal (Z-only) strings take the per-element phase fast path.
  /// Dispatches to the active kernel tier.
  void applyPauliExpAll(const PauliString &P, double Theta);

  /// Applies a planned run of \p K non-identity rotations that share
  /// \p XMask in one pass through the panel (kernels::Ops::PanelExpRunF64):
  /// each row pair is loaded once, takes every step in order, and is
  /// stored once — bit-identical to one applyPauliExpAll per step.
  /// \p XMask and the steps are in this panel's row coordinates:
  /// sector().coords(xMask), sector().zMask(zMask) and laneFlips(zMask).
  void applyPauliExpRun(uint64_t XMask, const kernels::RotationStep *Steps,
                        size_t K);

  /// Applies one gate to every column (full layout only: gates leave a
  /// sector mid-gadget).
  void applyAll(const Gate &G);

  /// Applies all gates of a circuit in order to every column.
  void applyAll(const Circuit &C);

  /// <Target | column Col> over the 2^n statevector \p Target,
  /// accumulated in ascending basis order over the column's rows — the
  /// chain of innerProduct over a standalone statevector minus terms that
  /// add exact zeros, so the two agree on every bit of every nonzero part.
  Complex overlapWith(const CVector &Target, size_t Col) const;

  /// The fused tail of fidelity evaluation: applies exp(i * Theta * P) to
  /// every column exactly like applyPauliExpAll, then accumulates
  /// Out[Col] = <Target col | column Col> against the packed \p Targets in
  /// the same pass through memory instead of one strided overlapWith
  /// re-read per column. Each column's overlap runs its own ascending-
  /// basis lane chain — the exact chain overlapWith runs — so the fused
  /// path is bit-identical to applyPauliExpAll followed by overlapWith,
  /// for every kernel dispatch. \p Targets must be packed for this
  /// panel's layout. \p Out receives numColumns() overlaps.
  void applyPauliExpAllFused(const PauliString &P, double Theta,
                             const TargetPanel &Targets, Complex *Out);

private:
  /// The kernel step and row-coordinate xMask of a non-identity string.
  kernels::RotationStep localStep(const PauliString &P, double Theta,
                                  uint64_t &XMask) const;

  Sector Span;
  size_t Rows;
  size_t Cols;
  size_t Stride;
  std::vector<uint64_t> Reps; // per column: its coset representative
  bool Flipping = false;      // some representative is nonzero
  std::vector<double, AlignedAllocator<double, 64>> Re, Im;
};

} // namespace marqsim

#endif // MARQSIM_SIM_STATEPANEL_H
