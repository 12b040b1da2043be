//===- sim/Fidelity.h - Unitary fidelity estimation -------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's algorithmic-accuracy metric: the unitary fidelity
///   F = |tr(U_app * U^dag)| / 2^n
/// between the compiled circuit's unitary U_app and the exact evolution
/// U = e^{iHt} (Section 6.1 "Metrics"; the magnitude makes the metric
/// global-phase invariant).
///
/// The trace is an average of per-column overlaps <x|U^dag U_app|x>, so it
/// can be computed exactly (all 2^n columns) or estimated without bias from
/// a random column subset. FidelityEvaluator precomputes the exact target
/// columns once per (H, t) and reuses them across every configuration,
/// epsilon, and repetition — mirroring how the paper amortizes its GPU
/// evaluation.
///
/// Evaluation runs on StatePanel: columns are partitioned into fixed-width
/// panel blocks (StatePanel::PreferredWidth, independent of any worker
/// count), each block replays the schedule once for all its columns, and
/// the per-column overlaps are reduced in ascending column order. The
/// blocks are independent, so an EvalJobs argument fans them across
/// ThreadPool workers — the within-shot parallelism the schedule's
/// sequential Markov walk cannot offer — while the fixed partition and
/// fixed-order reduction keep the result bit-identical to the serial
/// evaluation for every EvalJobs value.
///
/// Two kernel-level refinements keep the same bits while cutting memory
/// traffic: a schedule's final rotation is fused with the overlap
/// accumulation (StatePanel::applyPauliExpAllFused — one streaming pass
/// instead of a rotation sweep plus one strided overlapWith re-read per
/// column; targets are packed once per block and cached), and width-1
/// tail blocks evolve a single interleaved StateVector walk instead of a
/// panel padded to eight lanes. Both refinements preserve each column's
/// ascending-basis overlap chain, so results are bit-identical to the
/// unfused panel-only evaluation.
///
/// Evaluation runs in FP64 only: every golden, shard manifest and cache
/// key pins the fidelity's exact bits.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_FIDELITY_H
#define MARQSIM_SIM_FIDELITY_H

#include "circuit/PauliEvolution.h"
#include "pauli/Hamiltonian.h"
#include "sim/StatePanel.h"
#include "sim/StateVector.h"
#include "support/RNG.h"

#include <memory>

namespace marqsim {

namespace detail {
/// Lazily packed per-block TargetPanels (Fidelity.cpp). Held behind a
/// shared_ptr so FidelityEvaluator stays movable/copyable — the targets
/// are immutable, so sharing the cache across copies is safe.
struct TargetPanelCache;
} // namespace detail

/// Exact |tr(A * B^dag)| / dim for two equal-size square matrices.
double unitaryFidelity(const Matrix &UApp, const Matrix &UExact);

/// Evaluates compiled schedules against the exact evolution e^{iHt}.
class FidelityEvaluator {
public:
  /// Precomputes target columns e^{iHt}|x> for \p NumColumns basis states
  /// (all columns if NumColumns >= 2^n, making the estimate exact).
  /// Column choice is deterministic in \p Seed.
  FidelityEvaluator(const Hamiltonian &H, double T, size_t NumColumns,
                    uint64_t Seed = 7);

  /// Rehydrates an evaluator from previously computed targets (the
  /// ArtifactStore's disk tier). \p Targets must be the exact columns the
  /// computing constructor produced for the same (H, T, columns, seed) —
  /// the store guarantees this by content-hash keying plus checksums.
  FidelityEvaluator(unsigned NQubits, std::vector<uint64_t> Columns,
                    std::vector<CVector> Targets);

  /// Fidelity of a schedule of analytic Pauli exponentials. \p EvalJobs
  /// fans the fixed-width column blocks across that many workers (0 = all
  /// cores); the result is bit-identical for every value.
  double fidelity(const std::vector<ScheduledRotation> &Schedule,
                  unsigned EvalJobs = 1) const;

  /// Mean column *state* fidelity (1/C) sum_x |<psi_x| V |x>|^2 of a
  /// schedule — the noisy tier's metric. Unlike fidelity()'s |trace|
  /// average, the per-column magnitude makes each column phase-invariant
  /// on its own, so the expectation over stochastic Pauli-error draws
  /// equals the density-matrix oracle's value exactly. Same panel
  /// harness, same bit-identity contract for every EvalJobs.
  double stateFidelity(const std::vector<ScheduledRotation> &Schedule,
                       unsigned EvalJobs = 1) const;

  /// Fidelity of an explicit gate-level circuit (slower; for validation).
  double fidelityOfCircuit(const Circuit &C, unsigned EvalJobs = 1) const;

  unsigned numQubits() const { return NQubits; }
  size_t numColumns() const { return Columns.size(); }
  bool isExact() const { return Columns.size() == (size_t(1) << NQubits); }

  /// The chosen basis indices and their exact targets e^{iHt}|x>, in
  /// matching order (serialization surface of the artifact store).
  const std::vector<uint64_t> &columns() const { return Columns; }
  const std::vector<CVector> &targets() const { return Targets; }

private:
  /// Shared evaluation harness: partitions the columns into fixed-width
  /// panel blocks, lets \p Evolve drive each block's state (a StatePanel
  /// for multi-column blocks, a StateVector walk for width-1 blocks), and
  /// returns the per-column overlaps in column
  /// order. When \p FusedTail is non-null, \p Evolve must leave that
  /// final rotation unapplied: panel blocks then run it fused with the
  /// overlap accumulation against a cached TargetPanel, and walk blocks
  /// apply it before their (single) overlap — both orders bit-identical
  /// to evolving everything and overlapping afterwards. Both metrics
  /// reduce the returned vector in fixed order.
  template <typename EvolveFn>
  std::vector<Complex>
  collectOverlaps(unsigned EvalJobs, const EvolveFn &Evolve,
                  const ScheduledRotation *FusedTail = nullptr) const;

  /// collectOverlaps reduced to |sum|/C (the unitary-fidelity metric).
  template <typename EvolveFn>
  double evaluatePanels(unsigned EvalJobs, const EvolveFn &Evolve,
                        const ScheduledRotation *FusedTail = nullptr) const;

  /// The packed targets of one block, built on first use at the block
  /// panel's \p Stride.
  const TargetPanel &targetPanelFor(size_t Block, size_t Begin, size_t Count,
                                    size_t Stride) const;

  unsigned NQubits;
  std::vector<uint64_t> Columns;  // basis indices
  std::vector<CVector> Targets;   // e^{iHt}|x> per column
  std::shared_ptr<detail::TargetPanelCache> PanelCache;
};

} // namespace marqsim

#endif // MARQSIM_SIM_FIDELITY_H
