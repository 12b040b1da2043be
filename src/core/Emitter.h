//===- core/Emitter.h - Schedule-to-circuit lowering ------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a schedule of Pauli exponentials exp(i tau_k P_k) to gates with
/// cross-snippet gate cancellation (the "[22]-style" cancellation the paper
/// applies to every configuration, including the qDrift baseline).
///
/// Realized cancellations between consecutive snippets:
///   * basis-change pairs on every qubit where the two strings apply the
///     same non-identity operator (leave layer of k meets enter layer of
///     k+1 as exact inverses), and
///   * ladder CNOT pairs CNOT(q -> r) when both snippets share the root r,
///     the operator at r matches, and the operator at q matches.
/// Roots are chosen greedily: keep the previous root whenever the operator
/// on it matches; otherwise move into the matched set; otherwise default to
/// the highest support qubit. With root continuity the realized CNOTs
/// between two rotations equal cnotCountBetween(P_k, P_{k+1}) exactly.
///
/// Correctness does not depend on the cancellation decisions: skipped gate
/// pairs are operator-level inverses separated only by commuting gates (the
/// tests check emitted unitaries against analytic products).
///
/// One decision routine chooses every root for two outputs: emitSchedule
/// appends the gates, the count pass only counts them. The per-shot
/// compile path needs just the counts, so it never builds a Circuit;
/// callers that read gates lower on demand (CompilationResult::circuit).
/// The count pass works per rotation from two constants of each term, its
/// weight w and basis cost b, and per boundary from three popcounts:
///   ladder CNOTs = 2 (w - 1) per rotation, less 2 |Cancel| per boundary;
///   singles = 2 b + 1 per rotation, less 2 basis(P, M) per boundary with
///   M the qubits matched across it.
///
/// One per-visit fold is the whole per-shot back end. Fed term visits in
/// order, it takes the sequence-hash step, pushes the term into the count
/// pass (which drops identities and folds equal strings as the Schedule
/// does), and appends to a Schedule when one is asked for. foldAndCount
/// runs it over a Sequence with the append on; walkAndCount runs it inside
/// the Markov walk with the append off, one visit per drawn state, so a
/// shot nobody reads writes neither a Sequence nor a Schedule. On x86-64
/// hosts with POPCNT each entry runs a clone compiled for that
/// instruction; the portable path computes the same counts.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CORE_EMITTER_H
#define MARQSIM_CORE_EMITTER_H

#include "circuit/PauliEvolution.h"
#include "markov/Sampler.h"
#include "pauli/Hamiltonian.h"
#include "support/CpuFeatures.h"

namespace marqsim {

/// Options for schedule lowering.
struct EmitOptions {
  /// Apply cross-snippet cancellation while emitting. When false the
  /// snippets are synthesized independently (useful to measure how many
  /// gates cancellation saves).
  bool CrossCancellation = true;
};

/// Statistics accumulated during emission.
struct EmitStats {
  /// CNOT gates that were *not* emitted thanks to pairwise cancellation
  /// (counts both members of each pair).
  size_t CancelledCNOTs = 0;
  /// Single-qubit basis-change gates elided (both members counted).
  size_t CancelledSingles = 0;
};

/// Lowers \p Schedule over \p NumQubits qubits into a circuit.
/// Consecutive equal strings should already be merged (the compilers do
/// this); they are handled correctly regardless.
Circuit emitSchedule(const std::vector<ScheduledRotation> &Schedule,
                     unsigned NumQubits, const EmitOptions &Opts = {},
                     EmitStats *Stats = nullptr);

/// The cheap always-retained record of one shot.
struct ShotSummary {
  size_t NumSamples = 0;
  GateCounts Counts;
  EmitStats Stats;
  /// hashSequence of the term-visit sequence; lets callers check
  /// bit-identical scheduling without retaining the sequence itself.
  uint64_t SequenceHash = 0;
};

/// The per-shot back end in one pass over the term visits: fills
/// \p Schedule with visit k — term Sequence[k] of \p H at angle Taus[k],
/// or sgn(h) * TauStep when \p Taus is empty — folding runs of equal
/// strings, and returns the summary of the shot: NumSamples the sequence
/// length, emitSchedule(Schedule, n, Opts).counts() and its stats, counted
/// without creating a single gate, and hashSequence(Sequence), taken in
/// the same pass. Both \p Path values give the same result.
ShotSummary foldAndCount(const Hamiltonian &H,
                         const std::vector<size_t> &Sequence,
                         const std::vector<double> &Taus, double TauStep,
                         const EmitOptions &Opts,
                         std::vector<ScheduledRotation> &Schedule,
                         PopcountPath Path = hostPopcountPath());

/// One sampling shot with nothing materialized: walks \p Chain for
/// \p Count states from \p Rng, as MarkovChainSampler::walk does, and
/// folds, counts and hashes each state as it is drawn. Returns exactly
/// foldAndCount's summary of that walk and leaves \p Rng where the walk
/// would.
ShotSummary walkAndCount(const MarkovChainSampler &Chain, RNG &Rng,
                         size_t Count, const Hamiltonian &H,
                         const EmitOptions &Opts,
                         PopcountPath Path = hostPopcountPath());

} // namespace marqsim

#endif // MARQSIM_CORE_EMITTER_H
