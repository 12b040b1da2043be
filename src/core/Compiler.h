//===- core/Compiler.h - Shot plans and their lowering ----------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared back end of every compilation strategy (core/CompilerEngine).
///
///   * ShotPlan — one shot's term-visit sequence and rotation angles, as a
///     ScheduleStrategy produces it.
///   * materializePlan — the deterministic lowering of a plan: runs of equal
///     consecutive terms merge into one rotation, and the same pass counts
///     the gates of the cancellation-aware emitter and hashes the sequence.
///   * CompilationResult — everything one materialized shot carries.
///   * qdriftSampleCount — Algorithm 1's sample count
///     N = ceil(2 lambda^2 t^2 / epsilon).
///
/// Theorem 4.1 guarantees that a sampled plan approximates e^{iHt} with the
/// qDrift error bound whenever the transition matrix is strongly connected
/// and stationary-preserving — including every matrix produced by
/// core/TransitionBuilders combined with a positive Pqd share.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CORE_COMPILER_H
#define MARQSIM_CORE_COMPILER_H

#include "core/Emitter.h"

namespace marqsim {

/// Knobs of materializePlan.
struct CompilationOptions {
  EmitOptions Emit;
};

/// Everything a compilation run produces.
struct CompilationResult {
  /// Raw sampled term indices (length = sample count N).
  std::vector<size_t> Sequence;

  /// Merged schedule: runs of equal consecutive terms folded together.
  std::vector<ScheduledRotation> Schedule;

  /// Gate statistics of circuit(), counted without building it.
  GateCounts Counts;

  /// Cancellation accounting from the emitter.
  EmitStats Stats;

  /// hashSequence(Sequence), taken in the same pass as the counts.
  uint64_t SequenceHash = 0;

  /// N, lambda, and tau = lambda * t / N of this run.
  size_t NumSamples = 0;
  double Lambda = 0.0;
  double Tau = 0.0;

  /// Register width and lowering options circuit() lowers with.
  unsigned NumQubits = 0;
  EmitOptions Emit;

  /// Lowers Schedule to gates. Not cached: callers that read the gates
  /// more than once keep the returned circuit.
  Circuit circuit() const { return emitSchedule(Schedule, NumQubits, Emit); }
};

/// The term-visit plan of one compilation shot, before lowering: what a
/// ScheduleStrategy produces and the deterministic backend consumes.
struct ShotPlan {
  /// Term indices in visit order.
  std::vector<size_t> Sequence;

  /// Per-visit rotation angles. Empty selects the sampling-compiler rule
  /// tau_k = sgn(h_{i_k}) * TauStep; otherwise Taus.size() must equal
  /// Sequence.size() (the Trotter-family rule).
  std::vector<double> Taus;

  /// Uniform step magnitude for the empty-Taus rule; recorded in
  /// CompilationResult::Tau either way.
  double TauStep = 0.0;
};

/// N = ceil(2 lambda^2 t^2 / epsilon), at least 1 (Algorithm 1, line 2).
size_t qdriftSampleCount(double Lambda, double T, double Epsilon);

/// Deterministic back end shared by all strategies: merges runs of equal
/// consecutive terms into single rotations, counts the gates of the
/// schedule's cancellation-aware lowering and hashes the sequence in the
/// same pass (foldAndCount; the gates themselves come from
/// CompilationResult::circuit on demand).
CompilationResult materializePlan(const Hamiltonian &H, ShotPlan Plan,
                                  const CompilationOptions &Opts = {});

} // namespace marqsim

#endif // MARQSIM_CORE_COMPILER_H
