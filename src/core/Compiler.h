//===- core/Compiler.h - Compilation as Markov-chain sampling ---*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 of the paper: "Compilation As Sampling from Markov Process".
///
/// Given the HTT graph (Hamiltonian + transition matrix), the compiler draws
/// N = ceil(2 lambda^2 t^2 / epsilon) states; the first draw follows the
/// stationary distribution pi, later draws follow the row of the previous
/// state. Each drawn term H_i contributes exp(i sgn(h_i) lambda t / N * H_i)
/// to the schedule; runs of equal terms merge into one rotation. The
/// schedule lowers to gates through the cancellation-aware emitter.
///
/// Theorem 4.1 guarantees the result approximates e^{iHt} with the qDrift
/// error bound whenever the matrix is strongly connected and stationary-
/// preserving — including every matrix produced by core/TransitionBuilders
/// combined with a positive Pqd share.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CORE_COMPILER_H
#define MARQSIM_CORE_COMPILER_H

#include "core/Emitter.h"
#include "core/HTTGraph.h"
#include "markov/Sampler.h"
#include "support/RNG.h"

namespace marqsim {

/// Knobs of the sampling compiler.
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

/// Runs Algorithm 1 on \p Graph for evolution time \p T and target
/// precision \p Epsilon.
CompilationResult compileBySampling(const HTTGraph &Graph, double T,
                                    double Epsilon, RNG &Rng,
                                    const CompilationOptions &Opts = {});

/// Deterministic back end shared by all compilers and strategies: merges
/// runs of equal consecutive terms into single rotations and counts the
/// gates of the schedule's cancellation-aware lowering in the same pass
/// (foldAndCount; the gates themselves come from
/// CompilationResult::circuit on demand).
CompilationResult materializePlan(const Hamiltonian &H, ShotPlan Plan,
                                  const CompilationOptions &Opts = {});

/// Convenience form of materializePlan for the sampling compilers
/// (tau_i = sgn(h_i) * TauStep per occurrence).
CompilationResult materializeSequence(const Hamiltonian &H,
                                      std::vector<size_t> Sequence,
                                      double TauStep,
                                      const CompilationOptions &Opts = {});

/// Convenience: vanilla qDrift (Corollary 4.1) + cancellation-aware
/// emission. This is the paper's Baseline configuration.
CompilationResult compileQDrift(const Hamiltonian &H, double T,
                                double Epsilon, RNG &Rng,
                                const CompilationOptions &Opts = {});

} // namespace marqsim

#endif // MARQSIM_CORE_COMPILER_H
