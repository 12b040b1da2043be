//===- core/Compiler.cpp - Shot plans and their lowering ------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace marqsim;

size_t marqsim::qdriftSampleCount(double Lambda, double T, double Epsilon) {
  assert(Lambda > 0.0 && "lambda must be positive");
  assert(Epsilon > 0.0 && "target precision must be positive");
  double N = std::ceil(2.0 * Lambda * Lambda * T * T / Epsilon);
  return std::max<size_t>(1, static_cast<size_t>(N));
}

CompilationResult marqsim::materializePlan(const Hamiltonian &H,
                                           ShotPlan Plan,
                                           const CompilationOptions &Opts) {
  CompilationResult R;
  R.NumSamples = Plan.Sequence.size();
  R.Lambda = H.lambda();
  R.Tau = Plan.TauStep;
  R.NumQubits = H.numQubits();
  R.Emit = Opts.Emit;
  // Merge runs of identical samples: exp(i tau P) exp(i tau P) folds into a
  // single rotation with doubled time parameter (paper Section 5.2); the
  // same pass counts the gates and hashes the sequence.
  ShotSummary S = foldAndCount(H, Plan.Sequence, Plan.Taus, Plan.TauStep,
                               Opts.Emit, R.Schedule);
  R.Counts = S.Counts;
  R.Stats = S.Stats;
  R.SequenceHash = S.SequenceHash;
  R.Sequence = std::move(Plan.Sequence);
  return R;
}
