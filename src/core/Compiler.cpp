//===- core/Compiler.cpp - Compilation as Markov-chain sampling --------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"

#include "core/CompilerEngine.h"
#include "core/TransitionBuilders.h"

#include <cmath>
#include <memory>

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
  assert((Plan.Taus.empty() || Plan.Taus.size() == Plan.Sequence.size()) &&
         "per-visit tau vector must match the sequence length");
  CompilationResult R;
  R.NumSamples = Plan.Sequence.size();
  R.Lambda = H.lambda();
  R.Tau = Plan.TauStep;
  R.NumQubits = H.numQubits();
  R.Emit = Opts.Emit;
  // Merge runs of identical samples: exp(i tau P) exp(i tau P) folds into a
  // single rotation with doubled time parameter (paper Section 5.2); the
  // same pass counts the gates.
  R.Counts = foldAndCount(H, Plan.Sequence, Plan.Taus, Plan.TauStep,
                          Opts.Emit, R.Schedule, &R.Stats);
  R.Sequence = std::move(Plan.Sequence);
  return R;
}

CompilationResult marqsim::materializeSequence(const Hamiltonian &H,
                                               std::vector<size_t> Sequence,
                                               double TauStep,
                                               const CompilationOptions &Opts) {
  ShotPlan Plan;
  Plan.Sequence = std::move(Sequence);
  Plan.TauStep = TauStep;
  return materializePlan(H, std::move(Plan), Opts);
}

CompilationResult marqsim::compileBySampling(const HTTGraph &Graph, double T,
                                             double Epsilon, RNG &Rng,
                                             const CompilationOptions &Opts) {
  // Non-owning view: the strategy only lives for this call.
  std::shared_ptr<const HTTGraph> View(std::shared_ptr<const HTTGraph>(),
                                       &Graph);
  SamplingStrategy Strategy(View, T, Epsilon);
  ShotContext Ctx{0, Rng};
  return materializePlan(Graph.hamiltonian(), Strategy.produce(Ctx), Opts);
}

CompilationResult marqsim::compileQDrift(const Hamiltonian &H, double T,
                                         double Epsilon, RNG &Rng,
                                         const CompilationOptions &Opts) {
  HTTGraph Graph = HTTGraph::withQDriftMatrix(H);
  return compileBySampling(Graph, T, Epsilon, Rng, Opts);
}
