//===- examples/quickstart.cpp - MarQSim in five minutes ---------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's running example (Example 4.1) end to end:
//
//   1. Describe a Hamiltonian as a weighted sum of Pauli strings.
//   2. Build the HTT-graph IR with the qDrift transition matrix (Cor. 4.1)
//      and inspect the gate-cancellation tuning (Alg. 2 + Thm. 5.2).
//   3. Declare what to compute as TaskSpecs and let the SimulationService
//      run them: the MCFP solution, graph, alias tables, and fidelity
//      targets are resolved through content-hash caches, and per-shot
//      fidelity is evaluated inside the batch workers.
//   4. Re-run at a different precision: everything expensive is a cache
//      hit; only the sampling budget changes.
//
//===----------------------------------------------------------------------===//

#include "circuit/QasmExport.h"
#include "service/SimulationService.h"
#include "support/Table.h"

#include <iostream>

using namespace marqsim;

int main() {
  // 1. The Hamiltonian of paper Example 4.1.
  Hamiltonian H = Hamiltonian::parse(
      {{1.0, "IIIZ"}, {0.5, "IIZZ"}, {0.4, "XXYY"}, {0.1, "ZXZY"}});
  std::cout << "Hamiltonian (lambda = " << H.lambda() << "):\n"
            << H.str() << "\n";

  // 2. The IR under the hood: the tuned matrix the service will resolve
  //    for the "gc" mix (0.4 Pqd + 0.6 Pgc, paper Eq. (15)). graphFor goes
  //    through the same cache entries the compilations below reuse.
  SimulationService Service;
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(H);
  Spec.Mix = *ChannelMix::preset("gc");
  Spec.Time = 0.5;
  Spec.Epsilon = 0.01;
  std::string Error;
  auto Graph = Service.graphFor(Spec, &Error);
  if (!Graph) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::cout << "Tuned matrix (0.4 Pqd + 0.6 Pgc), paper Eq. (15):\n";
  // Label rows/columns with the canonical (service-sorted) term order,
  // which may differ from the declaration order above.
  const Hamiltonian &Canon = Graph->hamiltonian();
  const TransitionMatrix &P = Graph->transitionMatrix();
  std::vector<std::string> Header = {""};
  for (size_t I = 0; I < Canon.numTerms(); ++I)
    Header.push_back(Canon.term(I).String.str(Canon.numQubits()));
  Table M(Header);
  for (size_t I = 0; I < Canon.numTerms(); ++I) {
    std::vector<std::string> Row = {
        Canon.term(I).String.str(Canon.numQubits())};
    for (size_t J = 0; J < Canon.numTerms(); ++J)
      Row.push_back(formatDouble(P.at(I, J)));
    M.addRow(Row);
  }
  M.print(std::cout);
  std::cout << "valid for compilation: " << std::boolalpha
            << Graph->isValidForCompilation() << "\n\n";

  // 3. Compile e^{iHt} declaratively: one task per configuration, 16
  //    shots each, exact fidelity from 16 columns evaluated per shot on
  //    the batch workers. The baseline task only differs in its weights.
  Spec.Shots = 16;
  Spec.Jobs = 0; // all hardware threads; results identical for any value
  Spec.Seed = 42;
  Spec.Evaluate.FidelityColumns = 16;
  Spec.Evaluate.ExportShotZero = true;

  TaskSpec Baseline = Spec;
  Baseline.Mix = *ChannelMix::preset("baseline");

  Table R({"config", "samples N", "CNOTs(mean)", "total(mean)",
           "fidelity(mean)", "fid(std)"});
  auto Report = [&](const char *Name, const TaskResult &Task) {
    R.addRow({Name, std::to_string(Task.NumSamples),
              formatDouble(Task.Batch.CNOTs.Mean),
              formatDouble(Task.Batch.Totals.Mean),
              formatDouble(Task.Fidelity.Mean, 5),
              formatDouble(Task.Fidelity.Std, 5)});
  };
  std::optional<TaskResult> QDrift = Service.run(Baseline);
  std::optional<TaskResult> Tuned = Service.run(Spec);
  if (!QDrift || !Tuned)
    return 1;
  Report("qDrift baseline", *QDrift);
  Report("MarQSim-GC", *Tuned);
  R.print(std::cout);

  // Results carry gate counts; the gates themselves are lowered on demand.
  const Circuit ShotZero = Tuned->ShotZero.circuit();
  std::cout << "\nFirst gates of the optimized shot 0 (depth "
            << ShotZero.depth() << "), as OpenQASM 2.0:\n";
  Circuit Head(ShotZero.numQubits());
  for (size_t I = 0; I < std::min<size_t>(8, ShotZero.size()); ++I)
    Head.append(ShotZero.gate(I));
  std::cout << toQasm(Head);

  // 4. A tighter-precision task: the MCFP solution, graph, alias tables,
  //    and fidelity evaluator all come from the caches; only the sampling
  //    budget N = ceil(2 lambda^2 t^2 / eps) grows.
  TaskSpec Tight = Spec;
  Tight.Epsilon = 0.002;
  std::optional<TaskResult> TightRun = Service.run(Tight);
  if (!TightRun)
    return 1;
  std::cout << "\nRe-run at eps=0.002: N=" << TightRun->NumSamples
            << ", fidelity " << formatDouble(TightRun->Fidelity.Mean, 5)
            << ", batch hash " << TightRun->Batch.batchHash() << "\n";
  CacheStats S = Service.stats();
  std::cout << "cache accounting: MCFP solves=" << S.matrixMisses()
            << " reused=" << S.matrixHits() << ", graphs built="
            << S.GraphMisses << " reused=" << S.GraphHits
            << ", evaluators built=" << S.EvaluatorMisses << " reused="
            << S.EvaluatorHits << "\n";
  return 0;
}
