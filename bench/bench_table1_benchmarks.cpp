//===- bench/bench_table1_benchmarks.cpp - Paper Table 1 ---------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 1 ("Benchmark Information"): the twelve workloads with
// their qubit counts, Pauli string counts, and evolution times, plus the
// derived quantities our substitution produces (lambda, mean string weight).
//
// Flags: --skip-large skips the 12/14-qubit instances (they take a few
// seconds to generate); --seed has no effect (the registry is fixed).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "hamgen/Registry.h"
#include "support/Timer.h"

#include <iostream>

using namespace marqsim;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  if (CL.rejectUnknown({"skip-large"}))
    return 1;
  bool SkipLarge = CL.getBool("skip-large");

  std::cout << "Table 1: Benchmark Information (paper spec -> generated "
               "workload)\n\n";
  Table T({"Benchmark", "Qubit#", "PauliString#", "Time", "lambda",
           "mean|weight|", "gen(ms)"});
  for (const BenchmarkSpec &Spec : paperBenchmarks()) {
    if (SkipLarge && Spec.Qubits > 10)
      continue;
    Timer Gen;
    Hamiltonian H = makeBenchmark(Spec);
    double GenMs = Gen.millis();
    double MeanWeight = 0.0;
    for (const PauliTerm &Term : H.terms())
      MeanWeight += Term.String.weight();
    MeanWeight /= static_cast<double>(H.numTerms());
    T.addRow({Spec.Name, std::to_string(Spec.Qubits),
              std::to_string(H.numTerms()), formatDouble(Spec.Time),
              formatDouble(H.lambda()), formatDouble(MeanWeight),
              formatDouble(GenMs)});
  }
  T.print(std::cout);
  std::cout << "\nMolecular entries are synthetic electronic-structure\n"
               "Hamiltonians (see DESIGN.md substitutions); SYK entries are\n"
               "Majorana quadruple models. String counts match the paper\n"
               "exactly; lambda is normalized into the paper's sampling\n"
               "regime.\n";
  return 0;
}
