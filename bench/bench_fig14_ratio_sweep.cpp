//===- bench/bench_fig14_ratio_sweep.cpp - Paper Fig. 14 ---------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Fig. 14 ("Compilation results of varying (Pqd, Pgc)
// combination ratios"): for each benchmark the CNOT reduction of
//   P = 0.8 Pqd + 0.2 Pgc,  0.4 Pqd + 0.6 Pgc,  0.2 Pqd + 0.8 Pgc
// relative to pure qDrift, at matched sampling budget. The paper reports
// average reductions of 10.3% / 23.8% / 28.0% and notes an accuracy loss as
// the Pgc share grows (larger secondary eigenvalues, Section 5.4) — the
// lambda_2 column makes that mechanism visible.
//
// Flags: --all runs the paper's full 8-benchmark set; default is a faster
// 4-benchmark subset. --paper for full epsilon list / repetitions.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "hamgen/Registry.h"

#include <iostream>

using namespace marqsim;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  if (CL.rejectUnknown({"all"}, CommonFlags))
    return 1;
  SweepOptions Opts;
  Opts.Epsilons = {0.1, 0.05};
  applyCommonFlags(CL, Opts);
  bool All = CL.getBool("all") || CL.getBool("paper");

  std::vector<std::string> Names = {"Na+", "Cl-", "Ar", "SYK-1"};
  if (All)
    Names = {"Na+", "Cl-", "OH-", "HF", "Ar", "LiH", "SYK-1", "SYK-2"};

  std::vector<ConfigSpec> Ratios = {{"Pqd", {1.0, 0.0, 0.0}},
                                    {"0.8Pqd+0.2Pgc", {0.8, 0.2, 0.0}},
                                    {"0.4Pqd+0.6Pgc", {0.4, 0.6, 0.0}},
                                    {"0.2Pqd+0.8Pgc", {0.2, 0.8, 0.0}}};

  std::cout << "Fig. 14: varying (Pqd, Pgc) combination ratios\n\n";
  Table Summary({"Benchmark", "0.8/0.2 CNOT red.", "0.4/0.6 CNOT red.",
                 "0.2/0.8 CNOT red."});
  std::vector<double> Avg(3, 0.0);
  size_t Ran = 0;

  // All four ratios share one gate-cancellation MCFP solution per
  // benchmark: the service caches Pgc by content hash and only the convex
  // combination differs between ratios.
  SimulationService Service;
  for (const std::string &Name : Names) {
    auto Spec = findBenchmark(Name);
    if (!Spec) {
      std::cerr << "unknown benchmark: " << Name << "\n";
      continue;
    }
    Hamiltonian H = makeBenchmark(*Spec);
    SweepOptions Local = Opts;
    Local.FidelityColumns = Spec->Qubits <= 8 ? 12 : 0;

    std::vector<SweepResult> Results;
    for (const ConfigSpec &Config : Ratios)
      Results.push_back(
          runConfigSweep(Service, H, Spec->Time, Config, Local));
    printSweepTable(std::cout, Name, Results);

    // Spectra: lambda_2 grows with the Pgc share (accuracy-loss
    // mechanism). The graphs come from the same cache entries the sweep
    // above populated, so this adds no MCFP work.
    Table Spectra({"ratio", "|lambda_2|"});
    for (const ConfigSpec &Config : Ratios) {
      TaskSpec Cell =
          sweepTaskSpec(H, Spec->Time, Config, Local, Local.Epsilons[0], 0);
      std::string Error;
      auto Graph = Service.graphFor(Cell, &Error);
      if (!Graph) {
        std::cerr << "error: " << Error << "\n";
        return 1;
      }
      Spectra.addRow(
          {Config.Name,
           formatDouble(
               Graph->transitionMatrix().secondEigenvalueMagnitude())});
    }
    Spectra.print(std::cout);
    std::cout << "\n";

    std::vector<std::string> Row = {Name};
    for (size_t K = 1; K < Ratios.size(); ++K) {
      ReductionSummary R = averageReduction(Results[0], Results[K]);
      Row.push_back(formatPercent(R.CNOT));
      Avg[K - 1] += R.CNOT;
    }
    Summary.addRow(Row);
    ++Ran;
  }

  std::cout << "== Summary (CNOT reduction vs pure qDrift) ==\n";
  Summary.print(std::cout);
  printCacheStats(std::cout, Service);
  if (Ran > 0) {
    std::cout << "\nAverages: ";
    const char *Labels[3] = {"0.8/0.2: ", " 0.4/0.6: ", " 0.2/0.8: "};
    for (int K = 0; K < 3; ++K)
      std::cout << Labels[K] << formatPercent(Avg[K] / double(Ran));
    std::cout << "\nPaper reference: 10.3% / 23.8% / 28.0%.\n";
  }
  return 0;
}
