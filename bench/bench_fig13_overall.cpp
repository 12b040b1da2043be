//===- bench/bench_fig13_overall.cpp - Paper Fig. 13 -------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Fig. 13 ("Overall Improvement over all benchmarks"): for each
// Table 1 benchmark, the CNOT-count-versus-accuracy series of the three
// configurations, plus the per-benchmark CNOT / total gate reductions of
// MarQSim-GC and MarQSim-GC-RP relative to the qDrift baseline (the paper
// annotates each subplot with these percentages).
//
// Configurations (paper Section 6.1):
//   Baseline       = Pqd                       (+ gate cancellation)
//   MarQSim-GC     = 0.4 Pqd + 0.6 Pgc
//   MarQSim-GC-RP  = 0.4 Pqd + 0.3 Pgc + 0.3 Prp
//
// Reductions are computed at matched sampling budget N (identical epsilon
// implies identical N across configurations — the knob the paper turns).
// Fidelity columns validate that accuracy is preserved; by default they are
// evaluated for benchmarks up to --fidelity-qubits (8) to bound runtime.
//
// Flags: --all includes the 12/14-qubit workloads; --paper restores the
// paper's epsilon list and 20 repetitions.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "hamgen/Registry.h"

#include <algorithm>
#include <iostream>
#include <memory>

using namespace marqsim;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  if (CL.rejectUnknown({"all", "columns", "fidelity-qubits"}, CommonFlags))
    return 1;
  SweepOptions Opts;
  applyCommonFlags(CL, Opts);
  bool All = CL.getBool("all") || CL.getBool("paper");
  unsigned FidelityQubits = static_cast<unsigned>(
      std::max<int64_t>(0, CL.getInt("fidelity-qubits", 8)));
  size_t Columns = static_cast<size_t>(
      std::max<int64_t>(0, CL.getInt("columns", 16)));

  std::cout << "Fig. 13: overall improvement over all benchmarks\n\n";

  Table Summary({"Benchmark", "GC CNOT red.", "GC total red.",
                 "GC-RP CNOT red.", "GC-RP 1q red.", "GC-RP total red.",
                 "GC-RP std red."});

  // One service for the whole run: every configuration's MCFP solution,
  // graph, and alias tables are resolved once per benchmark and shared
  // across the epsilon sweep; fidelity evaluators are cached per
  // (Hamiltonian, time, columns).
  SimulationService Service;
  for (const BenchmarkSpec &Spec : paperBenchmarks()) {
    if (!All && Spec.Qubits > 10)
      continue;
    Hamiltonian H = makeBenchmark(Spec);
    SweepOptions Local = Opts;
    Local.FidelityColumns = Spec.Qubits <= FidelityQubits ? Columns : 0;

    std::vector<SweepResult> Results;
    for (const ConfigSpec &Config : paperConfigs())
      Results.push_back(
          runConfigSweep(Service, H, Spec.Time, Config, Local));
    printSweepTable(std::cout, Spec.Name, Results);

    ReductionSummary GC = averageReduction(Results[0], Results[1]);
    ReductionSummary RP = averageReduction(Results[0], Results[2]);
    // Std-dev reduction of GC-RP vs GC (paper Section 6.2 reports ~8.3%).
    double StdGc = 0, StdRp = 0;
    for (size_t I = 0; I < Results[1].Points.size(); ++I) {
      StdGc += Results[1].Points[I].StdCNOTs;
      StdRp += Results[2].Points[I].StdCNOTs;
    }
    double StdRed = StdGc > 0 ? 1.0 - StdRp / StdGc : 0.0;

    std::cout << Spec.Name << ": GC CNOT " << formatPercent(GC.CNOT)
              << ", GC total " << formatPercent(GC.Total) << " | GC-RP CNOT "
              << formatPercent(RP.CNOT) << ", GC-RP total "
              << formatPercent(RP.Total) << "\n\n";
    Summary.addRow({Spec.Name, formatPercent(GC.CNOT),
                    formatPercent(GC.Total), formatPercent(RP.CNOT),
                    formatPercent(RP.Single), formatPercent(RP.Total),
                    formatPercent(StdRed)});
  }

  std::cout << "== Summary (reductions vs qDrift baseline, matched N) ==\n";
  Summary.print(std::cout);
  printCacheStats(std::cout, Service);
  std::cout << "\nPaper reference: MarQSim-GC averages 25.1% CNOT / 14.6% "
               "total;\nMarQSim-GC-RP averages 27.0% CNOT / 5.0% 1q / 17.0% "
               "total, 8.3% std reduction.\n";
  return 0;
}
