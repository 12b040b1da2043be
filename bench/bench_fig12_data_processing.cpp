//===- bench/bench_fig12_data_processing.cpp - Paper Fig. 12 -----------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Fig. 12 ("Data processing with raw data from BeH2 (froze)"):
//   (a) the raw scatter of (algorithmic accuracy, CNOT count) across the
//       epsilon sweep and repeated randomized compilations, and
//   (b) the paper's processing pipeline: cluster by epsilon, average, fit
//       y = a + e^{bx + c}, and interpolate CNOT counts on an accuracy
//       grid (the paper compares configurations at accuracy 0.992-0.994).
//
// Defaults favour CI runtime: the 10-qubit LiH-froze workload with a short
// epsilon list. Pass --benchmark=BeH2-froze --paper for the paper's exact
// setting.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "hamgen/Registry.h"
#include "stats/ExpFit.h"
#include "stats/Stats.h"

#include <algorithm>
#include <iostream>

using namespace marqsim;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  if (CL.rejectUnknown({"benchmark", "columns"}, CommonFlags))
    return 1;
  SweepOptions Opts;
  Opts.Epsilons = {0.1, 0.067, 0.05};
  Opts.Reps = 3;
  applyCommonFlags(CL, Opts);
  std::string Name = CL.getString("benchmark", "LiH-froze");
  int64_t ColumnsArg = CL.getInt("columns", 6);
  if (ColumnsArg < 1) {
    std::cerr << "error: --columns must be at least 1 (the accuracy axis "
                 "needs fidelity)\n";
    return 1;
  }
  size_t Columns = static_cast<size_t>(ColumnsArg);
  auto Spec = findBenchmark(Name);
  if (!Spec) {
    std::cerr << "unknown benchmark: " << Name << "\n";
    return 1;
  }

  std::cout << "Fig. 12: data processing (" << Spec->Name << ", "
            << Spec->Qubits << " qubits, " << Spec->Strings
            << " strings, t=" << formatDouble(Spec->Time) << ")\n\n";

  Hamiltonian H = makeBenchmark(*Spec);
  Opts.FidelityColumns = Columns;
  SimulationService Service;
  const ConfigSpec GC{"MarQSim-GC", *ChannelMix::preset("gc")};

  // (a) Raw data: one point per (epsilon, shot); each epsilon is one
  // declarative task, all sharing the cached MCFP solution, graph, alias
  // tables, and fidelity evaluator. Fidelity runs on the batch workers.
  std::cout << "(a) raw data points\n";
  Table Raw({"eps", "N", "shot", "accuracy", "CNOTs"});
  std::vector<double> Xs, Ys;
  std::vector<std::pair<double, std::vector<double>>> Clusters;
  for (size_t EIdx = 0; EIdx < Opts.Epsilons.size(); ++EIdx) {
    double Eps = Opts.Epsilons[EIdx];
    TaskSpec Cell = sweepTaskSpec(H, Spec->Time, GC, Opts, Eps, EIdx);
    std::string Error;
    std::optional<TaskResult> Task = Service.run(Cell, &Error);
    if (!Task) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }

    std::vector<double> ClusterCNOTs;
    for (size_t Shot = 0; Shot < Task->Batch.NumShots; ++Shot) {
      const ShotSummary &S = Task->Batch.Shots[Shot];
      double F = Task->ShotFidelities[Shot];
      Raw.addRow({formatDouble(Eps), std::to_string(S.NumSamples),
                  std::to_string(Shot), formatDouble(F, 5),
                  std::to_string(S.Counts.CNOTs)});
      Xs.push_back(F);
      Ys.push_back(static_cast<double>(S.Counts.CNOTs));
      ClusterCNOTs.push_back(static_cast<double>(S.Counts.CNOTs));
    }
    Clusters.emplace_back(Eps, ClusterCNOTs);
  }
  Raw.print(std::cout);
  printCacheStats(std::cout, Service);

  // (b) Cluster means and the exponential fit.
  std::cout << "\n(b) cluster means and y = a + e^(b x + c) fit\n";
  Table Means({"eps", "CNOT(mean)", "CNOT(std)"});
  for (const auto &[Eps, CNOTs] : Clusters)
    Means.addRow({formatDouble(Eps), formatDouble(mean(CNOTs)),
                  formatDouble(stddev(CNOTs))});
  Means.print(std::cout);

  if (Xs.size() >= 4) {
    ExpFitResult Fit = expFit(Xs, Ys);
    std::cout << "\nfit: a=" << formatDouble(Fit.A)
              << " b=" << formatDouble(Fit.B) << " c=" << formatDouble(Fit.C)
              << " SSE=" << formatDouble(Fit.SSE) << "\n\n";
    double Lo = *std::min_element(Xs.begin(), Xs.end());
    double Hi = *std::max_element(Xs.begin(), Xs.end());
    Table Interp({"accuracy", "CNOT(interpolated)"});
    for (int K = 0; K <= 6; ++K) {
      double X = Lo + (Hi - Lo) * K / 6.0;
      Interp.addRow({formatDouble(X, 5), formatDouble(Fit.eval(X))});
    }
    Interp.print(std::cout);
  }
  return 0;
}
