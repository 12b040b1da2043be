//===- bench/BenchCommon.cpp - Shared experiment harness ---------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

using namespace marqsim;

std::vector<ConfigSpec> marqsim::paperConfigs() {
  return {{"Baseline", *ChannelMix::preset("baseline")},
          {"MarQSim-GC", *ChannelMix::preset("gc")},
          {"MarQSim-GC-RP", *ChannelMix::preset("gc-rp")}};
}

TaskSpec marqsim::sweepTaskSpec(const Hamiltonian &H, double T,
                                const ConfigSpec &Config,
                                const SweepOptions &Opts, double Epsilon,
                                size_t EpsilonIndex) {
  TaskSpec Spec;
  Spec.Source = HamiltonianSource::fromHamiltonian(H);
  Spec.Mix = Config.Mix;
  Spec.PerturbRounds = Opts.PerturbRounds;
  Spec.PerturbSeed = Opts.Seed ^ 0xC0FFEE;
  Spec.Time = T;
  Spec.Epsilon = Epsilon;
  Spec.Shots = Opts.Reps;
  Spec.Jobs = Opts.Jobs;
  Spec.Seed = Opts.Seed + 7919 * EpsilonIndex;
  Spec.Evaluate.FidelityColumns = Opts.FidelityColumns;
  return Spec;
}

SweepResult marqsim::runConfigSweep(SimulationService &Service,
                                    const Hamiltonian &H, double T,
                                    const ConfigSpec &Config,
                                    const SweepOptions &Opts) {
  SweepResult Result;
  Result.Config = Config;

  // One declarative task per epsilon. The expensive setup — the MCFP
  // solves, the combined matrix, the graph, the alias tables — is resolved
  // through the service caches, so it happens at most once per
  // configuration no matter how many sweep points (or sweeps) share it.
  for (size_t EIdx = 0; EIdx < Opts.Epsilons.size(); ++EIdx) {
    double Eps = Opts.Epsilons[EIdx];
    TaskSpec Spec = sweepTaskSpec(H, T, Config, Opts, Eps, EIdx);
    std::string Error;
    std::optional<TaskResult> Task = Service.run(Spec, &Error);
    if (!Task) {
      // Sweep cells share validated inputs; a failure here is a harness
      // bug, not a data point. Surface it loudly.
      throw std::runtime_error("sweep cell failed: " + Error);
    }

    SweepPoint Point;
    Point.Epsilon = Eps;
    Point.NumSamples = Task->NumSamples;
    Point.MeanCNOTs = Task->Batch.CNOTs.Mean;
    Point.StdCNOTs = Task->Batch.CNOTs.Std;
    Point.MeanSingles = Task->Batch.Singles.Mean;
    Point.MeanTotal = Task->Batch.Totals.Mean;
    if (Task->HasFidelity) {
      Point.MeanFidelity = Task->Fidelity.Mean;
      Point.StdFidelity = Task->Fidelity.Std;
      Point.HasFidelity = true;
    }
    Result.Points.push_back(Point);
  }
  return Result;
}

ReductionSummary marqsim::averageReduction(const SweepResult &Base,
                                           const SweepResult &Opt) {
  ReductionSummary Summary;
  size_t Count = std::min(Base.Points.size(), Opt.Points.size());
  if (Count == 0)
    return Summary;
  for (size_t I = 0; I < Count; ++I) {
    const SweepPoint &B = Base.Points[I];
    const SweepPoint &O = Opt.Points[I];
    if (B.MeanCNOTs > 0)
      Summary.CNOT += 1.0 - O.MeanCNOTs / B.MeanCNOTs;
    if (B.MeanSingles > 0)
      Summary.Single += 1.0 - O.MeanSingles / B.MeanSingles;
    if (B.MeanTotal > 0)
      Summary.Total += 1.0 - O.MeanTotal / B.MeanTotal;
  }
  Summary.CNOT /= static_cast<double>(Count);
  Summary.Single /= static_cast<double>(Count);
  Summary.Total /= static_cast<double>(Count);
  return Summary;
}

void marqsim::printSweepTable(std::ostream &OS, const std::string &Title,
                              const std::vector<SweepResult> &Results) {
  OS << "== " << Title << " ==\n";
  Table T({"config", "eps", "N", "CNOT(mean)", "CNOT(std)", "1q(mean)",
           "total(mean)", "fidelity", "fid(std)"});
  for (const SweepResult &R : Results)
    for (const SweepPoint &P : R.Points) {
      T.addRow({R.Config.Name, formatDouble(P.Epsilon),
                std::to_string(P.NumSamples), formatDouble(P.MeanCNOTs),
                formatDouble(P.StdCNOTs), formatDouble(P.MeanSingles),
                formatDouble(P.MeanTotal),
                P.HasFidelity ? formatDouble(P.MeanFidelity, 5) : "-",
                P.HasFidelity ? formatDouble(P.StdFidelity, 3) : "-"});
    }
  T.print(OS);
}

void marqsim::printCacheStats(std::ostream &OS,
                              const SimulationService &Service) {
  CacheStats S = Service.stats();
  OS << "service caches: MCFP solves=" << S.matrixMisses()
     << " reused=" << S.matrixHits() << " (disk=" << S.DiskLoads
     << "), graphs built=" << S.GraphMisses << " reused=" << S.GraphHits
     << ", evaluators built=" << S.EvaluatorMisses
     << " reused=" << S.EvaluatorHits << "\n";
}

const std::vector<std::string> marqsim::CommonFlags = {
    "eps", "jobs", "paper", "reps", "rounds", "seed"};

void marqsim::applyCommonFlags(const CommandLine &CL, SweepOptions &Opts) {
  if (CL.getBool("paper")) {
    // The paper's epsilon list (Section 6.1) and repetition count.
    Opts.Epsilons = {0.1, 0.067, 0.05, 0.04, 0.033, 0.0286, 0.025};
    Opts.Reps = 20;
    Opts.PerturbRounds = 100;
  }
  if (CL.has("eps")) {
    Opts.Epsilons.clear();
    std::stringstream SS(CL.getString("eps"));
    std::string Item;
    while (std::getline(SS, Item, ','))
      if (!Item.empty())
        Opts.Epsilons.push_back(std::strtod(Item.c_str(), nullptr));
  }
  Opts.Reps = static_cast<unsigned>(CL.getInt("reps", Opts.Reps));
  Opts.Seed = static_cast<uint64_t>(CL.getInt("seed", Opts.Seed));
  Opts.PerturbRounds =
      static_cast<unsigned>(CL.getInt("rounds", Opts.PerturbRounds));
  Opts.Jobs = static_cast<unsigned>(CL.getInt("jobs", Opts.Jobs));
}

