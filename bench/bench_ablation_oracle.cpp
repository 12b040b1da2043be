//===- bench/bench_ablation_oracle.cpp - Design-choice ablations -------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablations for the design choices DESIGN.md calls out (beyond the paper's
// own figures):
//
//  1. Oracle accuracy: Proposition 5.1 says the MCFP objective equals the
//     expected CNOTs per transition; we compare that prediction against the
//     CNOTs the emitter actually realizes per transition.
//  2. Emitter cancellation value: gates with cross-snippet cancellation on
//     vs off, and what the generic peephole pass still finds afterwards.
//  3. Sampler choice: alias (O(1)) vs binary-search CDF (O(log n)) draw
//     throughput — the knob behind Algorithm 1's log(n) sampling term.
//  4. Commutation-grouping extension (paper Section 7): the fraction of
//     consecutive sampled pairs that commute under Pqd vs a Pcg mix.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "circuit/Optimizer.h"
#include "core/CNOTCountOracle.h"
#include "core/HardwareCost.h"
#include "hamgen/Registry.h"
#include "pauli/CommutingGroups.h"
#include "support/Timer.h"

#include <cstdlib>
#include <iostream>

using namespace marqsim;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  SweepOptions Opts;
  applyCommonFlags(CL, Opts);
  std::string Name = CL.getString("benchmark", "Na+");
  double Eps = CL.getDouble("epsilon", 0.05);

  auto Spec = findBenchmark(Name);
  if (!Spec) {
    std::cerr << "unknown benchmark: " << Name << "\n";
    return 1;
  }
  // The canonical (merged, split) form the service compiles: the oracle
  // and spectra sections below index terms against service-built matrices,
  // so they must share its term order.
  Hamiltonian H = SimulationService::prepare(makeBenchmark(*Spec));
  std::vector<double> Pi = H.stationaryDistribution();
  std::cout << "Ablations on " << Name << " (" << H.numTerms()
            << " strings)\n\n";

  // Sections 1 and 2 share one service: each configuration's MCFP solve
  // and graph happen once and every single-shot task below reuses them.
  SimulationService Service;
  SweepOptions Cell = Opts;
  Cell.Reps = 1;
  Cell.FidelityColumns = 0;
  auto RunOne = [&](const ConfigSpec &Config,
                    const CompilationOptions &Lowering) {
    TaskSpec Task = sweepTaskSpec(H, Spec->Time, Config, Cell, Eps, 0);
    Task.Seed = Opts.Seed;
    Task.Lowering = Lowering;
    Task.Evaluate.ExportShotZero = true;
    std::string Error;
    std::optional<TaskResult> Result = Service.run(Task, &Error);
    if (!Result) {
      std::cerr << "error: " << Error << "\n";
      std::exit(1);
    }
    return std::move(Result->ShotZero);
  };

  // 1. Oracle prediction vs realized CNOTs per transition.
  std::cout << "1. Prop. 5.1 prediction vs emitter-realized CNOTs\n";
  Table Oracle({"config", "predicted E[CNOT/transition]",
                "realized CNOT/transition", "ratio"});
  for (const ConfigSpec &Config : paperConfigs()) {
    TaskSpec Task = sweepTaskSpec(H, Spec->Time, Config, Cell, Eps, 0);
    std::string Error;
    auto Graph = Service.graphFor(Task, &Error);
    if (!Graph) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
    double Predicted = expectedTransitionCNOTs(
        Graph->hamiltonian(), Graph->transitionMatrix(),
        Graph->hamiltonian().stationaryDistribution());
    CompilationResult R = RunOne(Config, {});
    // Realized CNOTs per transition: subtract the one-off ladder halves at
    // the two circuit ends (they are not "transitions").
    double Realized =
        static_cast<double>(R.Counts.CNOTs) /
        std::max<size_t>(1, R.Schedule.size() - 1);
    Oracle.addRow({Config.Name, formatDouble(Predicted),
                   formatDouble(Realized),
                   formatDouble(Predicted > 0 ? Realized / Predicted : 0)});
  }
  Oracle.print(std::cout);

  // 2. Cancellation value: emitter off/on + peephole afterwards.
  std::cout << "\n2. Cross-snippet cancellation value\n";
  Table Cancel({"config", "CNOTs (no cancel)", "CNOTs (emitter)",
                "CNOTs (emitter+peephole)", "emitter red.",
                "peephole extra"});
  for (const ConfigSpec &Config : paperConfigs()) {
    // Same strategy + seed => identical sequence; only the lowering
    // options differ, so the comparison isolates the emitter. Both tasks
    // hit the cached graph built in section 1.
    CompilationOptions NoCancel;
    NoCancel.Emit.CrossCancellation = false;
    CompilationResult Plain = RunOne(Config, NoCancel);
    CompilationResult Fancy = RunOne(Config, {});
    Circuit Peep = optimizeCircuit(Fancy.circuit());
    double EmitRed = 1.0 - double(Fancy.Counts.CNOTs) /
                               double(Plain.Counts.CNOTs);
    double PeepExtra = 1.0 - double(Peep.counts().CNOTs) /
                                 double(Fancy.Counts.CNOTs);
    Cancel.addRow({Config.Name, std::to_string(Plain.Counts.CNOTs),
                   std::to_string(Fancy.Counts.CNOTs),
                   std::to_string(Peep.counts().CNOTs),
                   formatPercent(EmitRed), formatPercent(PeepExtra)});
  }
  Cancel.print(std::cout);
  printCacheStats(std::cout, Service);

  // 3. Sampler throughput.
  std::cout << "\n3. Sampler ablation (draws from the stationary row)\n";
  {
    const size_t Draws = 2'000'000;
    AliasSampler Alias(Pi);
    CDFSampler CDF(Pi);
    RNG R1(1), R2(1);
    Timer TA;
    uint64_t SinkA = 0;
    for (size_t I = 0; I < Draws; ++I)
      SinkA += Alias.sample(R1);
    double AliasTime = TA.seconds();
    Timer TC;
    uint64_t SinkC = 0;
    for (size_t I = 0; I < Draws; ++I)
      SinkC += CDF.sample(R2);
    double CDFTime = TC.seconds();
    Table S({"sampler", "draws/s", "checksum"});
    S.addRow({"alias", formatDouble(Draws / AliasTime),
              std::to_string(SinkA % 97)});
    S.addRow({"CDF", formatDouble(Draws / CDFTime),
              std::to_string(SinkC % 97)});
    S.print(std::cout);
  }

  // 4. Commutation-grouping extension.
  std::cout << "\n4. Commutation-grouping extension (Section 7)\n";
  {
    TransitionMatrix Pcg = buildCommutationGrouping(H);
    TransitionMatrix Mix = combineWithQDrift(H, Pcg, 0.4);
    TransitionMatrix Pqd = buildQDrift(H);
    CompilerEngine Engine;
    auto CommutingFraction = [&](const TransitionMatrix &P) {
      SamplingStrategy Strategy(std::make_shared<const HTTGraph>(H, P),
                                Spec->Time, Eps);
      CompilationResult R = Engine.compileOne(Strategy, Opts.Seed + 3);
      size_t Commuting = 0;
      for (size_t K = 1; K < R.Sequence.size(); ++K)
        Commuting += H.term(R.Sequence[K - 1])
                         .String.commutesWith(H.term(R.Sequence[K]).String);
      return double(Commuting) / double(R.Sequence.size() - 1);
    };
    Table C({"matrix", "commuting consecutive pairs"});
    C.addRow({"Pqd", formatPercent(CommutingFraction(Pqd))});
    C.addRow({"0.4Pqd+0.6Pcg", formatPercent(CommutingFraction(Mix))});
    C.print(std::cout);

    auto Groups = groupCommutingTerms(H);
    std::cout << "commuting partition (greedy coloring): " << Groups.size()
              << " groups over " << H.numTerms()
              << " terms; largest group " << Groups.front().size() << "\n";
  }

  // 5. Hardware-aware objective (Section 7 extension): expected *routed*
  //    CNOTs per transition on a line topology, for the matrix tuned to the
  //    naive count vs the matrix tuned to the routed cost.
  std::cout << "\n5. Hardware-aware objective (line topology)\n";
  {
    DeviceTopology Line = DeviceTopology::line(H.numQubits());
    TransitionMatrix Pqd = buildQDrift(H);
    TransitionMatrix Pgc = buildGateCancellation(H);
    TransitionMatrix Phw = buildHardwareAwareGC(H, Line);
    Table HW({"matrix", "E[routed CNOT/transition]",
              "E[naive CNOT/transition]"});
    for (auto [Name, P] : {std::pair<const char *, TransitionMatrix *>{
                               "Pqd", &Pqd},
                           {"Pgc (naive costs)", &Pgc},
                           {"Phw (routed costs)", &Phw}})
      HW.addRow({Name,
                 formatDouble(expectedHardwareCNOTs(H, *P, Pi, Line)),
                 formatDouble(expectedTransitionCNOTs(H, *P, Pi))});
    HW.print(std::cout);
  }
  return 0;
}
