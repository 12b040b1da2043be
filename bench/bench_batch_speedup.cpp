//===- bench/bench_batch_speedup.cpp - Batch compilation speedup -------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Times CompilerEngine::compileBatch on the Fig. 11 / Example 5.3
// Hamiltonian with the MarQSim-GC-RP configuration: set-up once (the
// transition matrix, HTT graph and sampling tables), then the shots on one
// worker and fanned across --jobs workers from counter-based RNG
// substreams.
//
// The harness also cross-checks determinism: the batch hash must be
// identical for jobs=1 and jobs=--jobs.
//
// Flags: --shots=N (64) --jobs=J (8) --time=T (1.0) --epsilon=E (0.002)
//        --rounds=K (16, Prp perturbation rounds) --seed=S (1)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "shard/ShardCoordinator.h"
#include "support/Timer.h"

#include <filesystem>
#include <iostream>
#include <memory>

using namespace marqsim;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  int64_t ShotsArg = CL.getInt("shots", 64);
  if (ShotsArg < 1) {
    std::cerr << "error: --shots must be at least 1\n";
    return 1;
  }
  size_t Shots = static_cast<size_t>(ShotsArg);
  unsigned Jobs = static_cast<unsigned>(CL.getInt("jobs", 8));
  double Time = CL.getDouble("time", 1.0);
  double Eps = CL.getDouble("epsilon", 0.002);
  unsigned Rounds = static_cast<unsigned>(CL.getInt("rounds", 16));
  uint64_t Seed = static_cast<uint64_t>(CL.getInt("seed", 1));

  // The paper's Example 5.3 Hamiltonian (Fig. 11).
  Hamiltonian H = Hamiltonian::parse({{1.0, "IIIZY"},
                                      {1.0, "XXIII"},
                                      {0.7, "ZXZYI"},
                                      {0.5, "IIZZX"},
                                      {0.3, "XXYYZ"}})
                      .splitLargeTerms();
  const ConfigSpec Config = paperConfigs().back(); // MarQSim-GC-RP

  std::cout << "Batch speedup on the Fig. 11 Hamiltonian ("
            << H.numTerms() << " strings, t=" << formatDouble(Time)
            << ", eps=" << formatDouble(Eps) << ", " << Shots
            << " shots, config " << Config.Name << ")\n\n";

  // Batch: setup once, shots in parallel.
  CompilerEngine Engine;
  Timer Setup;
  TransitionMatrix P =
      makeConfigMatrix(H, Config.Mix.WQd, Config.Mix.WGc, Config.Mix.WRp,
                       Rounds, Seed ^ 0xBA7C);
  BatchRequest Req;
  Req.Strategy = std::make_shared<const SamplingStrategy>(
      std::make_shared<const HTTGraph>(H, std::move(P)), Time, Eps);
  Req.NumShots = Shots;
  Req.Seed = Seed;
  double SetupSeconds = Setup.seconds();

  // Both compileBatch rows charge the shared setup once, so they are
  // comparable to each other.
  Req.Jobs = Jobs;
  Timer Parallel;
  BatchResult Batch = Engine.compileBatch(Req);
  double BatchSeconds = Parallel.seconds() + SetupSeconds;

  Req.Jobs = 1;
  BatchResult Serial = Engine.compileBatch(Req);
  double SerialSeconds = Serial.Seconds + SetupSeconds;

  Table T({"mode", "wall(s)", "CNOT(mean)", "CNOT(std)", "batch hash"});
  T.addRow({"compileBatch jobs=1", formatDouble(SerialSeconds),
            formatDouble(Serial.CNOTs.Mean), formatDouble(Serial.CNOTs.Std),
            std::to_string(Serial.batchHash())});
  T.addRow({"compileBatch jobs=" + std::to_string(Batch.JobsUsed),
            formatDouble(BatchSeconds), formatDouble(Batch.CNOTs.Mean),
            formatDouble(Batch.CNOTs.Std),
            std::to_string(Batch.batchHash())});
  T.print(std::cout);

  bool Deterministic = Batch.batchHash() == Serial.batchHash();
  std::cout << "\nsetup (matrix + graph + alias tables): "
            << formatDouble(SetupSeconds) << " s, amortized over " << Shots
            << " shots\njobs=1 vs jobs=" << std::to_string(Batch.JobsUsed)
            << " bit-identical: " << (Deterministic ? "yes" : "NO") << "\n";

  // Service-level amortization: the same workload as declarative tasks
  // through one SimulationService. The first task pays the MCFP solve and
  // table construction; every later task (here: an epsilon sweep) resolves
  // them from the content-hash caches.
  std::cout << "\nService-level setup amortization (one SimulationService, "
               "epsilon sweep):\n";
  SimulationService Service;
  TaskSpec Task;
  Task.Source = HamiltonianSource::fromHamiltonian(H);
  Task.Mix = Config.Mix;
  Task.PerturbRounds = Rounds;
  Task.PerturbSeed = Seed ^ 0xBA7C;
  Task.Time = Time;
  Task.Shots = Shots;
  Task.Jobs = Jobs;
  Task.Seed = Seed;
  Table Svc({"task", "eps", "wall(s)", "batch hash", "MCFP solves",
             "cache hits"});
  bool ServiceDeterministic = true;
  uint64_t ColdHash = 0;
  const std::vector<double> SweepEps = {Eps, Eps * 2, Eps * 4, Eps};
  for (size_t I = 0; I < SweepEps.size(); ++I) {
    Task.Epsilon = SweepEps[I];
    Timer Wall;
    std::optional<TaskResult> R = Service.run(Task);
    double Seconds = Wall.seconds();
    if (!R)
      return 1;
    if (I == 0)
      ColdHash = R->Batch.batchHash();
    else if (I + 1 == SweepEps.size() &&
             R->Batch.batchHash() != ColdHash)
      ServiceDeterministic = false; // same eps + seed must replay exactly
    Svc.addRow({I == 0 ? "cold" : "warm", formatDouble(Task.Epsilon),
                formatDouble(Seconds),
                std::to_string(R->Batch.batchHash()),
                std::to_string(R->Stats.matrixMisses()),
                std::to_string(R->Stats.matrixHits() + R->Stats.GraphHits)});
  }
  Svc.print(std::cout);
  CacheStats Totals = Service.stats();
  std::cout << "service totals: MCFP solves=" << Totals.matrixMisses()
            << " reused=" << Totals.matrixHits()
            << ", graphs built=" << Totals.GraphMisses << " reused="
            << Totals.GraphHits << "\nrepeat task bit-identical: "
            << (ServiceDeterministic ? "yes" : "NO") << "\n";
  bool OneSolvePerConfig = Totals.GCSolveMisses <= 1 &&
                           Totals.RPSolveMisses <= 1;
  if (!OneSolvePerConfig)
    std::cout << "ERROR: expected at most one MCFP solve per component\n";

  // Sharding: the same task split into K shot ranges that run
  // concurrently in-process. Each row uses a fresh coordinator-owned
  // service, so it shows the whole-run solve count.
  std::cout << "\nSharding (ShardCoordinator, --shards analogue):\n";
  std::filesystem::path ShardBase =
      std::filesystem::temp_directory_path() / "marqsim_bench_shards";
  std::filesystem::remove_all(ShardBase);
  TaskSpec ShardTask = Task;
  ShardTask.Epsilon = Eps;

  Table Sh({"shards", "wall(s)", "batch hash", "MCFP solves", "retries"});
  bool ShardDeterministic = true, ShardOneSolve = true;
  uint64_t ShardHash = 0;
  for (unsigned K : {1u, 2u, 4u}) {
    ShardOptions Options;
    Options.ShardCount = K;
    Options.WorkDir = (ShardBase / ("work" + std::to_string(K))).string();
    ShardCoordinator Coordinator(Options);
    ShardReport Report;
    std::string Error;
    Timer Wall;
    std::optional<TaskResult> R = Coordinator.run(ShardTask, &Error, &Report);
    double Seconds = Wall.seconds();
    if (!R) {
      std::cout << "ERROR: " << Error << "\n";
      return 1;
    }
    if (K == 1)
      ShardHash = R->Batch.batchHash();
    else if (R->Batch.batchHash() != ShardHash)
      ShardDeterministic = false;
    size_t Solves = Report.LocalStats.matrixMisses() +
                    Report.WorkerStats.matrixMisses();
    // The GC-RP configuration has two MCFP components (Pgc and Prp): one
    // solve each for the whole sharded run, no matter how many ranges.
    if (Solves > 2)
      ShardOneSolve = false;
    Sh.row(K, formatDouble(Seconds), std::to_string(R->Batch.batchHash()),
           Solves, Report.Retries);
  }
  std::filesystem::remove_all(ShardBase);
  Sh.print(std::cout);
  std::cout << "K-shard merge bit-identical: "
            << (ShardDeterministic ? "yes" : "NO")
            << "\none MCFP solve per component per run: "
            << (ShardOneSolve ? "yes" : "NO") << "\n";

  return Deterministic && ServiceDeterministic && OneSolvePerConfig &&
                 ShardDeterministic && ShardOneSolve
             ? 0
             : 1;
}
