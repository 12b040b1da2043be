//===- tools/marqsim-cli.cpp - The MarQSim compiler driver --------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Command-line compiler: Hamiltonian text file (or registry model) in,
// OpenQASM 2.0 out. The CLI is a thin declarative shell: flags populate a
// TaskSpec and a SimulationService runs it, so repeated invocations with a
// persistent --cache-dir reuse min-cost-flow solutions by content hash.
//
//   marqsim-cli <hamiltonian.txt> [options]
//   marqsim-cli --model=Na+ [options]
//     --time=T            evolution time (default 1.0)
//     --epsilon=E         target precision (default 0.05)
//     --config=NAME       baseline | gc | gc-rp   (default gc)
//     --qd=W --gc=W --rp=W  custom configuration weights (override config)
//     --rounds=K          Prp perturbation rounds (default 8)
//     --perturb-seed=S    Prp cost-perturbation seed (default fixed)
//     --seed=S            sampling seed (default 1)
//     --shots=N           independent compilation shots (default 1); the
//                         QASM output is always shot 0
//     --jobs=J            worker threads for the batch and for the set-up's
//                         Prp perturbation solves (default 1, 0 = all
//                         cores); results are bit-identical for every J
//     --eval-jobs=J       worker threads *within* each shot's fidelity
//                         evaluation (default 1, 0 = all cores): the
//                         evaluator fans its fixed-width column blocks
//                         across J threads; results are bit-identical for
//                         every J. Complements --jobs when shots are few
//                         and columns are many
//     --shards=K          split the batch into K shot ranges, run them
//                         concurrently in this process (one thread per
//                         range, each with its own --jobs) and merge their
//                         manifests; the merged output is bit-identical to
//                         --shards=1, and the whole run performs one MCFP
//                         solve, with or without --cache-dir
//     --shard-dir=DIR     manifest directory for --shards (default: a
//                         per-invocation directory under the system temp
//                         dir; valid manifests found there are reused)
//     --workers=H:P,...   cross-host fleet mode: dispatch the shard shot
//                         ranges to resident marqsim-daemon workers over
//                         the JSON protocol instead of running them in
//                         this process (--shards defaults to the worker
//                         count). The coordinator performs the single
//                         MCFP solve and pushes the deterministic
//                         artifacts to every worker as content-addressed
//                         artifact-put frames, so no shared --cache-dir
//                         or filesystem is needed; the merged output is
//                         bit-identical to a single-process run, and a
//                         worker that dies or times out mid-range is
//                         dropped with its range re-dispatched to the
//                         survivors
//     --fleet-timeout-ms=T  per-range worker timeout in fleet mode; a
//                         worker exceeding it is treated as dead
//                         (default 0 = wait forever)
//     --columns=K         fidelity-estimation columns (default 0 = off);
//                         evaluated per shot on the batch workers
//     --noise=MODEL       noise channel applied during fidelity
//                         evaluation: none (default) | depolarizing |
//                         phase-flip | amplitude-damping. Requires
//                         --columns=N; the compiled QASM is unaffected
//     --noise-prob=P      per-gate error probability in [0, 1]
//                         (default 0; 0 disables the channel)
//     --noise-2q-factor=F error-probability multiplier for rotations
//                         touching >= 2 qubits (default 1)
//     --noise-mode=M      stochastic (default): deterministic Pauli-twirl
//                         injection on a dedicated per-shot RNG
//                         substream, bit-identical for every --jobs/
//                         --eval-jobs/--shards split; or density: the
//                         exact density-matrix oracle of the twirled
//                         channel (<= 6 qubits)
//     --cache-dir=DIR     persistent artifact store: MCFP components,
//                         alias bundles, fidelity columns (default from
//                         $MARQSIM_CACHE_DIR; empty = in-memory only);
//                         validated up front — an unwritable path is an
//                         error, not a silent uncached run
//     --cache-limit-mb=M  in-memory artifact cache budget in MiB
//                         (fractions allowed; default 0 = unbounded);
//                         artifacts evict least-recently-used, results
//                         are bit-identical for every budget
//     --out=FILE          write QASM here (default stdout)
//     --stats             print gate + cache statistics to stderr (with
//                         --shots>1, the per-batch aggregate table), the
//                         dispatched kernel tier, the set-up time (MCFP
//                         solves, targets; not with --shards) and the
//                         walk/emission vs evaluation phase timing
//     --stats-json        emit the same accounting as one machine-readable
//                         JSON object ("marqsim-stats-v1") on stdout —
//                         the exact serializer behind the daemon's stats
//                         frames, so the two surfaces cannot drift.
//                         Requires --out (stdout must carry only the JSON)
//     --connect=HOST:PORT run the task on a resident marqsim-daemon
//                         instead of in-process. The Hamiltonian is
//                         resolved locally and shipped inline; the result
//                         comes back as a bit-exact manifest, so QASM,
//                         fidelity hexes, and the batch hash are byte-
//                         identical to a local run of the same spec
//     --stream            with --connect: ask the daemon for streamed
//                         per-chunk shot frames (progress on stderr)
//     --server-stats      with --connect: print the daemon's cumulative
//                         stats frame as JSON on stdout and exit (no
//                         Hamiltonian needed). The cumulative cache
//                         section is where the one-solve contract shows:
//                         its gc_solves must not grow across repeated
//                         submits of one spec
//     --dot=FILE          also dump the HTT graph as Graphviz DOT
//
// Any other flag is a usage error naming it: a typo must never run
// something other than what was asked.
//
// Exit codes: 0 success, 1 usage error, 2 malformed input / failed run.
//
//===----------------------------------------------------------------------===//

#include "circuit/QasmExport.h"
#include "server/Client.h"
#include "shard/ShardCoordinator.h"
#include "support/Table.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

using namespace marqsim;

namespace {

/// Every flag this driver reads.
const std::vector<std::string> KnownFlags = {
    "cache-dir", "cache-limit-mb", "columns", "config", "connect", "dot",
    "epsilon", "eval-jobs", "fleet-timeout-ms", "gc", "help", "jobs",
    "model", "noise", "noise-2q-factor", "noise-mode", "noise-prob", "out",
    "perturb-seed", "qd", "rounds", "rp", "seed", "server-stats",
    "shard-dir", "shards", "shots", "stats", "stats-json", "stream",
    "time", "workers"};

void printBatchTable(const TaskSpec &Spec, const TaskResult &Result) {
  const BatchResult &Batch = Result.Batch;
  Table Agg({"metric", "mean", "std", "min", "max"});
  auto AddRow = [&](const char *Name, const SummaryStat &S) {
    Agg.addRow({Name, formatDouble(S.Mean), formatDouble(S.Std),
                formatDouble(S.Min), formatDouble(S.Max)});
  };
  AddRow("samples N", Batch.Samples);
  AddRow("CNOTs", Batch.CNOTs);
  AddRow("1q gates", Batch.Singles);
  AddRow("total gates", Batch.Totals);
  if (Result.HasFidelity)
    AddRow("fidelity", Result.Fidelity);
  std::cerr << "batch: " << Spec.Shots << " shots, jobs=" << Batch.JobsUsed
            << ", " << formatDouble(Batch.Seconds)
            << " s, hash=" << Batch.batchHash() << "\n";
  Agg.print(std::cerr);
}

void printCacheStats(const CacheStats &S) {
  std::cerr << "matrix-cache hits=" << S.matrixHits()
            << " misses=" << S.matrixMisses() << " disk=" << S.DiskLoads
            << "\ngraph-cache hits=" << S.GraphHits
            << " misses=" << S.GraphMisses << " evaluator-cache hits="
            << S.EvaluatorHits << " misses=" << S.EvaluatorMisses << "\n";
}

void printStoreStats(const ArtifactStore::Stats &S, size_t LimitBytes) {
  std::cerr << "store: mem-hits=" << S.MemoryHits
            << " disk-hits=" << S.DiskHits << " computes=" << S.Computes
            << " evictions=" << S.Evictions
            << " bytes=" << S.BytesInUse << " peak=" << S.PeakBytes
            << " limit=" << LimitBytes << " disk-writes=" << S.DiskWrites
            << "\n";
}

/// --connect mode: ship the spec to a resident daemon and rebuild the
/// result locally from the returned manifest. Output is byte-identical
/// to a local run of the same spec.
int runConnectMode(const CommandLine &CL, TaskSpec Spec) {
  std::string Error;
  // DumpDot is excluded from contentKey, so asking the daemon for the
  // graph does not perturb caching.
  Spec.Evaluate.DumpDot = CL.has("dot");
  std::optional<server::DaemonClient> Client =
      server::DaemonClient::connectTo(CL.getString("connect"), &Error);
  if (!Client) {
    std::cerr << "error: " << Error << "\n";
    return 2;
  }
  const bool Stream = CL.getBool("stream");
  server::ShotProgress Progress;
  if (Stream)
    Progress = [](const ShotRange &R, size_t Total) {
      std::cerr << "shots [" << R.Begin << ", " << R.end() << ") of "
                << Total << " done\n";
    };
  std::optional<server::RemoteRunResult> Out =
      Client->runTask(Spec, &Error, Stream, /*DeadlineMs=*/0, Progress);
  if (!Out) {
    std::cerr << "error: " << Error << "\n";
    return 2;
  }

  if (CL.has("dot")) {
    std::ofstream Dot(CL.getString("dot"));
    Dot << Out->Dot;
  }
  if (CL.has("out")) {
    std::ofstream File(CL.getString("out"));
    File << Out->Qasm;
  } else {
    std::cout << Out->Qasm;
  }

  if (Spec.Shots > 1)
    printBatchTable(Spec, Out->Result);

  if (CL.getBool("stats")) {
    const TaskResult &R = Out->Result;
    // Shot 0 travels as rendered text plus its batch summary, not a
    // CompilationResult; the summary carries the same gate counts.
    const ShotSummary &S0 = R.Batch.Shots.front();
    std::cerr << "fingerprint=" << std::hex << R.Fingerprint << std::dec
              << " N=" << S0.NumSamples << " cnots=" << S0.Counts.CNOTs
              << " singles=" << S0.Counts.SingleQubit
              << " total=" << S0.Counts.total() << " depth=" << Out->Depth
              << "\n";
    std::cerr << "remote: daemon=" << CL.getString("connect")
              << " request-id=" << Out->RequestId << "\n";
    if (Spec.Noise.enabled())
      std::cerr << "noise: " << noiseChannelName(Spec.Noise.Kind)
                << " mode=" << noiseModeName(Spec.Noise.Mode)
                << " prob=" << formatDouble(Spec.Noise.Prob, 6)
                << " 2q-factor=" << formatDouble(Spec.Noise.TwoQubitFactor, 6)
                << "\n";
    if (R.HasFidelity && Spec.Shots == 1)
      std::cerr << "fidelity=" << formatDouble(R.ShotFidelities[0], 6)
                << " (" << Spec.Evaluate.FidelityColumns << " columns)\n";
    // R.Stats arrived inside the manifest: the daemon's per-run cache
    // accounting, which is what a warm-path check wants to see.
    printCacheStats(R.Stats);
  }
  if (CL.getBool("stats-json"))
    std::cout << Out->Stats.dump() << "\n";
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  if (CL.rejectUnknown(KnownFlags))
    return 1;
  // A pure stats query needs no Hamiltonian; handle it before the usage
  // gate below would demand one.
  if (CL.has("connect") && CL.getBool("server-stats")) {
    std::string Error;
    std::optional<server::DaemonClient> Client =
        server::DaemonClient::connectTo(CL.getString("connect"), &Error);
    std::optional<json::Value> Stats;
    if (Client)
      Stats = Client->serverStats(&Error);
    if (!Stats) {
      std::cerr << "error: " << Error << "\n";
      return 2;
    }
    std::cout << Stats->dump() << "\n";
    return 0;
  }
  if ((CL.positionals().empty() && !CL.has("model")) || CL.getBool("help")) {
    std::cerr << "usage: marqsim-cli <hamiltonian.txt> | --model=NAME\n"
                 "  [--time=T] [--epsilon=E]\n"
                 "  [--config=baseline|gc|gc-rp] [--qd=W --gc=W --rp=W]\n"
                 "  [--rounds=K] [--perturb-seed=S] [--seed=S] [--shots=N]\n"
                 "  [--jobs=J] [--eval-jobs=J] [--shards=K] [--shard-dir=DIR]\n"
                 "  [--workers=HOST:PORT,...] [--fleet-timeout-ms=T]\n"
                 "  [--columns=K]\n"
                 "  [--noise=MODEL] [--noise-prob=P] [--noise-2q-factor=F]\n"
                 "  [--noise-mode=stochastic|density]\n"
                 "  [--cache-dir=DIR] [--cache-limit-mb=M] [--out=FILE]\n"
                 "  [--stats] [--stats-json] [--dot=FILE]\n"
                 "  [--connect=HOST:PORT] [--stream] [--server-stats]\n";
    return 1;
  }

  std::string Error;
  std::optional<TaskSpec> Spec = TaskSpec::fromCommandLine(CL, &Error);
  if (!Spec) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  ServiceOptions Options;
  if (const char *Env = std::getenv("MARQSIM_CACHE_DIR"))
    Options.CacheDir = Env;
  Options.CacheDir = CL.getString("cache-dir", Options.CacheDir);
  // An unusable cache directory is a hard error: every downstream layer
  // treats the store as best-effort, so without this check a typo'd path
  // would silently re-solve everything on every invocation.
  if (!ArtifactStore::validateCacheDir(Options.CacheDir, &Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }
  std::optional<size_t> LimitBytes =
      mebibytesToBytes(CL.getDouble("cache-limit-mb", 0.0));
  if (!LimitBytes) {
    std::cerr << "error: --cache-limit-mb must be a non-negative number\n";
    return 1;
  }
  Options.CacheLimitBytes = *LimitBytes;

  bool CoordinatorMode = CL.has("shards") || CL.has("workers");
  if (CL.getBool("stats-json") && !CL.has("out")) {
    std::cerr << "error: --stats-json needs --out so stdout carries only "
                 "the JSON object\n";
    return 1;
  }
  if (CL.has("connect")) {
    if (CoordinatorMode) {
      std::cerr << "error: --connect runs on the daemon; it is mutually "
                   "exclusive with --shards and --workers\n";
      return 1;
    }
    return runConnectMode(CL, *Spec);
  }

  SimulationService Service(Options);
  std::optional<TaskResult> Result;
  ShardReport Report;
  bool Sharded = false;
  // Wall time of the non-sharded Service.run, set-up and batch together.
  double RunSeconds = 0;

  if (CoordinatorMode) {
    // Fleet mode: a comma-separated worker list; one shard per worker by
    // default so every daemon gets a range.
    std::vector<std::string> Workers;
    if (CL.has("workers")) {
      std::string List = CL.getString("workers");
      for (size_t Pos = 0; Pos <= List.size();) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        std::string HostPort = List.substr(Pos, Comma - Pos);
        if (!HostPort.empty())
          Workers.push_back(std::move(HostPort));
        Pos = Comma + 1;
      }
      if (Workers.empty()) {
        std::cerr << "error: --workers needs at least one host:port\n";
        return 1;
      }
    }
    int64_t Shards = CL.getInt(
        "shards", Workers.empty() ? 1 : static_cast<int64_t>(Workers.size()));
    if (Shards < 1) {
      std::cerr << "error: --shards must be at least 1\n";
      return 1;
    }
    int64_t FleetTimeout = CL.getInt("fleet-timeout-ms", 0);
    if (FleetTimeout < 0) {
      std::cerr << "error: --fleet-timeout-ms must be non-negative\n";
      return 1;
    }
    ShardOptions Shard;
    Shard.ShardCount = static_cast<unsigned>(Shards);
    Shard.Workers = std::move(Workers);
    Shard.FleetTimeoutMs = static_cast<unsigned>(FleetTimeout);
    Shard.WorkDir = CL.getString("shard-dir");
    bool AutoWorkDir = Shard.WorkDir.empty();
    if (AutoWorkDir)
      Shard.WorkDir = (std::filesystem::temp_directory_path() /
                       ("marqsim-shards-" + std::to_string(::getpid())))
                          .string();
    // The coordinator runs on this process's service: the prewarm there
    // is the run's one MCFP solve, local ranges resolve through the same
    // store, and the shot-0 recompile below hits it instead of solving
    // again.
    Shard.SharedService = &Service;
    ShardCoordinator Coordinator(Shard);
    Result = Coordinator.run(*Spec, &Error, &Report);
    Sharded = true;
    if (Result) {
      // Shot 0 (QASM) and the DOT dump cannot travel through manifests;
      // a one-shot ranged run against the shared cache recompiles exactly
      // that shot — deterministically the same circuit the batch saw.
      TaskSpec ShotZeroSpec = *Spec;
      ShotZeroSpec.Evaluate.ExportShotZero = true;
      ShotZeroSpec.Evaluate.DumpDot = CL.has("dot");
      ShotZeroSpec.Evaluate.FidelityColumns = 0;
      // Noise models execution, not compilation, and a columns-free spec
      // rejects it — strip it so the recompile stays a pure circuit run.
      ShotZeroSpec.Noise = NoiseSpec();
      std::optional<TaskResult> ShotZero =
          Service.run(ShotZeroSpec, ShotRange{0, 1}, &Error);
      if (!ShotZero) {
        Result.reset();
      } else {
        Result->ShotZero = std::move(ShotZero->ShotZero);
        Result->HasShotZero = true;
        Result->GraphDot = std::move(ShotZero->GraphDot);
      }
    }
    // The per-invocation default work directory has no resume value (its
    // pid-based name is never reused): drop it on success, keep it — and
    // any explicit --shard-dir — for diagnosis and resume otherwise.
    if (Result && AutoWorkDir) {
      std::error_code EC;
      std::filesystem::remove_all(Shard.WorkDir, EC);
    }
  } else {
    Spec->Evaluate.ExportShotZero = true; // shot 0 carries the QASM output
    Spec->Evaluate.DumpDot = CL.has("dot");
    const auto RunStart = std::chrono::steady_clock::now();
    Result = Service.run(*Spec, &Error);
    RunSeconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - RunStart)
                     .count();
  }
  if (!Result) {
    std::cerr << "error: " << Error << "\n";
    return 2;
  }

  if (CL.has("dot")) {
    std::ofstream Dot(CL.getString("dot"));
    Dot << Result->GraphDot;
  }
  // Shot 0 is the one circuit this process reads gate by gate: lower it
  // once for the QASM, the depth and the stats object.
  const Circuit ShotZeroCircuit = Result->ShotZero.circuit();
  if (CL.has("out")) {
    std::ofstream Out(CL.getString("out"));
    exportQasm(ShotZeroCircuit, Out);
  } else {
    exportQasm(ShotZeroCircuit, std::cout);
  }

  if (Spec->Shots > 1)
    printBatchTable(*Spec, *Result);

  if (CL.getBool("stats")) {
    const CompilationResult &R = Result->ShotZero;
    std::cerr << "fingerprint=" << std::hex << Result->Fingerprint
              << std::dec << " N=" << R.NumSamples
              << " cnots=" << R.Counts.CNOTs
              << " singles=" << R.Counts.SingleQubit
              << " total=" << R.Counts.total()
              << " depth=" << ShotZeroCircuit.depth() << "\n";
    std::cerr << "kernels: " << SimulationService::kernelName()
              << " detected=" << SimulationService::detectedKernelName()
              << " avx512-os="
              << (SimulationService::avx512OsEnabled() ? "yes" : "no")
              << "\n";
    if (Spec->Noise.enabled())
      std::cerr << "noise: " << noiseChannelName(Spec->Noise.Kind)
                << " mode=" << noiseModeName(Spec->Noise.Mode)
                << " prob=" << formatDouble(Spec->Noise.Prob, 6)
                << " 2q-factor=" << formatDouble(Spec->Noise.TwoQubitFactor, 6)
                << "\n";
    if (Result->HasFidelity && Spec->Shots == 1)
      std::cerr << "fidelity=" << formatDouble(Result->ShotFidelities[0], 6)
                << " (" << Spec->Evaluate.FidelityColumns << " columns)\n";
    // Phase split of the batch: walk/emission (the sequential Markov part)
    // vs per-shot evaluation (the fidelity calls). Both are CPU-seconds
    // summed per shot, so either can exceed the wall figure when shots
    // run concurrently. For sharded runs the wall figure is the
    // coordinator's whole run (pre-warm + ranges + merge), not a batch
    // clock, and only the summed per-range eval time travels back.
    if (!Sharded) {
      // Everything the run did before the batch: matrix solves or loads,
      // the walk tables and the exact targets.
      std::cerr << "setup: wall="
                << formatDouble(RunSeconds - Result->Batch.Seconds) << " s\n";
      std::cerr << "phase: wall=" << formatDouble(Result->Batch.Seconds)
                << " s walk+emit-cpu="
                << formatDouble(Result->Batch.CompileSeconds)
                << " s eval-cpu=" << formatDouble(Result->Batch.EvalSeconds)
                << " s\n";
    } else {
      std::cerr << "phase: coordinator-wall="
                << formatDouble(Result->Batch.Seconds)
                << " s eval-cpu=" << formatDouble(Result->Batch.EvalSeconds)
                << " s (summed across ranges)\n";
    }
    if (Sharded) {
      // Whole-run accounting; "gc-solves=1" is the one-solve contract.
      // The pre-warm, every local range and the shot-0 recompile all ran
      // on this process's service, so Service.stats() counts each solve
      // once. Only fleet ranges ran elsewhere.
      CacheStats Total = Service.stats();
      if (Report.Fleet.Used)
        Total += Report.WorkerStats;
      if (Report.Fleet.Used) {
        size_t Dead = 0;
        for (const FleetWorkerStats &W : Report.Fleet.Workers) {
          if (!W.Alive)
            ++Dead;
          std::cerr << "fleet-worker: " << W.HostPort
                    << (W.Alive ? "" : " (dead)")
                    << " dispatched=" << W.RangesDispatched
                    << " redispatched=" << W.RangesRedispatched
                    << " fetch-hits=" << W.FetchHits
                    << " fetch-misses=" << W.FetchMisses
                    << " artifact-bytes=" << W.ArtifactBytesServed
                    << " eval=" << formatDouble(W.EvalSeconds) << " s\n";
        }
        std::cerr << "fleet: workers=" << Report.Fleet.Workers.size()
                  << " dead=" << Dead << "\n";
      }
      std::cerr << "shard: shards=" << Report.Plan.shardCount()
                << " retries=" << Report.Retries
                << " reused=" << Report.Reused
                << " gc-solves=" << Total.GCSolveMisses
                << " rp-solves=" << Total.RPSolveMisses
                << " disk-loads=" << Total.DiskLoads << "\n";
      for (const std::string &Note : Report.Notes)
        std::cerr << "shard-note: " << Note << "\n";
      printCacheStats(Total);
    } else {
      printCacheStats(Result->Stats);
    }
    // No store: line for fleet runs — each worker has its own store, so
    // this process's tier counters would misleadingly sit next to the
    // whole-run shard accounting above.
    if (!Report.Fleet.Used)
      printStoreStats(Service.storeStats(), Options.CacheLimitBytes);
  }

  if (CL.getBool("stats-json")) {
    // The same serializer that backs the daemon's stats frames; for
    // fleet runs the per-process store tiers are omitted (each worker had
    // its own store, so this process's counters would mislead).
    ArtifactStore::Stats Store = Service.storeStats();
    json::Value StatsJson =
        server::runStatsJson(*Spec, *Result, &ShotZeroCircuit,
                             Report.Fleet.Used ? nullptr : &Store,
                             Options.CacheLimitBytes);
    // Additive key: present only when fleet mode actually dispatched, so
    // existing marqsim-stats-v1 consumers parse unchanged.
    if (Report.Fleet.Used)
      StatsJson.set("fleet", server::fleetStatsJson(Report.Fleet));
    std::cout << StatsJson.dump() << "\n";
  }
  return 0;
}
