//===- shard/ShardCoordinator.cpp - Cross-process batch sharding -------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardCoordinator.h"

#include "server/Client.h"
#include "stats/Stats.h"
#include "support/Serial.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

using namespace marqsim;

std::string ShardCoordinator::manifestPath(const std::string &WorkDir,
                                           unsigned Index) {
  return (std::filesystem::path(WorkDir) /
          ("shard-" + std::to_string(Index) + ".manifest"))
      .string();
}

//===----------------------------------------------------------------------===//
// Worker command line
//===----------------------------------------------------------------------===//

namespace {

std::string bitsFlag(const char *Name, double Value) {
  return std::string("--") + Name + "=" + serial::hex16(serial::doubleBits(Value));
}

std::string intFlag(const char *Name, uint64_t Value) {
  return std::string("--") + Name + "=" + std::to_string(Value);
}

} // namespace

std::optional<std::vector<std::string>> ShardCoordinator::workerArgs(
    const std::string &Binary, const TaskSpec &Spec, unsigned Index,
    unsigned Count, const std::string &ManifestPath,
    const std::string &CacheDir, size_t CacheLimitBytes,
    std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    detail::fail(Error, "shard worker: " + Message);
    return std::nullopt;
  };
  if (Spec.Method != TaskMethod::Sampling)
    return Fail("only sampling tasks can re-exec through marqsim-cli");
  if (!Spec.Lowering.Emit.CrossCancellation)
    return Fail("custom lowering options cannot travel over the command "
                "line");
  // The CLI parses every count/seed as a signed 64-bit integer; a value
  // past INT64_MAX would wrap in the worker and silently change its key.
  const uint64_t SignedMax =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  if (Spec.Seed > SignedMax || Spec.PerturbSeed > SignedMax ||
      Spec.Evaluate.ColumnSeed > SignedMax)
    return Fail("seeds above INT64_MAX cannot travel over the command line");
  if (Spec.Flow.ProbScale < 0 || Spec.Flow.CostScale < 0)
    return Fail("negative MCFP scales cannot travel over the command line");

  std::vector<std::string> Argv;
  Argv.push_back(Binary);
  switch (Spec.Source.SourceKind) {
  case HamiltonianSource::Kind::File:
    Argv.push_back(Spec.Source.Path);
    break;
  case HamiltonianSource::Kind::Model:
    Argv.push_back("--model=" + Spec.Source.Model);
    break;
  case HamiltonianSource::Kind::Inline:
    return Fail("inline Hamiltonian sources cannot re-exec; write the "
                "operator to a file first");
  }
  // Weights, time, and epsilon travel as raw IEEE-754 bit patterns
  // (hidden worker flags): a decimal round trip could perturb the last
  // ulp, which would change cache keys and the transition matrix itself.
  Argv.push_back(bitsFlag("mix-qd-bits", Spec.Mix.WQd));
  Argv.push_back(bitsFlag("mix-gc-bits", Spec.Mix.WGc));
  Argv.push_back(bitsFlag("mix-rp-bits", Spec.Mix.WRp));
  Argv.push_back(bitsFlag("time-bits", Spec.Time));
  Argv.push_back(bitsFlag("epsilon-bits", Spec.Epsilon));
  Argv.push_back(intFlag("rounds", Spec.PerturbRounds));
  Argv.push_back(intFlag("perturb-seed", Spec.PerturbSeed));
  Argv.push_back(intFlag("prob-scale", static_cast<uint64_t>(Spec.Flow.ProbScale)));
  Argv.push_back(intFlag("cost-scale", static_cast<uint64_t>(Spec.Flow.CostScale)));
  Argv.push_back(intFlag("seed", Spec.Seed));
  Argv.push_back(intFlag("shots", Spec.Shots));
  Argv.push_back(intFlag("jobs", Spec.Jobs));
  Argv.push_back(intFlag("eval-jobs", Spec.EvalJobs));
  Argv.push_back(intFlag("columns", Spec.Evaluate.FidelityColumns));
  Argv.push_back(intFlag("column-seed", Spec.Evaluate.ColumnSeed));
  // The noise spec travels like time/epsilon: names in the clear, the
  // probability and factor as raw bit patterns (an ulp of drift would
  // change the contentKey and every noise draw).
  if (Spec.Noise.Kind != NoiseChannelKind::None) {
    Argv.push_back(std::string("--noise=") + noiseChannelName(Spec.Noise.Kind));
    Argv.push_back(std::string("--noise-mode=") +
                   noiseModeName(Spec.Noise.Mode));
    Argv.push_back(bitsFlag("noise-prob-bits", Spec.Noise.Prob));
    Argv.push_back(bitsFlag("noise-2q-factor-bits", Spec.Noise.TwoQubitFactor));
  }
  if (Spec.UseCDF)
    Argv.push_back("--cdf");
  if (!CacheDir.empty())
    Argv.push_back("--cache-dir=" + CacheDir);
  if (CacheLimitBytes > 0)
    Argv.push_back(intFlag("cache-limit-bytes", CacheLimitBytes));
  Argv.push_back(intFlag("shard-index", Index));
  Argv.push_back(intFlag("shard-count", Count));
  Argv.push_back("--shard-out=" + ManifestPath);
  return Argv;
}

//===----------------------------------------------------------------------===//
// Worker-side execution
//===----------------------------------------------------------------------===//

std::optional<ShardManifest> ShardCoordinator::runShard(
    SimulationService &Service, const TaskSpec &Spec, unsigned Index,
    unsigned Count, std::string *Error) {
  ShardPlan Plan = ShardPlan::split(Spec.Shots, Count);
  if (Index >= Plan.shardCount()) {
    detail::fail(Error, "shard index " + std::to_string(Index) +
                            " out of range: " + std::to_string(Spec.Shots) +
                            " shots split into " +
                            std::to_string(Plan.shardCount()) + " shards");
    return std::nullopt;
  }
  ShotRange Range = Plan.Ranges[Index];
  // Per-shot artifacts that cannot travel through a manifest are dropped
  // here, not rejected: the worker owes the coordinator summaries only.
  TaskSpec Ranged = Spec;
  Ranged.Evaluate.ExportShotZero = false;
  Ranged.Evaluate.DumpDot = false;
  Ranged.Evaluate.KeepResults = false;
  std::optional<TaskResult> Result = Service.run(Ranged, Range, Error);
  if (!Result)
    return std::nullopt;
  return ShardManifest::fromTaskResult(Spec, Range, *Result);
}

//===----------------------------------------------------------------------===//
// Merge
//===----------------------------------------------------------------------===//

std::optional<TaskResult>
ShardCoordinator::merge(const TaskSpec &Spec, uint64_t ExpectedFingerprint,
                        std::vector<ShardManifest> Manifests,
                        std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    detail::fail(Error, "shard merge: " + Message);
    return std::nullopt;
  };
  if (Manifests.empty())
    return Fail("no manifests");
  std::sort(Manifests.begin(), Manifests.end(),
            [](const ShardManifest &A, const ShardManifest &B) {
              return A.Range.Begin < B.Range.Begin;
            });

  const ShardManifest &First = Manifests.front();
  const uint64_t SpecKey = Spec.contentKey();
  bool WantFidelity = Spec.Evaluate.FidelityColumns > 0;
  size_t NextShot = 0;
  for (const ShardManifest &M : Manifests) {
    if (M.Fingerprint != ExpectedFingerprint)
      return Fail("fingerprint mismatch: manifest for range [" +
                  std::to_string(M.Range.Begin) + ", " +
                  std::to_string(M.Range.end()) +
                  ") was compiled from a different Hamiltonian");
    if (M.Seed != Spec.Seed)
      return Fail("seed mismatch");
    if (M.SpecKey != SpecKey)
      return Fail("task configuration mismatch: manifest for range [" +
                  std::to_string(M.Range.Begin) + ", " +
                  std::to_string(M.Range.end()) +
                  ") was compiled with different parameters");
    if (M.TotalShots != Spec.Shots)
      return Fail("batch size mismatch");
    if (M.StrategyName != First.StrategyName ||
        M.NumSamples != First.NumSamples)
      return Fail("manifests disagree on strategy or sampling budget");
    if (M.HasFidelity != WantFidelity)
      return Fail(WantFidelity ? "manifest is missing fidelity samples"
                               : "manifest has unexpected fidelity samples");
    if (M.Range.Begin != NextShot)
      return Fail("shot coverage has a gap or overlap at shot " +
                  std::to_string(NextShot));
    if (M.Shots.size() != M.Range.Count)
      return Fail("manifest shot count disagrees with its range");
    NextShot = M.Range.end();
  }
  if (NextShot != Spec.Shots)
    return Fail("shot coverage ends at " + std::to_string(NextShot) +
                ", expected " + std::to_string(Spec.Shots));

  TaskResult Result;
  Result.Fingerprint = ExpectedFingerprint;
  Result.NumSamples = First.NumSamples;
  BatchResult &B = Result.Batch;
  B.StrategyName = First.StrategyName;
  B.NumShots = Spec.Shots;
  B.Seed = Spec.Seed;
  B.Shots.reserve(Spec.Shots);
  Result.HasFidelity = WantFidelity;
  if (WantFidelity)
    Result.ShotFidelities.reserve(Spec.Shots);
  for (const ShardManifest &M : Manifests) {
    B.JobsUsed = std::max(B.JobsUsed, M.JobsUsed);
    B.EvalSeconds += M.EvalSeconds;
    B.Shots.insert(B.Shots.end(), M.Shots.begin(), M.Shots.end());
    if (WantFidelity)
      Result.ShotFidelities.insert(Result.ShotFidelities.end(),
                                   M.Fidelities.begin(), M.Fidelities.end());
    Result.Stats += M.Stats;
  }

  // The same sequential pass compileBatch runs, so the merged summaries
  // are bit-identical to the single-process run, not merely close.
  B.recomputeAggregates();

  if (WantFidelity) {
    RunningStats Fids;
    for (double F : Result.ShotFidelities)
      Fids.add(F);
    Result.Fidelity.Mean = Fids.mean();
    Result.Fidelity.Std = Fids.stddev();
    Result.Fidelity.Min = Fids.min();
    Result.Fidelity.Max = Fids.max();
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

std::optional<TaskResult> ShardCoordinator::run(const TaskSpec &Spec,
                                                std::string *Error,
                                                ShardReport *Report) {
  auto Fail = [&](const std::string &Message) {
    detail::fail(Error, "shard coordinator: " + Message);
    return std::nullopt;
  };
  std::string Validation;
  if (!Spec.validate(&Validation))
    return Fail(Validation);
  if (Spec.Evaluate.KeepResults || Spec.Evaluate.ExportShotZero ||
      Spec.Evaluate.DumpDot)
    return Fail("per-shot artifacts (KeepResults/ExportShotZero/DumpDot) "
                "cannot travel through manifests; compile them with a "
                "ranged single-process run instead");
  if (Options.WorkDir.empty())
    return Fail("a work directory is required");
  // A broken shared store must fail loudly: silently degrading to
  // per-worker MCFP solves would violate the one-solve contract without
  // any visible signal.
  std::string DirError;
  if (!ArtifactStore::validateCacheDir(Options.CacheDir, &DirError))
    return Fail(DirError);
  std::error_code EC;
  std::filesystem::create_directories(Options.WorkDir, EC);
  if (EC)
    return Fail("cannot create work directory '" + Options.WorkDir + "'");

  ShardReport LocalReport;
  ShardReport &R = Report ? *Report : LocalReport;
  R.Plan = ShardPlan::split(Spec.Shots, Options.ShardCount);
  const size_t K = R.Plan.shardCount();
  const bool InProcess = Options.WorkerBinary.empty();

  std::optional<Hamiltonian> H =
      SimulationService::resolveHamiltonian(Spec.Source, Error);
  if (!H)
    return std::nullopt;
  const uint64_t Fingerprint = H->fingerprint();
  const uint64_t SpecKey = Spec.contentKey();
  Timer Clock;

  if (!Options.Workers.empty()) {
    std::optional<TaskResult> Merged = runFleet(Spec, *H, R, Error);
    if (Merged)
      Merged->Batch.Seconds = Clock.seconds();
    return Merged;
  }

  ServiceOptions LocalOptions;
  LocalOptions.CacheDir = Options.CacheDir;
  LocalOptions.CacheLimitBytes = Options.CacheLimitBytes;
  SimulationService LocalService(LocalOptions);
  if (!InProcess) {
    // Reject inexpressible specs (non-sampling methods, inline sources,
    // oversized seeds) before spending any pre-warm work on them: the
    // fidelity-column evolution alone can dwarf the whole run.
    if (!workerArgs(Options.WorkerBinary, Spec, 0, static_cast<unsigned>(K),
                    manifestPath(Options.WorkDir, 0), Options.CacheDir,
                    Options.CacheLimitBytes, Error))
      return std::nullopt;
    if (Options.CacheDir.empty()) {
      R.Notes.push_back("no cache directory: every worker performs its own "
                        "MCFP solves");
    } else {
      // Pre-warm the shared store with every artifact type the workers
      // will ask for — the alias bundle (with its MCFP components) and
      // the fidelity target columns — so the whole sharded run costs one
      // solve per component and one column evolution total. This also
      // front-loads the Theorem 4.1 validation before any process is
      // spawned.
      if (!LocalService.prewarm(Spec, Error))
        return std::nullopt;
      R.LocalStats = LocalService.stats();
    }
  }

  std::vector<std::optional<ShardManifest>> Accepted(K);
  const unsigned MaxAttempts = std::max(1u, Options.MaxAttempts);
  unsigned LaunchRounds = 0;
  bool FirstCollection = true;
  while (true) {
    // Collect: validate whatever manifests exist for still-open ranges.
    for (size_t I = 0; I < K; ++I) {
      if (Accepted[I])
        continue;
      std::string Path = manifestPath(Options.WorkDir, I);
      if (!std::filesystem::exists(Path))
        continue;
      std::string ReadError;
      std::optional<ShardManifest> M =
          ShardManifest::readFile(Path, &ReadError);
      if (M) {
        if (M->Fingerprint != Fingerprint)
          ReadError = "fingerprint mismatch (different Hamiltonian)";
        else if (M->Seed != Spec.Seed || M->TotalShots != Spec.Shots)
          ReadError = "seed or batch size mismatch (stale manifest)";
        else if (M->SpecKey != SpecKey)
          ReadError = "task configuration mismatch (manifest from a run "
                      "with different parameters)";
        else if (M->Range.Begin != R.Plan.Ranges[I].Begin ||
                 M->Range.Count != R.Plan.Ranges[I].Count)
          ReadError = "shot range disagrees with the shard plan";
        else if (M->HasFidelity != (Spec.Evaluate.FidelityColumns > 0))
          ReadError = "fidelity presence disagrees with the task";
      }
      if (M && ReadError.empty()) {
        Accepted[I] = std::move(M);
        if (FirstCollection)
          ++R.Reused;
        continue;
      }
      R.Notes.push_back("shard " + std::to_string(I) + ": rejected '" +
                        Path + "': " + ReadError + "; re-running the range");
      std::filesystem::remove(Path, EC);
    }
    FirstCollection = false;

    std::vector<size_t> Missing;
    for (size_t I = 0; I < K; ++I)
      if (!Accepted[I])
        Missing.push_back(I);
    if (Missing.empty())
      break;
    if (LaunchRounds >= MaxAttempts) {
      std::string Message = "range still invalid after " +
                            std::to_string(MaxAttempts) + " attempts:";
      for (const std::string &Note : R.Notes)
        Message += "\n  " + Note;
      return Fail(Message);
    }
    if (LaunchRounds > 0)
      R.Retries += static_cast<unsigned>(Missing.size());

    if (InProcess) {
      for (size_t I : Missing) {
        std::string ShardError;
        std::optional<ShardManifest> M = runShard(
            LocalService, Spec, static_cast<unsigned>(I),
            static_cast<unsigned>(K), &ShardError);
        // Round-trip through the file even in-process: the on-disk
        // manifest is the interface under test, and it doubles as the
        // resume state a later coordinator can pick up.
        if (!M || !M->writeFile(manifestPath(Options.WorkDir, I),
                                &ShardError))
          R.Notes.push_back("shard " + std::to_string(I) + ": " +
                            ShardError);
      }
    } else {
      // Launch every missing range, then wait on all of them. Each child
      // is paired with its shard index: a failed spawn must not shift
      // which shard a later exit status is attributed to.
      std::vector<std::pair<size_t, Subprocess>> Children;
      Children.reserve(Missing.size());
      for (size_t I : Missing) {
        SubprocessSpec Child;
        std::optional<std::vector<std::string>> Argv = workerArgs(
            Options.WorkerBinary, Spec, static_cast<unsigned>(I),
            static_cast<unsigned>(K), manifestPath(Options.WorkDir, I),
            Options.CacheDir, Options.CacheLimitBytes, Error);
        if (!Argv)
          return std::nullopt; // inexpressible spec: no round can fix it
        Child.Argv = std::move(*Argv);
        Child.StdoutFile = (std::filesystem::path(Options.WorkDir) /
                            ("shard-" + std::to_string(I) + ".log"))
                               .string();
        Child.StderrFile = Child.StdoutFile;
        std::string SpawnError;
        Subprocess Proc;
        if (!Proc.spawn(Child, &SpawnError)) {
          R.Notes.push_back("shard " + std::to_string(I) + ": " +
                            SpawnError);
          continue;
        }
        Children.emplace_back(I, std::move(Proc));
      }
      for (auto &[Shard, Proc] : Children) {
        int Exit = Proc.wait();
        if (Exit != 0)
          R.Notes.push_back("shard " + std::to_string(Shard) +
                            ": worker exited with status " +
                            std::to_string(Exit));
      }
    }
    ++LaunchRounds;
  }

  std::vector<ShardManifest> Manifests;
  Manifests.reserve(K);
  for (std::optional<ShardManifest> &M : Accepted) {
    R.WorkerStats += M->Stats;
    Manifests.push_back(std::move(*M));
  }
  std::optional<TaskResult> Merged =
      merge(Spec, Fingerprint, std::move(Manifests), Error);
  if (Merged)
    // Wall clock of the whole sharded phase (launching, workers,
    // validation, merge) — the honest analogue of BatchResult::Seconds.
    Merged->Batch.Seconds = Clock.seconds();
  return Merged;
}

//===----------------------------------------------------------------------===//
// Fleet dispatch
//===----------------------------------------------------------------------===//

std::optional<TaskResult> ShardCoordinator::runFleet(const TaskSpec &Spec,
                                                     const Hamiltonian &H,
                                                     ShardReport &R,
                                                     std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    detail::fail(Error, "fleet coordinator: " + Message);
    return std::nullopt;
  };
  const uint64_t Fingerprint = H.fingerprint();
  const uint64_t SpecKey = Spec.contentKey();
  const size_t K = R.Plan.shardCount();
  const unsigned MaxAttempts = std::max(1u, Options.MaxAttempts);

  R.Fleet.Used = true;
  R.Fleet.Workers.clear();
  for (const std::string &HostPort : Options.Workers) {
    FleetWorkerStats WS;
    WS.HostPort = HostPort;
    R.Fleet.Workers.push_back(std::move(WS));
  }

  std::optional<json::Value> SpecJson = Spec.toJson(Error);
  if (!SpecJson)
    return std::nullopt;

  // The coordinator-side service is the fleet's artifact origin: this
  // prewarm is the single MCFP solve (and column evolution) of the whole
  // batch; every worker is then seeded over the wire from this store, no
  // shared filesystem involved. It also front-loads the Theorem 4.1
  // validation before any connection is opened.
  std::unique_ptr<SimulationService> Owned;
  SimulationService *LocalService = Options.SharedService;
  if (!LocalService) {
    ServiceOptions LocalOptions;
    LocalOptions.CacheDir = Options.CacheDir;
    LocalOptions.CacheLimitBytes = Options.CacheLimitBytes;
    Owned = std::make_unique<SimulationService>(LocalOptions);
    LocalService = Owned.get();
  }
  if (!LocalService->prewarm(Spec, Error))
    return std::nullopt;
  R.LocalStats = LocalService->stats();
  std::optional<std::vector<TaskArtifact>> Artifacts =
      LocalService->exportArtifacts(Spec, Error);
  if (!Artifacts)
    return std::nullopt;

  // The same acceptance gate the single-host collect pass applies; every
  // manifest — reused from disk or received over the wire — passes
  // through it before it can merge.
  auto RejectReason = [&](const ShardManifest &M, size_t I) -> std::string {
    if (M.Fingerprint != Fingerprint)
      return "fingerprint mismatch (different Hamiltonian)";
    if (M.Seed != Spec.Seed || M.TotalShots != Spec.Shots)
      return "seed or batch size mismatch (stale manifest)";
    if (M.SpecKey != SpecKey)
      return "task configuration mismatch (manifest from a run with "
             "different parameters)";
    if (M.Range.Begin != R.Plan.Ranges[I].Begin ||
        M.Range.Count != R.Plan.Ranges[I].Count)
      return "shot range disagrees with the shard plan";
    if (M.HasFidelity != (Spec.Evaluate.FidelityColumns > 0))
      return "fidelity presence disagrees with the task";
    if (M.Shots.size() != M.Range.Count)
      return "manifest shot count disagrees with its range";
    return {};
  };

  std::vector<std::optional<ShardManifest>> Accepted(K);
  std::error_code EC;
  for (size_t I = 0; I < K; ++I) {
    std::string Path = manifestPath(Options.WorkDir, I);
    if (!std::filesystem::exists(Path))
      continue;
    std::string ReadError;
    std::optional<ShardManifest> M = ShardManifest::readFile(Path, &ReadError);
    if (M)
      ReadError = RejectReason(*M, I);
    if (M && ReadError.empty()) {
      Accepted[I] = std::move(M);
      ++R.Reused;
      continue;
    }
    R.Notes.push_back("shard " + std::to_string(I) + ": rejected '" + Path +
                      "': " + ReadError + "; dispatching the range");
    std::filesystem::remove(Path, EC);
  }

  // Shared dispatch state. Pending holds shard indices awaiting (re-)
  // dispatch; Open counts ranges not yet accepted, whether queued or in
  // flight. A worker thread owns its FleetWorkerStats entry exclusively;
  // everything else mutates under Mutex.
  struct DispatchState {
    std::mutex Mutex;
    std::condition_variable CV;
    std::deque<size_t> Pending;
    size_t Open = 0;
    size_t Live = 0;
    bool Abort = false;
    std::string AbortReason;
  } State;
  std::vector<unsigned> FailedAttempts(K, 0);
  std::vector<char> EverDispatched(K, 0);
  for (size_t I = 0; I < K; ++I)
    if (!Accepted[I]) {
      State.Pending.push_back(I);
      ++State.Open;
    }
  State.Live = R.Fleet.Workers.size();

  // Declares worker Wi dead and, when a range was in flight on it,
  // requeues that range at the front — re-dispatch traffic preempts
  // fresh dispatches so a killed worker's range completes promptly.
  auto MarkDeadLocked = [&](size_t Wi, const std::string &Why,
                            std::optional<size_t> InFlight) {
    FleetWorkerStats &WS = R.Fleet.Workers[Wi];
    WS.Alive = false;
    --State.Live;
    std::string Note = "worker " + WS.HostPort + ": " + Why;
    if (InFlight) {
      State.Pending.push_front(*InFlight);
      Note += "; re-dispatching range [" +
              std::to_string(R.Plan.Ranges[*InFlight].Begin) + ", " +
              std::to_string(R.Plan.Ranges[*InFlight].end()) +
              ") to the survivors";
    }
    R.Notes.push_back(std::move(Note));
    if (State.Live == 0 && State.Open > 0 && !State.Abort) {
      State.Abort = true;
      State.AbortReason = "no live workers remain";
    }
    State.CV.notify_all();
  };

  auto WorkerLoop = [&](size_t Wi) {
    FleetWorkerStats &WS = R.Fleet.Workers[Wi];
    server::ConnectOptions CO;
    CO.Attempts = std::max(1u, Options.ConnectAttempts);
    CO.DelayMs = std::max(1u, Options.ConnectDelayMs);
    std::string ConnError;
    std::optional<server::DaemonClient> Client =
        server::DaemonClient::connectTo(WS.HostPort, &ConnError, CO);
    if (!Client) {
      std::lock_guard<std::mutex> Lock(State.Mutex);
      MarkDeadLocked(Wi, "connect failed: " + ConnError, std::nullopt);
      return;
    }
    if (Options.FleetTimeoutMs)
      Client->setRecvTimeout(Options.FleetTimeoutMs);

    // Warm the worker: probe, then push only what it lacks. An artifact
    // too large for a request frame is skipped — the worker recomputes
    // it, which changes cost, never results (and never the one-MCFP-
    // solve contract: flow artifacts are tiny, only fidelity columns
    // can grow past the cap).
    for (const TaskArtifact &A : *Artifacts) {
      if (A.Body.size() + 4096 > server::MaxRequestFrameBytes) {
        std::lock_guard<std::mutex> Lock(State.Mutex);
        R.Notes.push_back("worker " + WS.HostPort + ": artifact '" +
                          A.Key.Id + "' exceeds the request frame cap; the "
                          "worker will recompute it");
        continue;
      }
      std::string FetchError;
      std::optional<bool> Present = Client->probeArtifact(A.Key, &FetchError);
      if (!Present) {
        std::lock_guard<std::mutex> Lock(State.Mutex);
        MarkDeadLocked(Wi, "artifact probe failed: " + FetchError,
                       std::nullopt);
        return;
      }
      if (*Present) {
        ++WS.FetchHits;
        continue;
      }
      std::optional<bool> Stored =
          Client->putArtifact(*SpecJson, A.Key, A.Body, &FetchError);
      if (!Stored) {
        std::lock_guard<std::mutex> Lock(State.Mutex);
        MarkDeadLocked(Wi, "artifact push failed: " + FetchError,
                       std::nullopt);
        return;
      }
      ++WS.FetchMisses;
      WS.ArtifactBytesServed += A.Body.size();
    }

    for (;;) {
      size_t I;
      bool Redispatch;
      {
        std::unique_lock<std::mutex> Lock(State.Mutex);
        State.CV.wait(Lock, [&] {
          return State.Abort || State.Open == 0 || !State.Pending.empty();
        });
        if (State.Abort || State.Open == 0)
          return;
        I = State.Pending.front();
        State.Pending.pop_front();
        Redispatch = EverDispatched[I] != 0;
        EverDispatched[I] = 1;
        if (Redispatch)
          ++R.Retries;
      }
      ++WS.RangesDispatched;
      if (Redispatch)
        ++WS.RangesRedispatched;

      bool Transport = false;
      std::string RangeError;
      std::optional<std::string> ManifestText = Client->runShardRange(
          *SpecJson, R.Plan.Ranges[I], 0, &Transport, &RangeError);

      std::optional<ShardManifest> M;
      if (ManifestText) {
        M = ShardManifest::parse(*ManifestText, &RangeError);
        if (M) {
          std::string Reject = RejectReason(*M, I);
          if (!Reject.empty()) {
            RangeError = Reject;
            M.reset();
          }
        }
      }

      if (M) {
        WS.EvalSeconds += M->EvalSeconds;
        // Persist for crash resume, exactly like the single-host path;
        // a write failure costs resumability, not correctness.
        std::string WriteError;
        if (!M->writeFile(manifestPath(Options.WorkDir, I), &WriteError)) {
          std::lock_guard<std::mutex> Lock(State.Mutex);
          R.Notes.push_back("shard " + std::to_string(I) +
                            ": cannot persist manifest: " + WriteError);
        }
        std::lock_guard<std::mutex> Lock(State.Mutex);
        Accepted[I] = std::move(M);
        --State.Open;
        State.CV.notify_all();
        continue;
      }

      if (Transport) {
        // Dead or hung worker: hand the range back for free (no attempt
        // charge — a dead worker cannot burn the retry budget) and exit.
        std::lock_guard<std::mutex> Lock(State.Mutex);
        MarkDeadLocked(Wi, RangeError, I);
        return;
      }

      // A live worker returned a failed, corrupt, or mismatched range:
      // that *does* consume an attempt, bounding how long a lying worker
      // can stall the batch.
      std::lock_guard<std::mutex> Lock(State.Mutex);
      R.Notes.push_back("shard " + std::to_string(I) + " on " + WS.HostPort +
                        ": " + RangeError + "; re-dispatching the range");
      if (++FailedAttempts[I] >= MaxAttempts) {
        State.Abort = true;
        State.AbortReason = "range [" +
                            std::to_string(R.Plan.Ranges[I].Begin) + ", " +
                            std::to_string(R.Plan.Ranges[I].end()) +
                            ") still invalid after " +
                            std::to_string(MaxAttempts) + " attempts";
        State.CV.notify_all();
        return;
      }
      State.Pending.push_back(I);
      State.CV.notify_all();
    }
  };

  if (State.Open > 0) {
    std::vector<std::thread> Threads;
    Threads.reserve(R.Fleet.Workers.size());
    for (size_t Wi = 0; Wi < R.Fleet.Workers.size(); ++Wi)
      Threads.emplace_back(WorkerLoop, Wi);
    for (std::thread &T : Threads)
      T.join();

    if (State.Abort || State.Open > 0) {
      std::string Message = State.AbortReason.empty()
                                ? std::string("dispatch ended with ") +
                                      std::to_string(State.Open) +
                                      " range(s) incomplete"
                                : State.AbortReason;
      for (const std::string &Note : R.Notes)
        Message += "\n  " + Note;
      return Fail(Message);
    }
  }

  std::vector<ShardManifest> Manifests;
  Manifests.reserve(K);
  for (std::optional<ShardManifest> &M : Accepted) {
    R.WorkerStats += M->Stats;
    Manifests.push_back(std::move(*M));
  }
  return merge(Spec, Fingerprint, std::move(Manifests), Error);
}
