//===- shard/ShardCoordinator.cpp - Batch sharding ------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardCoordinator.h"

#include "server/Client.h"
#include "stats/Stats.h"
#include "support/Timer.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>

using namespace marqsim;

std::string ShardCoordinator::manifestPath(const std::string &WorkDir,
                                           unsigned Index) {
  return (std::filesystem::path(WorkDir) /
          ("shard-" + std::to_string(Index) + ".manifest"))
      .string();
}

namespace {

/// Why \p M cannot stand for \p Range of \p Spec (compiled from the
/// Hamiltonian with \p Fingerprint), or empty when it can. Every manifest
/// — reused from the work directory or received from a fleet worker —
/// passes this gate before it can merge.
std::string rejectReason(const ShardManifest &M, const TaskSpec &Spec,
                         uint64_t Fingerprint, const ShotRange &Range) {
  if (M.Fingerprint != Fingerprint)
    return "fingerprint mismatch (different Hamiltonian)";
  if (M.Seed != Spec.Seed || M.TotalShots != Spec.Shots)
    return "seed or batch size mismatch (stale manifest)";
  if (M.SpecKey != Spec.contentKey())
    return "task configuration mismatch (manifest from a run with "
           "different parameters)";
  if (M.Range.Begin != Range.Begin || M.Range.Count != Range.Count)
    return "shot range disagrees with the shard plan";
  if (M.HasFidelity != (Spec.Evaluate.FidelityColumns > 0))
    return "fidelity presence disagrees with the task";
  if (M.Shots.size() != M.Range.Count)
    return "manifest shot count disagrees with its range";
  return {};
}

} // namespace

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
  std::error_code EC;
  std::filesystem::create_directories(Options.WorkDir, EC);
  if (EC)
    return Fail("cannot create work directory '" + Options.WorkDir + "'");

  ShardReport LocalReport;
  ShardReport &R = Report ? *Report : LocalReport;
  R.Plan = ShardPlan::split(Spec.Shots, Options.ShardCount);
  const size_t K = R.Plan.shardCount();

  std::optional<Hamiltonian> H =
      SimulationService::resolveHamiltonian(Spec.Source, Error);
  if (!H)
    return std::nullopt;
  const uint64_t Fingerprint = H->fingerprint();
  Timer Clock;

  // Reuse whatever valid manifests the work directory already holds.
  std::vector<std::optional<ShardManifest>> Accepted(K);
  bool AnyOpen = false;
  for (size_t I = 0; I < K; ++I) {
    std::string Path = manifestPath(Options.WorkDir, I);
    if (std::filesystem::exists(Path)) {
      std::string ReadError;
      std::optional<ShardManifest> M =
          ShardManifest::readFile(Path, &ReadError);
      if (M)
        ReadError = rejectReason(*M, Spec, Fingerprint, R.Plan.Ranges[I]);
      if (M && ReadError.empty()) {
        Accepted[I] = std::move(M);
        ++R.Reused;
        continue;
      }
      R.Notes.push_back("shard " + std::to_string(I) + ": rejected '" +
                        Path + "': " + ReadError + "; re-running the range");
      std::filesystem::remove(Path, EC);
    }
    AnyOpen = true;
  }

  // Pre-warm the service every range resolves through with each artifact
  // type the ranges will ask for — the alias bundle (with its MCFP
  // components) and the fidelity target columns — so the whole sharded
  // run costs one solve per component and one column evolution. This also
  // front-loads the Theorem 4.1 validation before any range starts. A
  // fully resumed run needs neither, and skips it.
  std::unique_ptr<SimulationService> Owned;
  SimulationService *Service = Options.SharedService;
  if (!Service) {
    Owned = std::make_unique<SimulationService>();
    Service = Owned.get();
  }
  if (AnyOpen && !Service->prewarm(Spec, Error))
    return std::nullopt;
  R.LocalStats = Service->stats();

  bool Complete = Options.Workers.empty()
                      ? runLocal(Spec, *Service, Accepted, R, Error)
                      : runFleet(Spec, *Service, Fingerprint, Accepted, R,
                                 Error);
  if (!Complete)
    return std::nullopt;

  std::vector<ShardManifest> Manifests;
  Manifests.reserve(K);
  for (std::optional<ShardManifest> &M : Accepted) {
    R.WorkerStats += M->Stats;
    Manifests.push_back(std::move(*M));
  }
  std::optional<TaskResult> Merged =
      merge(Spec, Fingerprint, std::move(Manifests), Error);
  if (Merged)
    // Wall clock of the whole sharded phase (pre-warm, ranges,
    // validation, merge) — the honest analogue of BatchResult::Seconds.
    Merged->Batch.Seconds = Clock.seconds();
  return Merged;
}

//===----------------------------------------------------------------------===//
// Local ranges
//===----------------------------------------------------------------------===//

bool ShardCoordinator::runLocal(
    const TaskSpec &Spec, SimulationService &Service,
    std::vector<std::optional<ShardManifest>> &Accepted, ShardReport &R,
    std::string *Error) {
  const unsigned K = static_cast<unsigned>(Accepted.size());
  std::mutex NotesMutex;
  std::vector<std::string> Failures;
  // One plain thread per open range rather than ThreadPool::shared(): each
  // range's own --jobs fan-out already drains through that pool.
  auto RunRange = [&](unsigned I) {
    std::string ShardError;
    std::optional<ShardManifest> M;
    try {
      M = runShard(Service, Spec, I, K, &ShardError);
    } catch (const std::exception &E) {
      ShardError = E.what();
    }
    // Persist for resume; a write failure costs resumability, not
    // correctness.
    std::string WriteError;
    bool Persisted =
        M && M->writeFile(manifestPath(Options.WorkDir, I), &WriteError);
    std::lock_guard<std::mutex> Lock(NotesMutex);
    if (!M)
      Failures.push_back("shard " + std::to_string(I) + ": " + ShardError);
    else if (!Persisted)
      R.Notes.push_back("shard " + std::to_string(I) +
                        ": cannot persist manifest: " + WriteError);
    Accepted[I] = std::move(M);
  };
  std::vector<std::thread> Threads;
  Threads.reserve(K);
  for (unsigned I = 0; I < K; ++I) {
    if (Accepted[I])
      continue;
    // K is the caller's choice: a range whose thread cannot start runs
    // on this one instead, which changes the wall time, never the bits.
    try {
      Threads.emplace_back(RunRange, I);
    } catch (const std::system_error &) {
      RunRange(I);
    }
  }
  for (std::thread &T : Threads)
    T.join();

  if (Failures.empty())
    return true;
  std::string Message = "shard coordinator: range(s) failed:";
  for (const std::string &Failure : Failures)
    Message += "\n  " + Failure;
  detail::fail(Error, Message);
  return false;
}

//===----------------------------------------------------------------------===//
// Fleet dispatch
//===----------------------------------------------------------------------===//

bool ShardCoordinator::runFleet(
    const TaskSpec &Spec, SimulationService &Service, uint64_t Fingerprint,
    std::vector<std::optional<ShardManifest>> &Accepted, ShardReport &R,
    std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    detail::fail(Error, "fleet coordinator: " + Message);
    return false;
  };
  const size_t K = Accepted.size();
  const unsigned MaxAttempts = std::max(1u, Options.MaxAttempts);

  R.Fleet.Used = true;
  R.Fleet.Workers.clear();
  for (const std::string &HostPort : Options.Workers) {
    FleetWorkerStats WS;
    WS.HostPort = HostPort;
    R.Fleet.Workers.push_back(std::move(WS));
  }
  // A fully resumed run has nothing to dispatch, and so no artifacts to
  // export.
  if (std::all_of(Accepted.begin(), Accepted.end(),
                  [](const std::optional<ShardManifest> &M) {
                    return M.has_value();
                  }))
    return true;

  std::optional<json::Value> SpecJson = Spec.toJson(Error);
  if (!SpecJson)
    return false;

  // The prewarmed service is the fleet's artifact origin: every worker is
  // seeded over the wire from its store, no shared filesystem involved.
  // Only the keys resolve here. A body is encoded when the first worker's
  // probe misses it, once per batch, and shared by every worker thread:
  // a warm fleet encodes nothing (a LiH alias body is 6.11 MiB of hex).
  std::optional<std::vector<ResolvedArtifact>> Artifacts =
      Service.resolveArtifacts(Spec, Error);
  if (!Artifacts)
    return false;
  std::mutex BodyMutex;
  std::vector<std::optional<std::string>> Bodies(Artifacts->size());
  auto BodyOf = [&](size_t Ai) -> const std::string & {
    // Set once under the lock and never modified after, so the returned
    // reference stays valid and race-free.
    std::lock_guard<std::mutex> Lock(BodyMutex);
    if (!Bodies[Ai])
      Bodies[Ai] = (*Artifacts)[Ai].Encode();
    return *Bodies[Ai];
  };

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

    // Warm the worker: probe each key, then encode and push only what it
    // lacks. A body too large for a request frame is skipped — the worker
    // recomputes it, which changes cost, never results. It does break the
    // one-MCFP-solve contract when the body is an alias bundle: a dense
    // hex bundle is ~17 N^2 bytes, over the cap from N ~ 500 terms
    // (H2O, LiH, BeH2).
    for (size_t Ai = 0; Ai < Artifacts->size(); ++Ai) {
      const ArtifactKey &Key = (*Artifacts)[Ai].Key;
      std::string FetchError;
      std::optional<bool> Present = Client->probeArtifact(Key, &FetchError);
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
      const std::string &Body = BodyOf(Ai);
      if (Body.size() + 4096 > server::MaxRequestFrameBytes) {
        std::lock_guard<std::mutex> Lock(State.Mutex);
        R.Notes.push_back("worker " + WS.HostPort + ": artifact '" + Key.Id +
                          "' exceeds the request frame cap; the worker will "
                          "recompute it");
        continue;
      }
      std::optional<bool> Stored =
          Client->putArtifact(*SpecJson, Key, Body, &FetchError);
      if (!Stored) {
        std::lock_guard<std::mutex> Lock(State.Mutex);
        MarkDeadLocked(Wi, "artifact push failed: " + FetchError,
                       std::nullopt);
        return;
      }
      ++WS.FetchMisses;
      WS.ArtifactBytesServed += Body.size();
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
          std::string Reject =
              rejectReason(*M, Spec, Fingerprint, R.Plan.Ranges[I]);
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

  return true;
}
