//===- shard/ShardCoordinator.h - Batch sharding ----------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharding layer: split a TaskSpec's shot range into K ranges, run
/// each range through SimulationService (concurrently in this process, or
/// on remote marqsim-daemon workers), and merge the resulting
/// ShardManifests back into the TaskResult a single run of the same spec
/// produces — bit-identically, for any K.
///
/// The bit-identity argument is the same one that makes --jobs free of
/// scheduling noise: shot k always draws from the counter-based substream
/// RNG::forShot(Seed, k) of its *global* index, and every deterministic
/// artifact on the way (MCFP solutions, alias tables, fidelity targets) is
/// a pure content function. A shard is therefore just a window onto the
/// same shot stream, and concatenating windows in order reproduces the
/// batch exactly.
///
/// Local ranges run on one SimulationService, one thread per open range.
/// When any range is still open, the coordinator pre-warms that service
/// first (SimulationService::prewarm): a K-shard run performs exactly one
/// gate-cancellation solve per Hamiltonian and one fidelity column
/// evolution, with or without a cache directory. Fleet ranges travel as
/// shard-submit frames, and the same prewarmed service seeds every worker
/// over the wire. A run whose every range resumes from the work directory
/// solves and evolves nothing.
///
/// Failure handling: every manifest — found in the work directory or
/// returned by a worker — passes one acceptance check (fingerprint, seed,
/// spec key, shot range) before it can merge. A missing, corrupt,
/// truncated, or mismatched manifest is reported in ShardReport::Notes,
/// its file is discarded, and the range is re-run. Valid manifests already
/// present in the work directory are reused, which doubles as crash
/// recovery for interrupted sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SHARD_SHARDCOORDINATOR_H
#define MARQSIM_SHARD_SHARDCOORDINATOR_H

#include "shard/ShardManifest.h"
#include "shard/ShardPlan.h"

namespace marqsim {

/// How to run a sharded batch.
struct ShardOptions {
  /// Number of worker ranges (clamped to the shot count).
  unsigned ShardCount = 1;

  /// Directory for manifests. Required; created on demand. Valid
  /// manifests found here are reused instead of re-run.
  std::string WorkDir;

  /// Fleet mode: dispatch attempts per range before giving up (>= 1). A
  /// range a live worker answers with a failed or invalid manifest is
  /// re-dispatched until it has used them all. A local range runs
  /// in-process, where a failure is deterministic, so it fails the run at
  /// once.
  unsigned MaxAttempts = 2;

  /// Remote marqsim-daemon workers ("host:port"). Non-empty selects fleet
  /// mode: ranges travel as shard-submit frames over the JSON protocol,
  /// and the coordinator warms each worker through artifact-put frames
  /// (one MCFP solve fleet-wide, no shared filesystem). A worker that dies
  /// or times out is dropped and its in-flight range re-dispatched to the
  /// survivors. Empty runs every range in-process.
  std::vector<std::string> Workers;

  /// Per-range result timeout in fleet mode; a worker that exceeds it is
  /// treated as dead. 0 waits forever (the in-flight range then rides on
  /// the TCP connection's fate).
  unsigned FleetTimeoutMs = 0;

  /// Connection retry budget per worker (fleet mode): attempts and the
  /// initial backoff delay (doubled per retry, capped internally). Absorbs
  /// daemons still binding their port when the batch starts.
  unsigned ConnectAttempts = 10;
  unsigned ConnectDelayMs = 100;

  /// Run the prewarm, the local ranges and the fleet's artifact exports
  /// on this service instead of a coordinator-owned default one (not
  /// owned; must outlive the run). The CLI passes its own service so the
  /// post-merge shot-0 recompile hits the same in-memory store — keeping
  /// the whole invocation at one MCFP solve even without any cache
  /// directory. A caller that wants a persistent or capped store passes
  /// a service configured that way.
  SimulationService *SharedService = nullptr;
};

/// Per-worker accounting of a fleet run.
struct FleetWorkerStats {
  std::string HostPort;

  /// Ranges sent to this worker, and the subset that had already been
  /// dispatched before (to anyone) and failed — the re-dispatch traffic.
  size_t RangesDispatched = 0;
  size_t RangesRedispatched = 0;

  /// Artifact-fetch accounting for this worker: bodies it already held
  /// (hits), bodies pushed over the wire (misses), and the pushed bytes.
  size_t FetchHits = 0;
  size_t FetchMisses = 0;
  size_t ArtifactBytesServed = 0;

  /// Evaluation CPU-seconds summed over this worker's accepted manifests.
  double EvalSeconds = 0.0;

  /// False once the coordinator declared the worker dead (connect
  /// failure, transport error, or FleetTimeoutMs exceeded).
  bool Alive = true;
};

/// Fleet-wide accounting, reported next to the run's cache stats.
struct FleetStats {
  /// True when fleet mode actually ran (ShardOptions::Workers non-empty).
  bool Used = false;
  std::vector<FleetWorkerStats> Workers;
};

/// What happened during a sharded run, beyond the merged result.
struct ShardReport {
  ShardPlan Plan;

  /// Ranges launched beyond the first round (failed validations).
  unsigned Retries = 0;

  /// Manifests reused from a previous run in the work directory.
  unsigned Reused = 0;

  /// Summed cache accounting of the accepted manifests (per-range runs).
  CacheStats WorkerStats;

  /// The coordinator's service accounting after the store pre-warm (or
  /// before any work, when every range was reused). Local ranges run on
  /// that same service afterwards, so for them WorkerStats is a per-range
  /// view of work the service also counts.
  CacheStats LocalStats;

  /// Fleet-mode accounting (Used only when ShardOptions::Workers was
  /// non-empty): per-worker dispatch and artifact-fetch counters.
  FleetStats Fleet;

  /// Human-readable diagnostics: every rejected manifest and failed
  /// range or worker, with the reason.
  std::vector<std::string> Notes;
};

/// Splits, runs, validates, and merges. One coordinator runs one task
/// at a time; construct per task or reuse freely (it holds only options).
class ShardCoordinator {
public:
  explicit ShardCoordinator(ShardOptions Opts) : Options(std::move(Opts)) {}

  /// Runs \p Spec as Options.ShardCount shards and merges the manifests.
  /// The result is bit-identical to SimulationService::run(Spec) — same
  /// batch hash, shot summaries, and fidelity samples — for any shard
  /// count. Specs requesting per-shot artifacts that cannot travel
  /// through a manifest (KeepResults, ExportShotZero, DumpDot) are
  /// rejected; compile those separately (a one-shot ranged run suffices
  /// for shot 0). Returns std::nullopt and fills \p Error when a range
  /// has no valid manifest in the end.
  std::optional<TaskResult> run(const TaskSpec &Spec,
                                std::string *Error = nullptr,
                                ShardReport *Report = nullptr);

  /// Worker-side entry point: compiles shard \p Index of \p Count through
  /// \p Service (global shot indices, so seeding matches the full batch)
  /// and packages the manifest. Every local range runs through this.
  static std::optional<ShardManifest> runShard(SimulationService &Service,
                                               const TaskSpec &Spec,
                                               unsigned Index,
                                               unsigned Count,
                                               std::string *Error = nullptr);

  /// Merges validated manifests (any order) into the single-process
  /// TaskResult. Rejects fingerprint mismatches against
  /// \p ExpectedFingerprint, gaps or overlaps in shot coverage, and
  /// manifests that disagree on seed, strategy, budget, or fidelity
  /// presence.
  static std::optional<TaskResult> merge(const TaskSpec &Spec,
                                         uint64_t ExpectedFingerprint,
                                         std::vector<ShardManifest> Manifests,
                                         std::string *Error = nullptr);

  /// Manifest path of shard \p Index under \p WorkDir.
  static std::string manifestPath(const std::string &WorkDir,
                                  unsigned Index);

private:
  /// Runs every range \p Accepted still lacks on \p Service, one thread
  /// per range, and persists each manifest to the work directory.
  bool runLocal(const TaskSpec &Spec, SimulationService &Service,
                std::vector<std::optional<ShardManifest>> &Accepted,
                ShardReport &R, std::string *Error);

  /// The networked dispatch loop behind run() when Options.Workers is
  /// non-empty: connect (with retry/backoff), warm each worker from
  /// \p Service (an artifact-get probe per key; a body is encoded, once
  /// per batch, and pushed by artifact-put only when a probe misses),
  /// dispatch the ranges
  /// \p Accepted still lacks as shard-submit frames from a shared pending
  /// queue, validate every returned manifest, and re-dispatch ranges of
  /// dead or lying workers to the survivors.
  bool runFleet(const TaskSpec &Spec, SimulationService &Service,
                uint64_t Fingerprint,
                std::vector<std::optional<ShardManifest>> &Accepted,
                ShardReport &R, std::string *Error);

  ShardOptions Options;
};

} // namespace marqsim

#endif // MARQSIM_SHARD_SHARDCOORDINATOR_H
