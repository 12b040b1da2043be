//===- service/SimulationService.h - Cached simulation front-end *- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public front door of the repository: SimulationService turns a
/// declarative TaskSpec into a TaskResult, resolving every expensive
/// deterministic artifact through content-hash-keyed caches.
///
/// MarQSim's pipeline separates cleanly into a deterministic prefix
/// (Hamiltonian canonicalization, the gate-cancellation and perturbation
/// MCFP solves, the HTT graph and its alias tables, the exact fidelity
/// target columns) and a randomized suffix (the per-shot Markov walks).
/// Everything in the prefix is a pure function of its inputs, so the
/// service keys it by Hamiltonian::fingerprint() plus the relevant knobs:
///
///   artifact            | key
///   --------------------+--------------------------------------------------
///   Pgc  (MCFP solve)   | (fingerprint, MCFPOptions)
///   Prp  (MCFP rounds)  | (fingerprint, MCFPOptions, rounds, perturb seed)
///   graph+alias tables  | (fingerprint, mix weights, rounds, perturb seed,
///                       |  MCFPOptions)
///   FidelityEvaluator   | (fingerprint, time, columns, column seed)
///
/// A ratio sweep over N channel mixes therefore performs exactly one
/// gate-cancellation MCFP solve per (Hamiltonian, MCFPOptions) — the
/// combination step is the only per-mix work. Every artifact type —
/// component matrices, combined alias-bundle matrices, and fidelity target
/// columns — can additionally persist to a directory
/// (ServiceOptions::CacheDir), so the amortization carries across CLI
/// invocations and processes.
///
/// All caching goes through one tiered ArtifactStore (store/ArtifactStore.h):
/// a size-accounted in-memory LRU (ServiceOptions::CacheLimitBytes) over
/// the optional disk tier, with store-level single-flight — the service
/// itself holds no per-type cache maps.
///
/// Fidelity is evaluated inside the batch workers through the PerShot
/// hook: the evaluator is immutable after construction, so TaskSpec::Jobs
/// parallelism covers evaluation too, and per-shot fidelities stay
/// bit-identical for every job count.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SERVICE_SIMULATIONSERVICE_H
#define MARQSIM_SERVICE_SIMULATIONSERVICE_H

#include "core/CompilerEngine.h"
#include "service/TaskSpec.h"
#include "sim/Fidelity.h"
#include "store/ArtifactStore.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace marqsim {

/// Hit/miss accounting of the service caches. "Hits" include entries
/// computed once and reused by a concurrent caller (the second caller
/// blocks on the in-flight computation instead of duplicating it) and
/// artifacts loaded from the on-disk store. A disk-loaded alias bundle
/// also counts as a hit for the MCFP components it transitively avoids
/// resolving — the solve was skipped thanks to the cache either way.
struct CacheStats {
  /// Gate-cancellation MCFP solves avoided / performed.
  size_t GCSolveHits = 0;
  size_t GCSolveMisses = 0;

  /// Random-perturbation MCFP rounds avoided / performed.
  size_t RPSolveHits = 0;
  size_t RPSolveMisses = 0;

  /// HTT graph + alias-table bundles reused / built.
  size_t GraphHits = 0;
  size_t GraphMisses = 0;

  /// Fidelity evaluators reused / built.
  size_t EvaluatorHits = 0;
  size_t EvaluatorMisses = 0;

  /// Artifacts satisfied from the on-disk store (also counted in the
  /// corresponding *Hits above).
  size_t DiskLoads = 0;

  /// Total MCFP-level accounting (the ROADMAP's "cache min-cost-flow
  /// solutions" item).
  size_t matrixHits() const { return GCSolveHits + RPSolveHits; }
  size_t matrixMisses() const { return GCSolveMisses + RPSolveMisses; }

  CacheStats &operator+=(const CacheStats &O);
};

/// Everything a task produces: the batch itself, the in-worker fidelity
/// summary, optional retained artifacts, and the run's cache accounting.
struct TaskResult {
  /// Content hash of the canonicalized Hamiltonian the task compiled.
  uint64_t Fingerprint = 0;

  /// Per-shot sampling budget N (TaskMethod::Sampling; 0 otherwise).
  size_t NumSamples = 0;

  BatchResult Batch;

  /// Per-shot fidelities in shot order (Evaluate.FidelityColumns > 0).
  bool HasFidelity = false;
  std::vector<double> ShotFidelities;
  SummaryStat Fidelity;

  /// Shot 0's full result (Evaluate.ExportShotZero).
  bool HasShotZero = false;
  CompilationResult ShotZero;

  /// Graphviz rendering of the HTT graph (Evaluate.DumpDot, sampling).
  std::string GraphDot;

  /// Cache hits/misses incurred by this task alone.
  CacheStats Stats;
};

/// Service-level configuration.
struct ServiceOptions {
  /// Directory for the persistent artifact store (component matrices,
  /// alias bundles, fidelity columns); empty keeps caching in-memory
  /// only. Created on demand. Entry points should pre-validate with
  /// ArtifactStore::validateCacheDir so a bad path fails loudly instead
  /// of silently running uncached.
  std::string CacheDir;

  /// In-memory cache budget in bytes; 0 means unbounded. Artifacts are
  /// charged their actual footprint and evicted least-recently-used;
  /// eviction never changes results (artifacts are pure content
  /// functions, recomputed or disk-reloaded bit-identically).
  size_t CacheLimitBytes = 0;
};

/// One deterministic artifact in transport form: its content-hash key and
/// the codec-encoded text body (exact IEEE-754 hex, the same bytes the
/// disk tier frames with a checksum). This is what travels in the fleet
/// protocol's artifact-put frames.
struct TaskArtifact {
  ArtifactKey Key;
  std::string Body;
};

/// A transportable artifact resolved but not yet encoded. Encode()
/// produces the TaskArtifact body on demand, so a caller pays for a body
/// only when a peer lacks it.
struct ResolvedArtifact {
  ArtifactKey Key;
  /// The codec-encoded body: the same bytes TaskArtifact::Body carries.
  /// It pins the resolved value, which therefore stays encodable even if
  /// the memory tier evicts its entry.
  std::function<std::string()> Encode;
};

/// What importArtifact did with a received body.
enum class ArtifactImport {
  Inserted, ///< decoded, validated, and cached
  Present,  ///< the store already had the key (a fetch hit)
};

/// The declarative, cached front-end over CompilerEngine. Thread-safe:
/// concurrent run() calls share the caches without duplicating solves
/// (a key being computed blocks other requesters for that key only).
class SimulationService {
public:
  explicit SimulationService(ServiceOptions Opts = {});
  ~SimulationService();

  SimulationService(const SimulationService &) = delete;
  SimulationService &operator=(const SimulationService &) = delete;

  /// Runs one task. Returns std::nullopt and fills \p Error on invalid
  /// specs, unreadable sources, or transition matrices that fail the
  /// Theorem 4.1 validation.
  std::optional<TaskResult> run(const TaskSpec &Spec,
                                std::string *Error = nullptr);

  /// Runs the contiguous shot sub-range [Range.Begin, Range.end()) of
  /// \p Spec's batch. Shots keep their *global* indices — shot k draws
  /// from RNG::forShot(Seed, k) no matter which range compiles it — so
  /// concatenating the results of a partition of [0, Shots) reproduces
  /// run(Spec) bit for bit. This is the per-range entry point of the
  /// sharding layer (shard/ShardCoordinator). The range
  /// must be non-empty and end within Spec.Shots; Evaluate.ExportShotZero
  /// is honored only by the range containing global shot 0, and
  /// TaskResult vectors (ShotFidelities, Batch.Shots) are indexed
  /// relative to Range.Begin.
  std::optional<TaskResult> run(const TaskSpec &Spec, const ShotRange &Range,
                                std::string *Error = nullptr);

  /// Resolves just the HTT graph of a sampling spec through the caches
  /// (spectrum inspection, DOT dumps) without compiling anything. A
  /// Trotter-family spec has no HTT graph and fails with \p Error.
  std::shared_ptr<const HTTGraph> graphFor(const TaskSpec &Spec,
                                           std::string *Error = nullptr);

  /// Canonicalizes a Hamiltonian exactly as run() does before compiling:
  /// merge duplicate terms (sorting into canonical order) and split
  /// oversized stationary weights. Callers cross-checking service output
  /// against direct engine/evaluator calls must use this form.
  static Hamiltonian prepare(const Hamiltonian &Raw);

  /// Resolves a source to the Hamiltonian run() compiles. Sampling tasks
  /// use the canonical form (\p Canonicalize, the default); the Trotter
  /// family compiles the operator exactly as given, preserving
  /// TermOrderKind::Given semantics (the canonical merge/split exists
  /// only to satisfy the sampling path's MCFP precondition). Static: the
  /// resolution is a pure function of the source, no caches involved.
  static std::optional<Hamiltonian>
  resolveHamiltonian(const HamiltonianSource &S, std::string *Error = nullptr,
                     bool Canonicalize = true);

  /// Resolves every deterministic artifact of \p Spec through the store
  /// without compiling any shot: the alias bundle (with its MCFP
  /// components) for sampling specs, and the fidelity target columns when
  /// Evaluate.FidelityColumns > 0. With a CacheDir configured this
  /// persists all artifact types, so e.g. a shard coordinator can warm
  /// the store once and have every worker hit disk instead of solving.
  /// Returns false on invalid specs or Theorem 4.1 validation failures.
  bool prewarm(const TaskSpec &Spec, std::string *Error = nullptr);

  /// Resolves every transportable deterministic artifact of \p Spec
  /// without encoding any: the alias bundle of a flow-backed sampling mix
  /// (which short-circuits the MCFP component solves on the receiving
  /// side) and the fidelity target columns when
  /// Evaluate.FidelityColumns > 0. Artifacts the spec does not need — or
  /// that are cheaper to rebuild than to ship (pure-qDrift matrices, and
  /// the MCFP components the bundle already covers) — are simply absent
  /// from the list. Resolution goes through the normal
  /// caches, so a prewarmed service resolves without recomputing
  /// anything. Returns std::nullopt on invalid specs or Theorem 4.1
  /// validation failures.
  std::optional<std::vector<ResolvedArtifact>>
  resolveArtifacts(const TaskSpec &Spec, std::string *Error = nullptr);

  /// resolveArtifacts with every body encoded: the same keys in the same
  /// order, each paired with ResolvedArtifact::Encode()'s bytes. Encoding
  /// costs about as much as a disk-tier write per artifact (a LiH alias
  /// body is 6.11 MiB of hex), so a caller that may not ship every body
  /// should resolve and encode on demand instead, as the fleet
  /// coordinator does.
  std::optional<std::vector<TaskArtifact>>
  exportArtifacts(const TaskSpec &Spec, std::string *Error = nullptr);

  /// Whether this service holds \p Key, answered without encoding or
  /// decoding anything — the serving side of an artifact-get probe. A
  /// value in the memory tier counts as present (the store never holds an
  /// alias bundle that fails Theorem 4.1). Otherwise the disk tier
  /// decides: its file must exist and pass the checksum, so a corrupt
  /// file reads as absent. Never computes, and has no LRU or stats effect.
  bool hasArtifact(const ArtifactKey &Key) const;

  /// Decodes \p Body and injects it under \p Key — the receiving side of
  /// artifact-put. \p Spec supplies the decode context (Hamiltonian
  /// dimensions, column counts) and is also the authorization: only a key
  /// resolveArtifacts(\p Spec) would list is accepted, so a client cannot
  /// seed the cache with mismatched contexts. The body goes through the
  /// disk tier's codec, so an alias body whose matrix fails Theorem 4.1 or
  /// the sampler is undecodable. Returns std::nullopt with \p Error on
  /// unknown keys or undecodable bodies.
  std::optional<ArtifactImport> importArtifact(const TaskSpec &Spec,
                                               const ArtifactKey &Key,
                                               const std::string &Body,
                                               std::string *Error = nullptr);

  /// Cumulative cache accounting across every task this service ran.
  CacheStats stats() const;

  /// Store-level accounting: tier hits, evictions, byte charges.
  ArtifactStore::Stats storeStats() const;

  /// The kernel tier the evaluation substrate dispatched to ("avx512",
  /// "avx2-fma", or "scalar") — the self-describing sibling of
  /// storeStats, reported by the CLI's --stats.
  static const char *kernelName();

  /// The best tier the CPU supports, ignoring MARQSIM_KERNEL_TIER —
  /// reported next to kernelName so a pinned process is visible in every
  /// stats surface.
  static const char *detectedKernelName();

  /// Whether the OS exposes the full AVX-512 register state (always false
  /// off x86-64); distinguishes "CPU lacks AVX-512" from "OS state off"
  /// in the dispatch report.
  static bool avx512OsEnabled();

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

} // namespace marqsim

#endif // MARQSIM_SERVICE_SIMULATIONSERVICE_H
