//===- service/TaskSpec.h - Declarative simulation task specs ---*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative front-end of the SimulationService: callers describe
/// *what* they want — which Hamiltonian (file, registry model, or inline),
/// which channel mix (qDrift / gate-cancellation / random-perturbation
/// weights), which precision budget or Trotter schedule, how many shots on
/// how many workers, and what to evaluate (fidelity columns, QASM export,
/// DOT dump) — and the service decides *how*: every deterministic artifact
/// on the way (MCFP solutions, HTT graphs, alias tables, fidelity targets)
/// is resolved through content-hash-keyed caches.
///
/// TaskSpec replaces the hand-assembled five-stage pipeline (prepare ->
/// makeConfigMatrix -> HTTGraph -> strategy -> BatchRequest) that every
/// entry point used to repeat.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SERVICE_TASKSPEC_H
#define MARQSIM_SERVICE_TASKSPEC_H

#include "core/Baselines.h"
#include "core/Compiler.h"
#include "core/TransitionBuilders.h"
#include "pauli/Hamiltonian.h"
#include "sim/NoiseModel.h"
#include "support/CommandLine.h"
#include "support/Json.h"

#include <optional>
#include <string>

namespace marqsim {

namespace detail {
/// Shared error-reporting shape of the service layer: fills the optional
/// out-parameter and returns false so call sites read
/// `return detail::fail(Error, "...")`.
inline bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}
} // namespace detail

/// The convex combination of transition channels (paper Section 6.1):
/// WQd * Pqd + WGc * Pgc + WRp * Prp. This is the one shared home of the
/// preset table and the normalization rule that used to be copy-pasted
/// between marqsim-cli and BenchCommon.
struct ChannelMix {
  double WQd = 0.4;
  double WGc = 0.6;
  double WRp = 0.0;

  /// The named presets: "baseline" (pure qDrift), "gc" (0.4/0.6),
  /// "gc-rp" (0.4/0.3/0.3). Returns std::nullopt for unknown names.
  static std::optional<ChannelMix> preset(const std::string &Name);

  double sum() const { return WQd + WGc + WRp; }

  /// Scales the weights to sum to 1. Returns false (leaving the mix
  /// untouched) when the weights are negative or sum to <= 0.
  bool normalize();
};

/// Applies the CLI channel-mix convention shared by the tools and the
/// bench harnesses: --config=NAME selects a preset, and any of
/// --qd/--gc/--rp overrides the weights (renormalized). Returns
/// std::nullopt and fills \p Error on unknown presets or non-positive
/// override sums.
std::optional<ChannelMix> parseChannelMix(const CommandLine &CL,
                                          std::string *Error = nullptr);

/// Where a task's Hamiltonian comes from.
struct HamiltonianSource {
  enum class Kind { File, Model, Inline };
  Kind SourceKind = Kind::Inline;

  /// Text-format file path (Kind::File).
  std::string Path;

  /// Registry benchmark name, e.g. "Na+" (Kind::Model).
  std::string Model;

  /// The operator itself (Kind::Inline).
  Hamiltonian Ham;

  static HamiltonianSource fromFile(std::string Path) {
    HamiltonianSource S;
    S.SourceKind = Kind::File;
    S.Path = std::move(Path);
    return S;
  }
  static HamiltonianSource fromModel(std::string Name) {
    HamiltonianSource S;
    S.SourceKind = Kind::Model;
    S.Model = std::move(Name);
    return S;
  }
  static HamiltonianSource fromHamiltonian(Hamiltonian H) {
    HamiltonianSource S;
    S.SourceKind = Kind::Inline;
    S.Ham = std::move(H);
    return S;
  }
};

/// A contiguous sub-range of a batch's global shot indices
/// [Begin, Begin + Count). Shot seeding is global (shot k always draws
/// from RNG::forShot(Seed, k)), so compiling a range in one process and
/// the complement elsewhere reproduces the full batch bit for bit.
struct ShotRange {
  size_t Begin = 0;
  size_t Count = 0;

  size_t end() const { return Begin + Count; }
  bool contains(size_t Shot) const { return Shot >= Begin && Shot < end(); }
};

/// Which schedule-producing policy compiles the task.
enum class TaskMethod {
  /// Algorithm 1: Markov-chain sampling over the HTT graph with the
  /// channel mix; budget N = ceil(2 lambda^2 t^2 / epsilon).
  Sampling,
  /// Deterministic product formula (orders 1/2/4) over TrotterReps steps.
  Trotter,
  /// Randomized-order Trotter [Childs et al.].
  RandomOrderTrotter,
  /// SparSto stochastic sparsification.
  SparSto,
};

/// What to compute alongside the batch itself.
struct EvaluateSpec {
  /// Fidelity estimation columns; 0 disables fidelity. When > 0 the
  /// service resolves a FidelityEvaluator through its cache and evaluates
  /// every shot *inside the batch workers* (the PerShot hook), so --jobs
  /// parallelism covers fidelity too.
  size_t FidelityColumns = 0;

  /// Column-choice seed of the fidelity evaluator (part of its cache key).
  uint64_t ColumnSeed = 7;

  /// Retain shot 0's full CompilationResult in TaskResult::ShotZero
  /// (QASM export, observable evolution, schedule inspection).
  bool ExportShotZero = false;

  /// Render the HTT graph as Graphviz DOT into TaskResult::GraphDot
  /// (sampling tasks only).
  bool DumpDot = false;

  /// Retain every shot's CompilationResult (BatchResult::Results).
  bool KeepResults = false;
};

/// A complete declarative description of one simulation workload.
struct TaskSpec {
  HamiltonianSource Source;

  /// Channel mix for TaskMethod::Sampling.
  ChannelMix Mix;

  /// Prp perturbation rounds (used only when Mix.WRp > 0).
  unsigned PerturbRounds = 8;

  /// Seed of the Prp cost perturbations. Deliberately decoupled from the
  /// sampling Seed so sweeping shot seeds never invalidates cached
  /// matrices.
  uint64_t PerturbSeed = 0x5EED;

  /// MCFP encoding options (part of every matrix cache key).
  MCFPOptions Flow;

  TaskMethod Method = TaskMethod::Sampling;

  /// Evolution time (all methods).
  double Time = 1.0;

  /// Target precision (TaskMethod::Sampling).
  double Epsilon = 0.05;

  /// Use the O(log n) CDF sampler instead of alias tables (ablation).
  bool UseCDF = false;

  /// Trotter-family parameters.
  unsigned TrotterReps = 4;
  unsigned TrotterOrder = 1;
  TermOrderKind Order = TermOrderKind::Given;

  /// SparSto keep-probability scale.
  double SparStoKeepScale = 1.5;

  /// Batch shape. Jobs (0 = all cores) also bounds the set-up's
  /// concurrent Prp perturbation solves (buildRandomPerturbation).
  size_t Shots = 1;
  unsigned Jobs = 1;
  uint64_t Seed = 1;

  /// Within-shot evaluation workers: each shot's fidelity evaluation fans
  /// its fixed-width column blocks across this many threads (0 = all
  /// cores). Complements Jobs — cross-shot parallelism saturates first,
  /// EvalJobs soaks up the rest when shots are few and columns are many.
  /// Like Jobs it never changes a bit of output, so it is excluded from
  /// contentKey.
  unsigned EvalJobs = 1;

  /// Per-gate noise channel (sim/NoiseModel.h). Default-inert: a disabled
  /// spec leaves contentKey, manifests, and JSON frames exactly as they
  /// were before the noisy tier existed. Noise only affects fidelity
  /// evaluation (the compiled circuit is the noiseless program; noise
  /// models its execution), so an enabled spec requires FidelityColumns.
  NoiseSpec Noise;

  /// Lowering options applied to every shot.
  CompilationOptions Lowering;

  EvaluateSpec Evaluate;

  /// Structural validation (positive time/epsilon/shots, normalizable
  /// mix, supported Trotter order). Returns false and fills \p Error on
  /// violations. run() validates implicitly.
  bool validate(std::string *Error = nullptr) const;

  /// Content hash of every knob that shapes the compiled bits beyond the
  /// Hamiltonian itself: method, mix weights, flow options, perturbation
  /// rounds/seed, time, epsilon, sampler kind, Trotter parameters,
  /// lowering, and fidelity evaluation. Excludes the source (the
  /// Hamiltonian fingerprint covers it), Shots and Seed (shard manifests
  /// check those explicitly), and Jobs (no effect on results). Two specs
  /// with equal fingerprint, seed, shot count, and contentKey produce
  /// bit-identical batches.
  uint64_t contentKey() const;

  /// Parses the common CLI surface into a spec: positional Hamiltonian
  /// file or --model=NAME, --time/--epsilon, --config + --qd/--gc/--rp,
  /// --rounds/--perturb-seed, --seed/--shots/--jobs/--eval-jobs,
  /// --columns (fidelity), --noise/--noise-prob/--noise-2q-factor/
  /// --noise-mode, --cdf. Rejects negative counts/seeds, non-positive or
  /// non-finite time/epsilon, out-of-range noise probabilities, and
  /// unknown channel/mode names.
  static std::optional<TaskSpec> fromCommandLine(const CommandLine &CL,
                                                 std::string *Error = nullptr);

  /// Serializes the spec as a self-contained "marqsim-spec-v1" JSON
  /// object: the Hamiltonian source is resolved *here* (file read, model
  /// lookup) and shipped as raw inline terms, so the receiving side needs
  /// no filesystem or registry access and both sides canonicalize the
  /// identical operator at run time. Every double and 64-bit seed travels
  /// as a 16-digit IEEE-754/word hex string (support/Serial.h), so
  /// fingerprint() and contentKey() survive transport bit for bit.
  /// Returns std::nullopt and fills \p Error when the source cannot be
  /// resolved (missing file, unknown model).
  std::optional<json::Value> toJson(std::string *Error = nullptr) const;

  /// Inverse of toJson. Strict: unknown versions, missing fields, bad hex
  /// widths, and malformed Pauli strings are rejected with \p Error. The
  /// round trip preserves contentKey() and the resolved Hamiltonian's
  /// fingerprint() exactly. An optional "precision" member, which older
  /// peers send, must read "fp64" — evaluation has no other precision, so
  /// any other value is rejected rather than silently run in FP64.
  static std::optional<TaskSpec> fromJson(const json::Value &V,
                                          std::string *Error = nullptr);
};

} // namespace marqsim

#endif // MARQSIM_SERVICE_TASKSPEC_H
