//===- core/CompilerEngine.h - Strategy-based compilation engine -*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One engine for every compiler in the repository.
///
/// The paper's experiments (Figs. 11-16, Tables 1-2) all aggregate many
/// independent compilation shots of the same Hamiltonian under different
/// schedule-producing policies. This header reifies that structure:
///
///   * ScheduleStrategy — a pluggable policy that turns one shot's RNG
///     substream into a ShotPlan (term-visit sequence + rotation angles).
///     Concrete strategies wrap Markov-chain sampling (qDrift / GC / GC+RP
///     via the HTT graph), the deterministic Trotter/Suzuki orderings, the
///     randomized-order Trotter of Childs et al., and SparSto.
///   * CompilerEngine — compiles single shots or whole batches. All shots
///     funnel through one deterministic per-visit fold (core/Emitter), so
///     gate-count comparisons isolate the scheduling policy. A shot whose
///     result somebody reads is materialized (materializePlan); a shot
///     only summarized goes through ScheduleStrategy::summarize, which
///     for sampling folds inside the Markov walk without buffers.
///
/// Batch compilation amortizes setup (HTT graph, transition matrix, and
/// the chain's sampling tables are built once and shared read-only) and
/// fans shots across a ThreadPool. Shot k draws from RNG::forShot(Seed, k), a
/// counter-based substream independent of scheduling order, so a batch is
/// bit-identical for every worker count.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CORE_COMPILERENGINE_H
#define MARQSIM_CORE_COMPILERENGINE_H

#include "core/Baselines.h"
#include "core/Compiler.h"
#include "core/HTTGraph.h"
#include "markov/Sampler.h"

#include <functional>
#include <memory>
#include <string>

namespace marqsim {

/// Everything a strategy may consult while producing one shot.
struct ShotContext {
  /// Index of this shot within its batch (0 for single compilations).
  size_t Shot = 0;

  /// The shot's private RNG substream. Strategies must draw randomness
  /// only from here; the engine derives it via RNG::forShot.
  RNG &Rng;
};

/// A schedule-producing policy. Implementations must be immutable after
/// construction: produce() and summarize() are called concurrently from
/// batch workers.
class ScheduleStrategy {
public:
  virtual ~ScheduleStrategy() = default;

  /// Human-readable policy name for tables and logs.
  virtual std::string name() const = 0;

  /// True when produce() ignores the RNG (every shot is identical); the
  /// engine then compiles one shot and replicates it across the batch.
  virtual bool isDeterministic() const { return false; }

  /// The Hamiltonian the plans index into.
  virtual const Hamiltonian &hamiltonian() const = 0;

  /// Produces the term-visit plan of one shot. Must be thread-safe.
  virtual ShotPlan produce(ShotContext &Ctx) const = 0;

  /// The summary of one shot without its Sequence or Schedule: what
  /// compileBatch records when nobody reads the shot's result. Must equal
  /// the summary of materializePlan(hamiltonian(), produce(Ctx), Opts) and
  /// be thread-safe. The default is that summary; SamplingStrategy
  /// overrides it with the fold inside the walk.
  virtual ShotSummary summarize(ShotContext &Ctx,
                                const CompilationOptions &Opts) const;
};

/// Algorithm 1: walk the HTT graph's Markov chain for
/// N = ceil(2 lambda^2 t^2 / eps) steps. The chain's alias tables are
/// built once at construction and shared read-only by every shot.
class SamplingStrategy : public ScheduleStrategy {
public:
  SamplingStrategy(std::shared_ptr<const HTTGraph> Graph, double T,
                   double Epsilon);

  /// Re-targets \p Other to a new (T, Epsilon) budget, sharing its
  /// prebuilt sampling tables (useful for epsilon sweeps over one graph).
  SamplingStrategy(const SamplingStrategy &Other, double T, double Epsilon);

  /// Shared-ownership form of the re-targeting constructor, for sweep
  /// loops that hold strategies by shared_ptr.
  std::shared_ptr<const SamplingStrategy> retargeted(double T,
                                                     double Epsilon) const {
    return std::make_shared<const SamplingStrategy>(*this, T, Epsilon);
  }

  std::string name() const override;
  const Hamiltonian &hamiltonian() const override {
    return Graph->hamiltonian();
  }
  ShotPlan produce(ShotContext &Ctx) const override;
  /// Walks and folds in one loop (walkAndCount): no Sequence is written.
  ShotSummary summarize(ShotContext &Ctx,
                        const CompilationOptions &Opts) const override;

  size_t sampleCount() const { return NumSamples; }
  double tauStep() const { return TauStep; }
  const HTTGraph &graph() const { return *Graph; }
  const MarkovChainSampler &chain() const { return *Chain; }

private:
  std::shared_ptr<const HTTGraph> Graph;
  std::shared_ptr<const MarkovChainSampler> Chain;
  size_t NumSamples = 0;
  double TauStep = 0.0;
};

/// Deterministic product formulas: first-order Trotter (Order 1), the
/// symmetrized second-order formula (Order 2), and fourth-order Suzuki
/// (Order 4), each over a fixed term ordering repeated Reps times.
class TrotterStrategy : public ScheduleStrategy {
public:
  TrotterStrategy(Hamiltonian H, double T, unsigned Reps, TermOrderKind Kind,
                  unsigned Order = 1);

  std::string name() const override;
  bool isDeterministic() const override { return true; }
  const Hamiltonian &hamiltonian() const override { return Ham; }
  ShotPlan produce(ShotContext &Ctx) const override;

private:
  Hamiltonian Ham;
  /// One repetition's visit pattern and angles, replicated Reps times.
  std::vector<size_t> Pattern;
  std::vector<double> PatternTaus;
  unsigned Reps;
  unsigned Order;
};

/// Randomized-order Trotter [Childs et al.]: an independent uniform
/// permutation of the terms per repetition.
class RandomOrderTrotterStrategy : public ScheduleStrategy {
public:
  RandomOrderTrotterStrategy(Hamiltonian H, double T, unsigned Reps);

  std::string name() const override { return "random-order-trotter"; }
  const Hamiltonian &hamiltonian() const override { return Ham; }
  ShotPlan produce(ShotContext &Ctx) const override;

private:
  Hamiltonian Ham;
  double Dt;
  unsigned Reps;
};

/// SparSto-style stochastic sparsification: per repetition each term is
/// kept with probability min(1, KeepScale * |h_j| / max|h|), rescaled by
/// 1/q_j, and the survivors are randomly ordered.
class SparStoStrategy : public ScheduleStrategy {
public:
  SparStoStrategy(Hamiltonian H, double T, unsigned Reps, double KeepScale);

  std::string name() const override { return "sparsto"; }
  const Hamiltonian &hamiltonian() const override { return Ham; }
  ShotPlan produce(ShotContext &Ctx) const override;

private:
  Hamiltonian Ham;
  double Dt;
  double MaxMag;
  double KeepScale;
  unsigned Reps;
};

/// A batch of independent compilation shots of one strategy.
struct BatchRequest {
  /// The scheduling policy; shared read-only by all workers.
  std::shared_ptr<const ScheduleStrategy> Strategy;

  /// Number of independent shots.
  size_t NumShots = 1;

  /// Worker threads; 0 selects the hardware thread count. The result is
  /// bit-identical for every value.
  unsigned Jobs = 1;

  /// Worker threads granted to each shot's *evaluation* stage: hook
  /// owners fan per-shot work that is independent of the sequential
  /// Markov walk — fidelity column blocks, chiefly — across this many
  /// workers (FidelityEvaluator::fidelity's EvalJobs argument). 0 selects
  /// the hardware thread count. Evaluation partitions and reductions are
  /// fixed-order, so results are bit-identical for every value; this knob
  /// only moves wall-clock, exactly like Jobs.
  unsigned EvalJobs = 1;

  /// Base seed; shot k draws from RNG::forShot(Seed, FirstShot + k).
  uint64_t Seed = 1;

  /// Global index of the batch's first shot. Shot substreams are derived
  /// from global indices, so compiling [FirstShot, FirstShot + NumShots)
  /// here and the complementary ranges elsewhere reproduces one large
  /// batch bit for bit — the foundation of cross-process sharding.
  size_t FirstShot = 0;

  /// Lowering options applied to every shot.
  CompilationOptions Opts;

  /// Retain the full CompilationResult (schedule, sequence, counts) of
  /// every shot in BatchResult::Results. Off by default: large batches
  /// only need the per-shot summaries. This or a PerShot hook selects the
  /// materializing path (each shot's Sequence and Schedule are built);
  /// with neither, each shot is only summarized
  /// (ScheduleStrategy::summarize) and writes no buffers.
  bool KeepResults = false;

  /// Optional per-shot hook, invoked with (shot index, result) on the
  /// worker thread that compiled the shot. Lets callers consume each
  /// result (fidelity evaluation, exporting one circuit) without retaining
  /// the whole batch via KeepResults. Invocations are concurrent across
  /// workers, so the hook must be thread-safe; the result reference is
  /// only valid for the duration of the call. For deterministic strategies
  /// the hook still fires once per shot, every time with the single
  /// compiled result. Setting a hook selects the materializing path (see
  /// KeepResults); the batch's summaries and hash do not change.
  std::function<void(size_t, const CompilationResult &)> PerShot;
};

/// Mean / stddev / extrema of one per-shot quantity.
struct SummaryStat {
  double Mean = 0.0;
  double Std = 0.0;
  double Min = 0.0;
  double Max = 0.0;

  /// The summary of \p Values, added in order: the per-shot fidelity
  /// summary every run path (single process, sharded, streamed) reports,
  /// so all of them set the same bits.
  static SummaryStat of(const std::vector<double> &Values);
};

/// FNV-1a over the 8 little-endian bytes of every index in turn
/// (serial::fnv1aWord chained from serial::FNVOffset): the per-shot
/// ShotSummary::SequenceHash.
uint64_t hashSequence(const std::vector<size_t> &Sequence);

/// Order-sensitive hash chain over per-shot sequence hashes. The one
/// implementation behind BatchResult::batchHash and the shard manifests'
/// range hash — they must stay bit-identical for merged manifests to
/// validate, so they share this helper instead of a sync-by-comment.
uint64_t hashShotSummaries(const std::vector<ShotSummary> &Shots);

/// Everything a batch produces.
struct BatchResult {
  std::string StrategyName;
  size_t NumShots = 0;
  unsigned JobsUsed = 0;
  uint64_t Seed = 0;

  /// One summary per shot, in shot order.
  std::vector<ShotSummary> Shots;

  /// Full per-shot results; only populated under BatchRequest::KeepResults.
  std::vector<CompilationResult> Results;

  /// Aggregates over the shots.
  SummaryStat CNOTs;
  SummaryStat Singles;
  SummaryStat Totals;
  SummaryStat Samples;
  size_t TotalCancelledCNOTs = 0;
  size_t TotalCancelledSingles = 0;

  /// Wall-clock seconds spent compiling the shots (setup excluded — that
  /// happens once, at strategy construction).
  double Seconds = 0.0;

  /// Seconds spent producing and materializing each shot (the Markov walk
  /// plus gate counting), summed over shots. Each worker times its own
  /// shots into a per-shot slot and compileBatch adds the slots after the
  /// barrier, so under Jobs > 1 this is a CPU-seconds figure that can
  /// exceed the wall-clock Seconds. A deterministic strategy compiles
  /// once, so it counts once. Not carried by shard manifests: merged runs
  /// leave it 0.
  double CompileSeconds = 0.0;

  /// Seconds spent in per-shot *evaluation*, summed over shots. The
  /// engine leaves it 0; the hook owner fills it in (SimulationService
  /// times exactly its fidelity calls, so artifact copies in the hook
  /// never masquerade as evaluation). Under Jobs > 1 the hooks run
  /// concurrently, so this is a CPU-seconds figure that can exceed the
  /// wall-clock Seconds, exactly like CompileSeconds. The shard merge
  /// sums it across manifests.
  double EvalSeconds = 0.0;

  /// Order-sensitive combination of the per-shot sequence hashes; equal
  /// batches (same strategy, seed, shot count) have equal hashes no matter
  /// how many workers ran them.
  uint64_t batchHash() const;

  /// Recomputes the aggregate summaries (CNOTs/Singles/Totals/Samples and
  /// the cancelled-gate totals) from Shots. compileBatch and the shard
  /// merge both run this exact sequential pass, which is what makes a
  /// merged K-shard batch bit-identical to the single-process one down to
  /// the floating-point statistics.
  void recomputeAggregates();
};

/// Compiles single shots and deterministic parallel batches. Stateless;
/// cheap to construct wherever needed.
class CompilerEngine {
public:
  /// Compiles one shot with the substream RNG::forShot(Seed, 0) —
  /// identical to shot 0 of a batch with the same seed.
  CompilationResult compileOne(const ScheduleStrategy &Strategy,
                               uint64_t Seed,
                               const CompilationOptions &Opts = {}) const;

  /// Compiles Req.NumShots independent shots across Req.Jobs workers.
  BatchResult compileBatch(const BatchRequest &Req) const;
};

} // namespace marqsim

#endif // MARQSIM_CORE_COMPILERENGINE_H
