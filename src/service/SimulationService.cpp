//===- service/SimulationService.cpp - Cached simulation front-end -----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/SimulationService.h"

#include "hamgen/Registry.h"
#include "pauli/HamiltonianIO.h"
#include "sim/Kernels.h"
#include "sim/NoiseModel.h"
#include "support/CpuFeatures.h"
#include "stats/Stats.h"
#include "store/Codecs.h"
#include "support/Serial.h"
#include "support/Timer.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <stdexcept>

using namespace marqsim;

//===----------------------------------------------------------------------===//
// CacheStats
//===----------------------------------------------------------------------===//

CacheStats &CacheStats::operator+=(const CacheStats &O) {
  GCSolveHits += O.GCSolveHits;
  GCSolveMisses += O.GCSolveMisses;
  RPSolveHits += O.RPSolveHits;
  RPSolveMisses += O.RPSolveMisses;
  GraphHits += O.GraphHits;
  GraphMisses += O.GraphMisses;
  EvaluatorHits += O.EvaluatorHits;
  EvaluatorMisses += O.EvaluatorMisses;
  SuperHits += O.SuperHits;
  SuperMisses += O.SuperMisses;
  DiskLoads += O.DiskLoads;
  return *this;
}

//===----------------------------------------------------------------------===//
// SimulationService::Impl
//===----------------------------------------------------------------------===//

namespace {

/// Caps of the density-oracle paths. Direct dense evolution is O(4^n)
/// per schedule step; the composed superoperator holds 16^n complex
/// entries, so it is cached only where that is a few megabytes at most.
constexpr unsigned DensityOracleMaxQubits = 6;
constexpr unsigned SuperoperatorMaxQubits = 4;

/// An HTT graph plus the sampling tables built over it. The base strategy
/// carries the alias (or CDF) tables; tasks re-target it to their own
/// (time, epsilon) budget, sharing the tables.
struct GraphBundle {
  std::shared_ptr<const HTTGraph> Graph;
  std::shared_ptr<const SamplingStrategy> Base;
  bool Valid = false; // Theorem 4.1 validation, checked once at build
};

/// Builds a bundle over \p P — the one construction path shared by the
/// compute and disk-decode tiers, so a reloaded matrix reproduces the
/// computed bundle exactly (the sampler's tables are a deterministic
/// function of the matrix bits).
GraphBundle makeBundle(const Hamiltonian &H, TransitionMatrix P,
                       const TaskSpec &Spec) {
  GraphBundle B;
  B.Graph = std::make_shared<const HTTGraph>(H, std::move(P));
  B.Valid = B.Graph->isValidForCompilation();
  if (!B.Valid)
    return B;
  try {
    B.Base = std::make_shared<const SamplingStrategy>(
        B.Graph, Spec.Time, Spec.Epsilon, Spec.UseCDF);
  } catch (const std::invalid_argument &) {
    // The validation tolerance admits entries down to -1e-6; the sampler
    // takes no negative weight, so such a matrix is invalid as well.
    B.Valid = false;
  }
  return B;
}

/// LRU charge of a bundle: the combined matrix (8 bytes/entry) plus the
/// chain's sampling tables.
size_t bundleBytes(const GraphBundle &B) {
  size_t N = B.Graph->numStates();
  return N * N * sizeof(double) + (B.Base ? B.Base->chain().bytes() : 0);
}

} // namespace

struct SimulationService::Impl {
  ServiceOptions Options;

  /// The one cache of the service: every artifact type resolves through
  /// this tiered store (no per-type maps).
  ArtifactStore Store;

  mutable std::mutex StatsMutex;
  CacheStats Total;

  explicit Impl(ServiceOptions O)
      : Options(std::move(O)),
        Store(ArtifactStore::Options{Options.CacheDir,
                                     Options.CacheLimitBytes}) {}

  void note(const CacheStats &Delta, CacheStats *Local) {
    if (Local)
      *Local += Delta;
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Total += Delta;
  }

  //===--------------------------------------------------------------------===//
  // Cached resolution
  //===--------------------------------------------------------------------===//

  /// Resolves one MCFP component (Pgc or Prp) through the store. \p Solve
  /// runs at most once per key per process, and not at all when the disk
  /// tier has the artifact.
  std::shared_ptr<const TransitionMatrix>
  component(const ArtifactKey &Key, size_t ExpectedN, bool IsGC,
            const std::function<TransitionMatrix()> &Solve,
            CacheStats *Local) {
    ArtifactCodec<TransitionMatrix> Codec;
    Codec.Encode = [](const TransitionMatrix &P) {
      return store::encodeMatrixBody(store::MatrixMagic, P);
    };
    Codec.Decode = [ExpectedN](const std::string &Body) {
      return store::decodeMatrixBody(store::MatrixMagic, ExpectedN, Body);
    };
    Codec.Size = store::matrixBytes;
    ArtifactStore::Outcome Out;
    auto Value = Store.get<TransitionMatrix>(Key, Codec, Solve, &Out);
    CacheStats Delta;
    switch (Out) {
    case ArtifactStore::Outcome::Computed:
      (IsGC ? Delta.GCSolveMisses : Delta.RPSolveMisses)++;
      break;
    case ArtifactStore::Outcome::DiskHit:
      Delta.DiskLoads++;
      [[fallthrough]];
    case ArtifactStore::Outcome::MemoryHit:
      (IsGC ? Delta.GCSolveHits : Delta.RPSolveHits)++;
      break;
    }
    note(Delta, Local);
    return Value;
  }

  /// Builds the combined transition matrix of \p Mix for the prepared
  /// Hamiltonian, going through the component caches for the MCFP parts.
  TransitionMatrix combinedMatrix(const Hamiltonian &H, uint64_t Fingerprint,
                                  const TaskSpec &Spec, const ChannelMix &Mix,
                                  CacheStats *Local) {
    // Single-term Hamiltonians (and pure-qDrift mixes) skip the flow
    // machinery entirely; Pqd itself is O(n^2) to form and not worth
    // persisting.
    if (H.numTerms() < 2 || (Mix.WGc <= 0.0 && Mix.WRp <= 0.0))
      return buildQDrift(H);

    TransitionMatrix Pqd;
    std::vector<const TransitionMatrix *> Parts;
    std::vector<double> Weights;
    std::shared_ptr<const TransitionMatrix> GC, RP;
    if (Mix.WQd > 0.0) {
      Pqd = buildQDrift(H);
      Parts.push_back(&Pqd);
      Weights.push_back(Mix.WQd);
    }
    if (Mix.WGc > 0.0) {
      GC = component(store::componentKeyGC(Fingerprint, Spec.Flow),
                     H.numTerms(), /*IsGC=*/true,
                     [&] { return buildGateCancellation(H, Spec.Flow); },
                     Local);
      Parts.push_back(GC.get());
      Weights.push_back(Mix.WGc);
    }
    if (Mix.WRp > 0.0) {
      RP = component(
          store::componentKeyRP(Fingerprint, Spec.Flow, Spec.PerturbRounds,
                                Spec.PerturbSeed),
          H.numTerms(), /*IsGC=*/false,
          [&] {
            RNG PerturbRng(Spec.PerturbSeed);
            return buildRandomPerturbation(H, Spec.PerturbRounds, PerturbRng,
                                           Spec.Flow, Spec.Jobs);
          },
          Local);
      Parts.push_back(RP.get());
      Weights.push_back(Mix.WRp);
    }
    if (Parts.size() == 1)
      return *Parts.front();
    return TransitionMatrix::combine(Parts, Weights);
  }

  /// bundle() for the public entry points: a flow network the MCFP
  /// builders reject (std::invalid_argument, e.g. a spec's prob_scale too
  /// coarse to route every stationary weight) or a matrix that fails Theorem 4.1
  /// becomes an \p Error instead of a result.
  std::shared_ptr<const GraphBundle>
  validBundle(const Hamiltonian &H, uint64_t Fingerprint, const TaskSpec &Spec,
              const ChannelMix &Mix, CacheStats *Local, std::string *Error) {
    std::shared_ptr<const GraphBundle> B;
    try {
      B = bundle(H, Fingerprint, Spec, Mix, Local);
    } catch (const std::invalid_argument &E) {
      detail::fail(Error, E.what());
      return nullptr;
    }
    if (!B->Valid) {
      detail::fail(Error, "transition matrix failed Theorem 4.1 validation");
      return nullptr;
    }
    return B;
  }

  /// Resolves the graph + sampling-table bundle of a sampling spec. The
  /// disk tier persists the combined matrix, so a warm store skips the
  /// whole provenance chain (component solves + convex combination); a
  /// disk hit therefore also credits the component hits it made
  /// unnecessary.
  std::shared_ptr<const GraphBundle> bundle(const Hamiltonian &H,
                                            uint64_t Fingerprint,
                                            const TaskSpec &Spec,
                                            const ChannelMix &Mix,
                                            CacheStats *Local) {
    ArtifactKey Key = store::aliasBundleKey(
        Fingerprint, Mix.WQd, Mix.WGc, Mix.WRp, Spec.Flow,
        Spec.PerturbRounds, Spec.PerturbSeed, Spec.UseCDF);
    // Only flow-backed bundles are worth a disk file: a pure-qDrift
    // matrix rebuilds in O(n^2) with no solve to skip.
    const bool FlowBacked =
        H.numTerms() >= 2 && (Mix.WGc > 0.0 || Mix.WRp > 0.0);
    ArtifactCodec<GraphBundle> Codec;
    Codec.Size = bundleBytes;
    if (FlowBacked) {
      Codec.Encode = [](const GraphBundle &B) {
        // Never persist a matrix that failed Theorem 4.1: a warm store
        // must only ever skip work, not launder invalid artifacts.
        if (!B.Valid)
          return std::string();
        return store::encodeMatrixBody(store::AliasMagic,
                                       B.Graph->transitionMatrix());
      };
      Codec.Decode =
          [&H, &Spec](const std::string &Body) -> std::optional<GraphBundle> {
        std::optional<TransitionMatrix> P = store::decodeMatrixBody(
            store::AliasMagic, H.numTerms(), Body);
        if (!P)
          return std::nullopt;
        return makeBundle(H, std::move(*P), Spec);
      };
    }
    ArtifactStore::Outcome Out;
    auto Value = Store.get<GraphBundle>(
        Key, Codec,
        [&] {
          return makeBundle(
              H, combinedMatrix(H, Fingerprint, Spec, Mix, Local), Spec);
        },
        &Out);
    CacheStats Delta;
    switch (Out) {
    case ArtifactStore::Outcome::Computed:
      Delta.GraphMisses++;
      break;
    case ArtifactStore::Outcome::DiskHit:
      Delta.GraphHits++;
      Delta.DiskLoads++;
      // The components never had to be resolved: credit the avoided
      // solves so "hits" keeps meaning "solves the cache saved us".
      if (Mix.WGc > 0.0)
        Delta.GCSolveHits++;
      if (Mix.WRp > 0.0)
        Delta.RPSolveHits++;
      break;
    case ArtifactStore::Outcome::MemoryHit:
      Delta.GraphHits++;
      break;
    }
    note(Delta, Local);
    return Value;
  }

  std::shared_ptr<const FidelityEvaluator>
  evaluator(const Hamiltonian &H, uint64_t Fingerprint, const TaskSpec &Spec,
            CacheStats *Local) {
    ArtifactKey Key = store::fidelityColumnsKey(
        Fingerprint, Spec.Time, Spec.Evaluate.FidelityColumns,
        Spec.Evaluate.ColumnSeed);
    // The computing constructor clamps to "all columns" past 2^n; the
    // stored artifact holds the clamped count.
    const size_t Dim = size_t(1) << H.numQubits();
    const size_t ExpectedColumns =
        std::min(Spec.Evaluate.FidelityColumns, Dim);
    ArtifactCodec<FidelityEvaluator> Codec;
    Codec.Encode = store::encodeFidelityBody;
    Codec.Decode = [NQubits = H.numQubits(),
                    ExpectedColumns](const std::string &Body) {
      return store::decodeFidelityBody(NQubits, ExpectedColumns, Body);
    };
    Codec.Size = store::fidelityBytes;
    ArtifactStore::Outcome Out;
    auto Value = Store.get<FidelityEvaluator>(
        Key, Codec,
        [&] {
          return FidelityEvaluator(H, Spec.Time,
                                   Spec.Evaluate.FidelityColumns,
                                   Spec.Evaluate.ColumnSeed);
        },
        &Out);
    CacheStats Delta;
    switch (Out) {
    case ArtifactStore::Outcome::Computed:
      Delta.EvaluatorMisses++;
      break;
    case ArtifactStore::Outcome::DiskHit:
      Delta.DiskLoads++;
      [[fallthrough]];
    case ArtifactStore::Outcome::MemoryHit:
      Delta.EvaluatorHits++;
      break;
    }
    note(Delta, Local);
    return Value;
  }

  /// Resolves a composed noisy-schedule superoperator. \p Build runs at
  /// most once per key per process (single-flight), and not at all when
  /// the disk tier has the artifact; a corrupt or stale file falls back
  /// to recomposition like every other type.
  std::shared_ptr<const Matrix>
  superoperator(const ArtifactKey &Key, size_t ExpectedDim,
                const std::function<Matrix()> &Build, CacheStats *Local) {
    ArtifactCodec<Matrix> Codec;
    Codec.Encode = [](const Matrix &S) { return store::encodeSuperBody(S); };
    Codec.Decode = [ExpectedDim](const std::string &Body) {
      return store::decodeSuperBody(ExpectedDim, Body);
    };
    Codec.Size = store::superBytes;
    ArtifactStore::Outcome Out;
    auto Value = Store.get<Matrix>(Key, Codec, Build, &Out);
    CacheStats Delta;
    switch (Out) {
    case ArtifactStore::Outcome::Computed:
      Delta.SuperMisses++;
      break;
    case ArtifactStore::Outcome::DiskHit:
      Delta.DiskLoads++;
      [[fallthrough]];
    case ArtifactStore::Outcome::MemoryHit:
      Delta.SuperHits++;
      break;
    }
    note(Delta, Local);
    return Value;
  }
};

//===----------------------------------------------------------------------===//
// SimulationService
//===----------------------------------------------------------------------===//

SimulationService::SimulationService(ServiceOptions Opts)
    : M(std::make_unique<Impl>(std::move(Opts))) {}

SimulationService::~SimulationService() = default;

Hamiltonian SimulationService::prepare(const Hamiltonian &Raw) {
  // merged() canonicalizes the term order, making the downstream MCFP and
  // sampling artifacts a pure function of the operator content; the split
  // re-establishes the pi_i <= 0.5 flow-feasibility precondition.
  return Raw.merged().splitLargeTerms();
}

std::optional<Hamiltonian>
SimulationService::resolveHamiltonian(const HamiltonianSource &S,
                                      std::string *Error,
                                      bool Canonicalize) {
  std::optional<Hamiltonian> H;
  switch (S.SourceKind) {
  case HamiltonianSource::Kind::File:
    H = readHamiltonianFile(S.Path, Error);
    if (!H)
      return std::nullopt;
    break;
  case HamiltonianSource::Kind::Model: {
    std::optional<BenchmarkSpec> Spec = findBenchmark(S.Model);
    if (!Spec) {
      detail::fail(Error, "unknown benchmark model '" + S.Model + "'");
      return std::nullopt;
    }
    H = makeBenchmark(*Spec);
    break;
  }
  case HamiltonianSource::Kind::Inline:
    if (S.Ham.empty()) {
      detail::fail(Error, "inline Hamiltonian source is empty");
      return std::nullopt;
    }
    H = S.Ham;
    break;
  }
  if (!H) {
    detail::fail(Error, "unreachable Hamiltonian source kind");
    return std::nullopt;
  }
  return Canonicalize ? prepare(*H) : std::move(*H);
}

std::shared_ptr<const HTTGraph>
SimulationService::graphFor(const TaskSpec &Spec, std::string *Error) {
  std::string Validation;
  if (!Spec.validate(&Validation)) {
    detail::fail(Error, Validation);
    return nullptr;
  }
  std::optional<Hamiltonian> H = resolveHamiltonian(Spec.Source, Error);
  if (!H)
    return nullptr;
  ChannelMix Mix = Spec.Mix;
  Mix.normalize();
  auto Bundle =
      M->validBundle(*H, H->fingerprint(), Spec, Mix, nullptr, Error);
  return Bundle ? Bundle->Graph : nullptr;
}

bool SimulationService::prewarm(const TaskSpec &Spec, std::string *Error) {
  std::string Validation;
  if (!Spec.validate(&Validation))
    return detail::fail(Error, Validation);
  // Resolve exactly as run() would (sampling canonicalizes, the Trotter
  // family does not), so the warmed keys are the keys the run will ask
  // for.
  bool Canonical = Spec.Method == TaskMethod::Sampling;
  std::optional<Hamiltonian> H =
      resolveHamiltonian(Spec.Source, Error, Canonical);
  if (!H)
    return false;
  const uint64_t Fingerprint = H->fingerprint();
  if (Spec.Method == TaskMethod::Sampling) {
    ChannelMix Mix = Spec.Mix;
    Mix.normalize();
    if (!M->validBundle(*H, Fingerprint, Spec, Mix, nullptr, Error))
      return false;
  }
  if (Spec.Evaluate.FidelityColumns > 0)
    M->evaluator(*H, Fingerprint, Spec, nullptr);
  return true;
}

std::optional<TaskResult> SimulationService::run(const TaskSpec &Spec,
                                                 std::string *Error) {
  return run(Spec, ShotRange{0, Spec.Shots}, Error);
}

std::optional<TaskResult> SimulationService::run(const TaskSpec &Spec,
                                                 const ShotRange &Range,
                                                 std::string *Error) {
  std::string Validation;
  if (!Spec.validate(&Validation)) {
    detail::fail(Error, Validation);
    return std::nullopt;
  }
  // Overflow-safe: Range.end() could wrap for adversarial Begin/Count.
  if (Range.Count < 1 || Range.Begin > Spec.Shots ||
      Range.Count > Spec.Shots - Range.Begin) {
    detail::fail(Error, "shot range [" + std::to_string(Range.Begin) + ", " +
                            std::to_string(Range.end()) +
                            ") is empty or exceeds the task's " +
                            std::to_string(Spec.Shots) + " shots");
    return std::nullopt;
  }
  // Only the sampling path canonicalizes (its caches and MCFP need it);
  // Trotter-family tasks compile the operator exactly as given so
  // TermOrderKind::Given keeps its meaning. fingerprint() merges
  // internally, so both forms share one content hash (and hence one
  // cached fidelity evaluator — the operator is identical either way).
  bool Canonical = Spec.Method == TaskMethod::Sampling;
  std::optional<Hamiltonian> Resolved =
      resolveHamiltonian(Spec.Source, Error, Canonical);
  if (!Resolved)
    return std::nullopt;
  const Hamiltonian &H = *Resolved;

  TaskResult Result;
  Result.Fingerprint = H.fingerprint();

  // Schedule strategy: sampling goes through the artifact caches, the
  // Trotter family is cheap enough to construct per task.
  std::shared_ptr<const ScheduleStrategy> Strategy;
  switch (Spec.Method) {
  case TaskMethod::Sampling: {
    ChannelMix Mix = Spec.Mix;
    Mix.normalize();
    auto Bundle = M->validBundle(H, Result.Fingerprint, Spec, Mix,
                                 &Result.Stats, Error);
    if (!Bundle)
      return std::nullopt;
    // Re-target the cached tables to this task's (time, epsilon) budget;
    // the alias/CDF tables are shared, only N and tau are recomputed.
    std::shared_ptr<const SamplingStrategy> Sampling =
        Bundle->Base->retargeted(Spec.Time, Spec.Epsilon);
    Result.NumSamples = Sampling->sampleCount();
    if (Spec.Evaluate.DumpDot)
      Result.GraphDot = Bundle->Graph->toDot();
    Strategy = std::move(Sampling);
    break;
  }
  case TaskMethod::Trotter:
    Strategy = std::make_shared<const TrotterStrategy>(
        H, Spec.Time, Spec.TrotterReps, Spec.Order, Spec.TrotterOrder);
    break;
  case TaskMethod::RandomOrderTrotter:
    Strategy = std::make_shared<const RandomOrderTrotterStrategy>(
        H, Spec.Time, Spec.TrotterReps);
    break;
  case TaskMethod::SparSto:
    Strategy = std::make_shared<const SparStoStrategy>(
        H, Spec.Time, Spec.TrotterReps, Spec.SparStoKeepScale);
    break;
  }

  std::shared_ptr<const FidelityEvaluator> Eval;
  if (Spec.Evaluate.FidelityColumns > 0) {
    Eval = M->evaluator(H, Result.Fingerprint, Spec, &Result.Stats);
    Result.HasFidelity = true;
    Result.ShotFidelities.assign(Range.Count, 0.0);
  }

  // Noise setup. The stochastic tier works at any size; the density
  // oracle is dense 2^n x 2^n evolution, capped at small n, and the
  // cacheable superoperator form (D^4 entries) at smaller n still. Both
  // caps are pure functions of (spec, qubit count) — never of cache
  // state or worker count — so every jobs/shard split takes the same
  // path and the bit-identity contract holds.
  std::optional<NoiseModel> Noise;
  if (Spec.Noise.enabled() && Eval) {
    if (Spec.Noise.Mode == NoiseMode::Density &&
        H.numQubits() > DensityOracleMaxQubits) {
      detail::fail(Error, "the density-matrix noise oracle is capped at " +
                              std::to_string(DensityOracleMaxQubits) +
                              " qubits (task has " +
                              std::to_string(H.numQubits()) +
                              "); use --noise-mode=stochastic");
      return std::nullopt;
    }
    Noise.emplace(Spec.Noise);
  }
  const bool StochasticNoise =
      Noise && Spec.Noise.Mode == NoiseMode::Stochastic;

  // Shot zero is a global notion: only the range that contains it can
  // export it.
  bool WantShotZero = Spec.Evaluate.ExportShotZero && Range.Begin == 0;

  BatchRequest Req;
  Req.Strategy = Strategy;
  Req.NumShots = Range.Count;
  Req.FirstShot = Range.Begin;
  Req.Jobs = Spec.Jobs;
  Req.EvalJobs = Spec.EvalJobs;
  Req.Seed = Spec.Seed;
  Req.Opts = Spec.Lowering;
  Req.KeepResults = Spec.Evaluate.KeepResults;
  // Deterministic strategies replicate one compiled shot across the
  // batch, so their fidelity is evaluated once and replicated too — not
  // recomputed per shot on the identical schedule. Stochastic noise is
  // the exception: every shot draws its own errors from its own
  // substream, so the identical schedule still evaluates differently.
  // (The density oracle is itself deterministic, so it keeps the fold.)
  const bool EvalOnce =
      Eval && Strategy->isDeterministic() && !StochasticNoise;
  // Per-shot evaluation seconds: each worker writes its own slot, the sum
  // lands in BatchResult::EvalSeconds after the batch (timing is a
  // diagnostic, never a golden). Only the fidelity call is timed — the
  // shot-0 artifact copy below is walk/emission bookkeeping, not
  // evaluation.
  std::vector<double> EvalSecs(Eval ? Range.Count : 0, 0.0);
  if (Eval || WantShotZero) {
    // In-worker evaluation: each shot's fidelity is computed on the
    // worker that compiled it (the evaluator is immutable, the fidelity
    // a pure function of the schedule), writing to the shot's own slot.
    // Within the shot, the evaluator fans its column blocks across
    // Req.EvalJobs workers — the fixed block partition keeps every value
    // bit-identical. The hook's index is range-relative, matching the
    // result vectors.
    // The noisy fidelity of a shot is a pure function of (schedule,
    // spec seed, global shot index): stochastic draws come from the
    // counter-based noise substream at the *global* index (the hook's is
    // range-relative), so a sharded range reproduces the single-process
    // values bit for bit.
    const bool UseSuper = Noise && !StochasticNoise &&
                          Strategy->isDeterministic() &&
                          H.numQubits() <= SuperoperatorMaxQubits;
    // UseSuper is captured by value: the hook runs inside compileBatch,
    // after this block and its locals have ended.
    Req.PerShot = [&, UseSuper, EvalJobs = Req.EvalJobs](
                      size_t Shot, const CompilationResult &R) {
      if (Eval && (!EvalOnce || Shot == 0)) {
        Timer EvalClock;
        if (StochasticNoise) {
          RNG NoiseRng = RNG::forShot(
              NoiseModel::noiseStreamSeed(Spec.Seed), Range.Begin + Shot);
          Result.ShotFidelities[Shot] = Eval->stateFidelity(
              Noise->injectErrors(R.Schedule, NoiseRng), EvalJobs);
        } else if (Noise && UseSuper) {
          const size_t SuperDim = (size_t(1) << H.numQubits()) *
                                  (size_t(1) << H.numQubits());
          auto Super = M->superoperator(
              store::superoperatorKey(
                  Result.Fingerprint, Spec.Time, Spec.TrotterReps,
                  Spec.TrotterOrder, static_cast<uint64_t>(Spec.Order),
                  Spec.Lowering.Emit.CrossCancellation,
                  static_cast<uint64_t>(Spec.Noise.Kind),
                  serial::doubleBits(Spec.Noise.Prob),
                  serial::doubleBits(Spec.Noise.TwoQubitFactor)),
              SuperDim,
              [&] {
                return Noise->buildSuperoperator(R.Schedule, H.numQubits());
              },
              &Result.Stats);
          Result.ShotFidelities[Shot] =
              Noise->densityFidelityFromSuper(*Super, *Eval);
        } else if (Noise) {
          Result.ShotFidelities[Shot] =
              Noise->densityFidelity(R.Schedule, H.numQubits(), *Eval);
        } else {
          Result.ShotFidelities[Shot] = Eval->fidelity(R.Schedule, EvalJobs);
        }
        EvalSecs[Shot] = EvalClock.seconds();
      }
      if (WantShotZero && Shot == 0)
        Result.ShotZero = R; // single writer: shot 0's worker only
    };
  }

  CompilerEngine Engine;
  Result.Batch = Engine.compileBatch(Req);
  for (double S : EvalSecs)
    Result.Batch.EvalSeconds += S;
  Result.HasShotZero = WantShotZero;
  if (EvalOnce)
    std::fill(Result.ShotFidelities.begin() + 1, Result.ShotFidelities.end(),
              Result.ShotFidelities.front());

  if (Eval) {
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
// Artifact transport (the cross-host fabric's content-addressed fetch)
//===----------------------------------------------------------------------===//

namespace {

/// Encoded alias-bundle body, or empty for bundles that must not travel
/// (invalid matrices, which the store's own Encode refuses too).
std::string encodeBundleBody(const GraphBundle &B) {
  if (!B.Valid)
    return std::string();
  return store::encodeMatrixBody(store::AliasMagic,
                                 B.Graph->transitionMatrix());
}

} // namespace

std::string ResolvedArtifact::encode() const {
  // The encoders are context-free, so the key's type alone picks the
  // right cast.
  switch (Key.Type) {
  case ArtifactType::ComponentMatrix:
    return store::encodeMatrixBody(
        store::MatrixMagic,
        *std::static_pointer_cast<const TransitionMatrix>(Value));
  case ArtifactType::AliasBundle:
    return encodeBundleBody(
        *std::static_pointer_cast<const GraphBundle>(Value));
  case ArtifactType::FidelityColumns:
    return store::encodeFidelityBody(
        *std::static_pointer_cast<const FidelityEvaluator>(Value));
  case ArtifactType::Superoperator:
    return store::encodeSuperBody(
        *std::static_pointer_cast<const Matrix>(Value));
  }
  return std::string();
}

std::optional<std::vector<ResolvedArtifact>>
SimulationService::resolveArtifacts(const TaskSpec &Spec, std::string *Error) {
  std::string Validation;
  if (!Spec.validate(&Validation)) {
    detail::fail(Error, Validation);
    return std::nullopt;
  }
  bool Canonical = Spec.Method == TaskMethod::Sampling;
  std::optional<Hamiltonian> H =
      resolveHamiltonian(Spec.Source, Error, Canonical);
  if (!H)
    return std::nullopt;
  const uint64_t Fingerprint = H->fingerprint();

  std::vector<ResolvedArtifact> Out;
  if (Spec.Method == TaskMethod::Sampling) {
    ChannelMix Mix = Spec.Mix;
    Mix.normalize();
    // Only flow-backed bundles are worth shipping: a pure-qDrift matrix
    // rebuilds in O(n^2) on the worker with no solve to skip (mirroring
    // the disk tier's persistence policy). validBundle admits only
    // bundles that pass Theorem 4.1, so every listed one encodes.
    if (H->numTerms() >= 2 && (Mix.WGc > 0.0 || Mix.WRp > 0.0)) {
      auto Bundle =
          M->validBundle(*H, Fingerprint, Spec, Mix, nullptr, Error);
      if (!Bundle)
        return std::nullopt;
      Out.push_back({store::aliasBundleKey(Fingerprint, Mix.WQd, Mix.WGc,
                                           Mix.WRp, Spec.Flow,
                                           Spec.PerturbRounds,
                                           Spec.PerturbSeed, Spec.UseCDF),
                     std::move(Bundle)});
    }
  }
  if (Spec.Evaluate.FidelityColumns > 0)
    Out.push_back({store::fidelityColumnsKey(Fingerprint, Spec.Time,
                                             Spec.Evaluate.FidelityColumns,
                                             Spec.Evaluate.ColumnSeed),
                   M->evaluator(*H, Fingerprint, Spec, nullptr)});
  return Out;
}

std::optional<std::vector<TaskArtifact>>
SimulationService::exportArtifacts(const TaskSpec &Spec, std::string *Error) {
  std::optional<std::vector<ResolvedArtifact>> Resolved =
      resolveArtifacts(Spec, Error);
  if (!Resolved)
    return std::nullopt;
  std::vector<TaskArtifact> Out;
  Out.reserve(Resolved->size());
  for (const ResolvedArtifact &A : *Resolved)
    Out.push_back({A.Key, A.encode()});
  return Out;
}

std::optional<std::string>
SimulationService::exportArtifactBody(const ArtifactKey &Key) {
  if (std::shared_ptr<const void> V = M->Store.peekValue(Key.Id)) {
    // Empty only for an alias bundle that failed Theorem 4.1.
    std::string Body = ResolvedArtifact{Key, std::move(V)}.encode();
    if (Body.empty())
      return std::nullopt;
    return Body;
  }
  // The disk tier already holds the encoded body verbatim.
  return M->Store.peekDiskBody(Key);
}

bool SimulationService::hasArtifact(const ArtifactKey &Key) const {
  if (std::shared_ptr<const void> V = M->Store.peekValue(Key.Id))
    return Key.Type != ArtifactType::AliasBundle ||
           std::static_pointer_cast<const GraphBundle>(V)->Valid;
  return M->Store.peekDiskBody(Key).has_value();
}

std::optional<ArtifactImport>
SimulationService::importArtifact(const TaskSpec &Spec,
                                  const ArtifactKey &Key,
                                  const std::string &Body,
                                  std::string *Error) {
  std::string Validation;
  if (!Spec.validate(&Validation)) {
    detail::fail(Error, Validation);
    return std::nullopt;
  }
  bool Canonical = Spec.Method == TaskMethod::Sampling;
  std::optional<Hamiltonian> Resolved =
      resolveHamiltonian(Spec.Source, Error, Canonical);
  if (!Resolved)
    return std::nullopt;
  const Hamiltonian &H = *Resolved;
  const uint64_t Fingerprint = H.fingerprint();

  // The spec is the authorization: only keys the spec itself would
  // resolve are accepted, with the spec supplying the decode context.
  // Anything else — including a syntactically fine key with the wrong
  // fingerprint — is rejected, so a client cannot seed mismatched
  // artifacts under colliding ids.
  ArtifactStore::PutOutcome Put = ArtifactStore::PutOutcome::Rejected;
  bool Known = false;
  if (Spec.Method == TaskMethod::Sampling) {
    ChannelMix Mix = Spec.Mix;
    Mix.normalize();
    ArtifactKey BundleKey = store::aliasBundleKey(
        Fingerprint, Mix.WQd, Mix.WGc, Mix.WRp, Spec.Flow,
        Spec.PerturbRounds, Spec.PerturbSeed, Spec.UseCDF);
    if (Key.Id == BundleKey.Id) {
      Known = true;
      ArtifactCodec<GraphBundle> Codec;
      Codec.Size = bundleBytes;
      Codec.Encode = encodeBundleBody;
      Codec.Decode =
          [&H, &Spec](const std::string &B) -> std::optional<GraphBundle> {
        std::optional<TransitionMatrix> P =
            store::decodeMatrixBody(store::AliasMagic, H.numTerms(), B);
        if (!P)
          return std::nullopt;
        GraphBundle Bundle = makeBundle(H, std::move(*P), Spec);
        // Never admit a matrix that fails Theorem 4.1: a poisoned cache
        // entry would turn every later run of this spec into a failure.
        if (!Bundle.Valid)
          return std::nullopt;
        return Bundle;
      };
      Put = M->Store.put(BundleKey, Codec, Body);
    }
    if (!Known) {
      // Component solves are accepted too (symmetric with what a shared
      // cache directory would hold), though the fleet push normally ships
      // only the combined bundle.
      ArtifactKey GC = store::componentKeyGC(Fingerprint, Spec.Flow);
      ArtifactKey RP = store::componentKeyRP(
          Fingerprint, Spec.Flow, Spec.PerturbRounds, Spec.PerturbSeed);
      if (Key.Id == GC.Id || Key.Id == RP.Id) {
        Known = true;
        ArtifactCodec<TransitionMatrix> Codec;
        Codec.Size = store::matrixBytes;
        Codec.Encode = [](const TransitionMatrix &P) {
          return store::encodeMatrixBody(store::MatrixMagic, P);
        };
        Codec.Decode = [N = H.numTerms()](const std::string &B) {
          return store::decodeMatrixBody(store::MatrixMagic, N, B);
        };
        Put = M->Store.put(Key.Id == GC.Id ? GC : RP, Codec, Body);
      }
    }
  }
  if (!Known && Spec.Evaluate.FidelityColumns > 0) {
    ArtifactKey FidKey = store::fidelityColumnsKey(
        Fingerprint, Spec.Time, Spec.Evaluate.FidelityColumns,
        Spec.Evaluate.ColumnSeed);
    if (Key.Id == FidKey.Id) {
      Known = true;
      const size_t Dim = size_t(1) << H.numQubits();
      ArtifactCodec<FidelityEvaluator> Codec;
      Codec.Size = store::fidelityBytes;
      Codec.Encode = store::encodeFidelityBody;
      Codec.Decode = [NQubits = H.numQubits(),
                      Columns = std::min(Spec.Evaluate.FidelityColumns,
                                         Dim)](const std::string &B) {
        return store::decodeFidelityBody(NQubits, Columns, B);
      };
      Put = M->Store.put(FidKey, Codec, Body);
    }
  }

  if (!Known) {
    detail::fail(Error, "artifact key '" + Key.Id +
                            "' does not belong to this task");
    return std::nullopt;
  }
  switch (Put) {
  case ArtifactStore::PutOutcome::Inserted:
    return ArtifactImport::Inserted;
  case ArtifactStore::PutOutcome::AlreadyPresent:
    return ArtifactImport::Present;
  case ArtifactStore::PutOutcome::Rejected:
    break;
  }
  detail::fail(Error, "artifact body for '" + Key.Id +
                          "' failed to decode (corrupt or stale)");
  return std::nullopt;
}

CacheStats SimulationService::stats() const {
  std::lock_guard<std::mutex> Lock(M->StatsMutex);
  return M->Total;
}

ArtifactStore::Stats SimulationService::storeStats() const {
  return M->Store.stats();
}

const char *SimulationService::kernelName() { return kernels::activeName(); }

const char *SimulationService::detectedKernelName() {
  return kernels::detectedName();
}

bool SimulationService::avx512OsEnabled() { return cpuFeatures().AVX512OS; }
