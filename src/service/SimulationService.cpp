//===- service/SimulationService.cpp - Cached simulation front-end -----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/SimulationService.h"

#include "core/CNOTCountOracle.h"
#include "hamgen/Registry.h"
#include "pauli/HamiltonianIO.h"
#include "sim/Kernels.h"
#include "sim/NoiseModel.h"
#include "support/CpuFeatures.h"
#include "store/Codecs.h"
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
  DiskLoads += O.DiskLoads;
  return *this;
}

//===----------------------------------------------------------------------===//
// SimulationService::Impl
//===----------------------------------------------------------------------===//

namespace {

/// Cap of the density oracle: dense density-matrix evolution is O(4^n)
/// per schedule step.
constexpr unsigned DensityOracleMaxQubits = 6;

/// An HTT graph plus the sampling tables built over it. The base strategy
/// carries the alias tables; tasks re-target it to their own
/// (time, epsilon) budget, sharing the tables. Only matrices that pass
/// Theorem 4.1 and the sampler ever become a bundle.
struct GraphBundle {
  std::shared_ptr<const HTTGraph> Graph;
  std::shared_ptr<const SamplingStrategy> Base;
};

/// Builds a bundle over \p P — the one construction path shared by the
/// compute and decode tiers, so a reloaded matrix reproduces the computed
/// bundle exactly (the sampler's tables are a deterministic function of
/// the matrix bits). std::nullopt when the matrix fails Theorem 4.1 or
/// the sampler refuses it: the validation tolerance admits entries down
/// to -1e-6, and the sampler takes no negative weight.
std::optional<GraphBundle> makeBundle(const Hamiltonian &H, TransitionMatrix P,
                                      const TaskSpec &Spec) {
  auto Graph = std::make_shared<const HTTGraph>(H, std::move(P));
  if (!Graph->isValidForCompilation())
    return std::nullopt;
  try {
    auto Base = std::make_shared<const SamplingStrategy>(
        Graph, Spec.Time, Spec.Epsilon);
    return GraphBundle{std::move(Graph), std::move(Base)};
  } catch (const std::invalid_argument &) {
    return std::nullopt;
  }
}

/// One artifact of a spec, spelled once: its content key, the codec the
/// store's disk tier, importArtifact and the transport encode share, the
/// compute behind a store miss, and the CacheStats counters its store
/// outcomes credit.
template <typename T> struct Artifact {
  ArtifactKey Key;
  ArtifactCodec<T> Codec;
  std::function<T()> Compute;
  size_t CacheStats::*Hits = nullptr;
  size_t CacheStats::*Misses = nullptr;
  /// Credited on top of Hits by a disk load: a bundle read from disk
  /// skips the component solves behind it, so "hits" keeps meaning
  /// "solves the cache saved us".
  CacheStats DiskCredit;
};

/// What every entry point derives from a spec before touching the store.
struct Prepared {
  const TaskSpec &Spec;
  /// Canonical for sampling only (see prologue()).
  Hamiltonian H;
  uint64_t Fingerprint;
  /// Spec.Mix, normalized.
  ChannelMix Mix;
  /// A sampling mix with an MCFP part over at least two terms. Only its
  /// bundle is worth a disk file or a wire transfer: a pure-qDrift matrix
  /// rebuilds in O(n^2) with no solve to skip.
  bool FlowBacked;
};

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

  /// The prologue of every entry point: validate the spec, resolve its
  /// Hamiltonian, fingerprint it and normalize the mix. Only the sampling
  /// path canonicalizes (its caches and MCFP need it); Trotter-family
  /// tasks compile the operator exactly as given so TermOrderKind::Given
  /// keeps its meaning. fingerprint() merges internally, so both forms
  /// share one content hash (and hence one cached fidelity evaluator —
  /// the operator is identical either way).
  static std::optional<Prepared> prologue(const TaskSpec &Spec,
                                          std::string *Error) {
    std::string Validation;
    if (!Spec.validate(&Validation)) {
      detail::fail(Error, Validation);
      return std::nullopt;
    }
    const bool Sampling = Spec.Method == TaskMethod::Sampling;
    std::optional<Hamiltonian> H =
        resolveHamiltonian(Spec.Source, Error, Sampling);
    if (!H)
      return std::nullopt;
    const uint64_t Fingerprint = H->fingerprint();
    ChannelMix Mix = Spec.Mix;
    Mix.normalize();
    const bool FlowBacked = Sampling && H->numTerms() >= 2 &&
                            (Mix.WGc > 0.0 || Mix.WRp > 0.0);
    return Prepared{Spec, std::move(*H), Fingerprint, Mix, FlowBacked};
  }

  //===--------------------------------------------------------------------===//
  // The artifact table
  //===--------------------------------------------------------------------===//

  /// An MCFP component: Pgc (\p GC) or Prp. Its compute reads the spec's
  /// scaled CNOT table from \p CnotCosts, building it there if it is
  /// empty, so Pgc and Prp share one build; Prp, the last reader, takes
  /// the table and releases it.
  static Artifact<TransitionMatrix>
  component(const Prepared &P, bool GC, std::vector<int64_t> &CnotCosts) {
    const TaskSpec &Spec = P.Spec;
    const Hamiltonian &H = P.H;
    Artifact<TransitionMatrix> A;
    A.Key = GC ? store::componentKeyGC(P.Fingerprint, Spec.Flow)
               : store::componentKeyRP(P.Fingerprint, Spec.Flow,
                                       Spec.PerturbRounds, Spec.PerturbSeed);
    ArtifactCodec<TransitionMatrix> Codec;
    Codec.Encode = [](const TransitionMatrix &M) {
      return store::encodeMatrixBody(store::MatrixMagic, M);
    };
    Codec.Decode = [N = H.numTerms()](const std::string &Body) {
      return store::decodeMatrixBody(store::MatrixMagic, N, Body);
    };
    Codec.Size = store::matrixBytes;
    A.Codec = std::move(Codec);
    auto Costs = [&]() -> std::vector<int64_t> & {
      if (CnotCosts.empty())
        CnotCosts = scaledCnotCosts(H, Spec.Flow.CostScale);
      return CnotCosts;
    };
    if (GC) {
      A.Compute = [&H, &Spec, Costs] {
        return buildGateCancellation(H, Costs(), Spec.Flow);
      };
      A.Hits = &CacheStats::GCSolveHits;
      A.Misses = &CacheStats::GCSolveMisses;
    } else {
      A.Compute = [&H, &Spec, Costs] {
        RNG PerturbRng(Spec.PerturbSeed);
        return buildRandomPerturbation(H, std::move(Costs()),
                                       Spec.PerturbRounds, PerturbRng,
                                       Spec.Flow, Spec.Jobs);
      };
      A.Hits = &CacheStats::RPSolveHits;
      A.Misses = &CacheStats::RPSolveMisses;
    }
    return A;
  }

  /// The graph + sampling-table bundle of a sampling spec. The disk tier
  /// persists the combined matrix of a flow-backed mix, so a warm store
  /// skips the whole provenance chain (component solves + convex
  /// combination). A matrix that fails Theorem 4.1 or the sampler is never
  /// stored: the compute throws, and a decode falls back to the compute
  /// (which heals the file).
  Artifact<GraphBundle> bundle(const Prepared &P, CacheStats *Local) {
    const TaskSpec &Spec = P.Spec;
    const Hamiltonian &H = P.H;
    Artifact<GraphBundle> A;
    A.Key = store::aliasBundleKey(P.Fingerprint, P.Mix.WQd, P.Mix.WGc,
                                  P.Mix.WRp, Spec.Flow, Spec.PerturbRounds,
                                  Spec.PerturbSeed, TaskSpec::UseCDF);
    ArtifactCodec<GraphBundle> Codec;
    Codec.Size = [](const GraphBundle &B) {
      // The combined matrix (8 bytes/entry) plus the chain's tables.
      const size_t N = B.Graph->numStates();
      return N * N * sizeof(double) + B.Base->chain().bytes();
    };
    if (P.FlowBacked) {
      Codec.Encode = [](const GraphBundle &B) {
        return store::encodeMatrixBody(store::AliasMagic,
                                       B.Graph->transitionMatrix());
      };
      Codec.Decode =
          [&H, &Spec](const std::string &Body) -> std::optional<GraphBundle> {
        std::optional<TransitionMatrix> M =
            store::decodeMatrixBody(store::AliasMagic, H.numTerms(), Body);
        if (!M)
          return std::nullopt;
        return makeBundle(H, std::move(*M), Spec);
      };
    }
    A.Codec = std::move(Codec);
    A.Compute = [this, &P, Local] {
      std::optional<GraphBundle> B =
          makeBundle(P.H, combinedMatrix(P, Local), P.Spec);
      if (!B)
        throw std::invalid_argument(
            "transition matrix failed Theorem 4.1 validation");
      return std::move(*B);
    };
    A.Hits = &CacheStats::GraphHits;
    A.Misses = &CacheStats::GraphMisses;
    A.DiskCredit.GCSolveHits = P.Mix.WGc > 0.0;
    A.DiskCredit.RPSolveHits = P.Mix.WRp > 0.0;
    return A;
  }

  /// The exact fidelity target columns.
  static Artifact<FidelityEvaluator> fidelity(const Prepared &P) {
    const TaskSpec &Spec = P.Spec;
    const Hamiltonian &H = P.H;
    Artifact<FidelityEvaluator> A;
    A.Key = store::fidelityColumnsKey(P.Fingerprint, Spec.Time,
                                      Spec.Evaluate.FidelityColumns,
                                      Spec.Evaluate.ColumnSeed);
    // The computing constructor clamps to "all columns" past 2^n; the
    // stored artifact holds the clamped count.
    const size_t Columns = std::min(Spec.Evaluate.FidelityColumns,
                                    size_t(1) << H.numQubits());
    ArtifactCodec<FidelityEvaluator> Codec;
    Codec.Encode = store::encodeFidelityBody;
    Codec.Decode = [NQubits = H.numQubits(), Columns](const std::string &Body) {
      return store::decodeFidelityBody(NQubits, Columns, Body);
    };
    Codec.Size = store::fidelityBytes;
    A.Codec = std::move(Codec);
    A.Compute = [&] {
      return FidelityEvaluator(H, Spec.Time, Spec.Evaluate.FidelityColumns,
                               Spec.Evaluate.ColumnSeed);
    };
    A.Hits = &CacheStats::EvaluatorHits;
    A.Misses = &CacheStats::EvaluatorMisses;
    return A;
  }

  /// Visits the spec's transportable artifacts in transport order, until
  /// \p Visit returns false: the alias bundle of a flow-backed mix (it
  /// short-circuits the receiver's MCFP solves) and the fidelity columns.
  /// These are the only keys resolveArtifacts lists and importArtifact
  /// accepts. Returns false when a visit did.
  template <typename Fn> bool forEachTransportable(const Prepared &P,
                                                   Fn &&Visit) {
    return (!P.FlowBacked || Visit(bundle(P, nullptr))) &&
           (P.Spec.Evaluate.FidelityColumns == 0 || Visit(fidelity(P)));
  }

  //===--------------------------------------------------------------------===//
  // Cached resolution
  //===--------------------------------------------------------------------===//

  /// Resolves \p A through the store and credits the outcome to its
  /// counters. The compute runs at most once per key per process, and not
  /// at all when the disk tier has the artifact.
  template <typename T>
  std::shared_ptr<const T> get(const Artifact<T> &A, CacheStats *Local) {
    ArtifactStore::Outcome Out;
    auto Value = Store.get<T>(A.Key, A.Codec, A.Compute, &Out);
    CacheStats Delta;
    switch (Out) {
    case ArtifactStore::Outcome::Computed:
      ++(Delta.*A.Misses);
      break;
    case ArtifactStore::Outcome::DiskHit:
      Delta += A.DiskCredit;
      Delta.DiskLoads++;
      [[fallthrough]];
    case ArtifactStore::Outcome::MemoryHit:
      ++(Delta.*A.Hits);
      break;
    }
    note(Delta, Local);
    return Value;
  }

  /// get() for the public entry points: a compute the builders reject
  /// (std::invalid_argument: a flow network the MCFP builders refuse, e.g.
  /// a prob_scale too coarse to route every stationary weight, or a matrix
  /// that fails Theorem 4.1) becomes an \p Error instead of a result.
  template <typename T>
  std::shared_ptr<const T> resolve(const Artifact<T> &A, CacheStats *Local,
                                   std::string *Error) {
    try {
      return get(A, Local);
    } catch (const std::invalid_argument &E) {
      detail::fail(Error, E.what());
      return nullptr;
    }
  }

  /// The combined transition matrix of the spec's mix, going through the
  /// component artifacts for the MCFP parts.
  TransitionMatrix combinedMatrix(const Prepared &P, CacheStats *Local) {
    const ChannelMix &Mix = P.Mix;
    // Single-term Hamiltonians (and pure-qDrift mixes) skip the flow
    // machinery entirely; Pqd itself is O(n^2) to form and not worth
    // persisting.
    if (!P.FlowBacked)
      return buildQDrift(P.H);

    // The CNOT table of the component computes; released before the
    // combined matrix is allocated.
    std::vector<int64_t> CnotCosts;
    std::vector<const TransitionMatrix *> Parts;
    std::vector<double> Weights;
    std::shared_ptr<const TransitionMatrix> GC, RP;
    if (Mix.WGc > 0.0) {
      GC = get(component(P, /*GC=*/true, CnotCosts), Local);
      Parts.push_back(GC.get());
      Weights.push_back(Mix.WGc);
    }
    if (Mix.WRp > 0.0) {
      RP = get(component(P, /*GC=*/false, CnotCosts), Local);
      Parts.push_back(RP.get());
      Weights.push_back(Mix.WRp);
    }
    std::vector<int64_t>().swap(CnotCosts);
    if (Mix.WQd == 0.0 && Parts.size() == 1)
      return *Parts.front();
    // Pqd is folded in from pi, first, as combine() over {Pqd, ...} would.
    return TransitionMatrix::combine(P.H.stationaryDistribution(), Mix.WQd,
                                     Parts, Weights);
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
  std::optional<Prepared> P = Impl::prologue(Spec, Error);
  if (!P)
    return nullptr;
  if (Spec.Method != TaskMethod::Sampling) {
    detail::fail(Error, "graphFor needs a sampling spec");
    return nullptr;
  }
  auto Bundle = M->resolve(M->bundle(*P, nullptr), nullptr, Error);
  return Bundle ? Bundle->Graph : nullptr;
}

bool SimulationService::prewarm(const TaskSpec &Spec, std::string *Error) {
  // Resolve exactly as run() would, so the warmed keys are the keys the
  // run will ask for.
  std::optional<Prepared> P = Impl::prologue(Spec, Error);
  if (!P)
    return false;
  if (Spec.Method == TaskMethod::Sampling &&
      !M->resolve(M->bundle(*P, nullptr), nullptr, Error))
    return false;
  return Spec.Evaluate.FidelityColumns == 0 ||
         M->resolve(Impl::fidelity(*P), nullptr, Error);
}

std::optional<TaskResult> SimulationService::run(const TaskSpec &Spec,
                                                 std::string *Error) {
  return run(Spec, ShotRange{0, Spec.Shots}, Error);
}

std::optional<TaskResult> SimulationService::run(const TaskSpec &Spec,
                                                 const ShotRange &Range,
                                                 std::string *Error) {
  std::optional<Prepared> P = Impl::prologue(Spec, Error);
  if (!P)
    return std::nullopt;
  // Overflow-safe: Range.end() could wrap for adversarial Begin/Count.
  if (Range.Count < 1 || Range.Begin > Spec.Shots ||
      Range.Count > Spec.Shots - Range.Begin) {
    detail::fail(Error, "shot range [" + std::to_string(Range.Begin) + ", " +
                            std::to_string(Range.end()) +
                            ") is empty or exceeds the task's " +
                            std::to_string(Spec.Shots) + " shots");
    return std::nullopt;
  }
  const Hamiltonian &H = P->H;

  TaskResult Result;
  Result.Fingerprint = P->Fingerprint;

  // Schedule strategy: sampling goes through the artifact caches, the
  // Trotter family is cheap enough to construct per task.
  std::shared_ptr<const ScheduleStrategy> Strategy;
  switch (Spec.Method) {
  case TaskMethod::Sampling: {
    auto Bundle =
        M->resolve(M->bundle(*P, &Result.Stats), &Result.Stats, Error);
    if (!Bundle)
      return std::nullopt;
    // Re-target the cached tables to this task's (time, epsilon) budget;
    // the alias tables are shared, only N and tau are recomputed.
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
    Eval = M->resolve(Impl::fidelity(*P), &Result.Stats, Error);
    if (!Eval)
      return std::nullopt;
    Result.HasFidelity = true;
    Result.ShotFidelities.assign(Range.Count, 0.0);
  }

  // Noise setup. The stochastic tier works at any size; the density
  // oracle is dense 2^n x 2^n evolution, capped at small n. The cap is a
  // pure function of (spec, qubit count) — never of cache state or
  // worker count — so every jobs/shard split takes the same path and the
  // bit-identity contract holds.
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
    Req.PerShot = [&, EvalJobs = Req.EvalJobs](
                      size_t Shot, const CompilationResult &R) {
      if (Eval && (!EvalOnce || Shot == 0)) {
        Timer EvalClock;
        if (StochasticNoise) {
          RNG NoiseRng = RNG::forShot(
              NoiseModel::noiseStreamSeed(Spec.Seed), Range.Begin + Shot);
          Result.ShotFidelities[Shot] = Eval->stateFidelity(
              Noise->injectErrors(R.Schedule, NoiseRng), EvalJobs);
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

  if (Eval)
    Result.Fidelity = SummaryStat::of(Result.ShotFidelities);
  return Result;
}

//===----------------------------------------------------------------------===//
// Artifact transport (the cross-host fabric's content-addressed push)
//===----------------------------------------------------------------------===//

std::optional<std::vector<ResolvedArtifact>>
SimulationService::resolveArtifacts(const TaskSpec &Spec, std::string *Error) {
  std::optional<Prepared> P = Impl::prologue(Spec, Error);
  if (!P)
    return std::nullopt;
  std::vector<ResolvedArtifact> Out;
  bool Resolved = M->forEachTransportable(*P, [&](const auto &A) {
    auto Value = M->resolve(A, nullptr, Error);
    if (!Value)
      return false;
    // The closure pins the value, so it stays encodable even if the
    // memory tier evicts its entry.
    Out.push_back({A.Key, [Encode = A.Codec.Encode, Value] {
                     return Encode(*Value);
                   }});
    return true;
  });
  if (!Resolved)
    return std::nullopt;
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
    Out.push_back({A.Key, A.Encode()});
  return Out;
}

bool SimulationService::hasArtifact(const ArtifactKey &Key) const {
  return M->Store.peekValue(Key.Id) || M->Store.peekDiskBody(Key);
}

std::optional<ArtifactImport>
SimulationService::importArtifact(const TaskSpec &Spec,
                                  const ArtifactKey &Key,
                                  const std::string &Body,
                                  std::string *Error) {
  std::optional<Prepared> P = Impl::prologue(Spec, Error);
  if (!P)
    return std::nullopt;
  // The spec is the authorization: only its own transportable keys are
  // accepted, decoded with the spec's context by the same codec the disk
  // tier uses. Anything else — including a syntactically fine key with the
  // wrong fingerprint — is rejected, so a client cannot seed mismatched
  // artifacts under colliding ids.
  std::optional<ArtifactStore::PutOutcome> Put;
  M->forEachTransportable(*P, [&](const auto &A) {
    if (A.Key.Id == Key.Id)
      Put = M->Store.put(A.Key, A.Codec, Body);
    return !Put;
  });
  if (!Put) {
    detail::fail(Error, "artifact key '" + Key.Id +
                            "' does not belong to this task");
    return std::nullopt;
  }
  switch (*Put) {
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
