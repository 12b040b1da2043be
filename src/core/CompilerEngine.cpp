//===- core/CompilerEngine.cpp - Strategy-based compilation engine -----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CompilerEngine.h"

#include "stats/Stats.h"
#include "support/Serial.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace marqsim;

//===----------------------------------------------------------------------===//
// SamplingStrategy
//===----------------------------------------------------------------------===//

SamplingStrategy::SamplingStrategy(std::shared_ptr<const HTTGraph> G,
                                   double T, double Epsilon, bool UseCDF)
    : Graph(std::move(G)) {
  assert(Graph && "sampling strategy needs a graph");
  const Hamiltonian &H = Graph->hamiltonian();
  assert(!H.empty() && "cannot compile an empty Hamiltonian");
  NumSamples = qdriftSampleCount(H.lambda(), T, Epsilon);
  TauStep = H.lambda() * T / static_cast<double>(NumSamples);
  // The CDF ablation walks the same chain with O(log n) draws.
  Chain = std::make_shared<const MarkovChainSampler>(
      Graph->transitionMatrix(), Graph->stationary(),
      UseCDF ? SamplerKind::CDF : SamplerKind::Alias);
}

SamplingStrategy::SamplingStrategy(const SamplingStrategy &Other, double T,
                                   double Epsilon)
    : Graph(Other.Graph), Chain(Other.Chain) {
  const Hamiltonian &H = Graph->hamiltonian();
  NumSamples = qdriftSampleCount(H.lambda(), T, Epsilon);
  TauStep = H.lambda() * T / static_cast<double>(NumSamples);
}

std::string SamplingStrategy::name() const {
  return Chain->kind() == SamplerKind::CDF ? "sampling(cdf)" : "sampling";
}

ShotPlan SamplingStrategy::produce(ShotContext &Ctx) const {
  ShotPlan Plan;
  Plan.TauStep = TauStep;
  Plan.Sequence.resize(NumSamples);
  Chain->walk(Ctx.Rng, Plan.Sequence.data(), NumSamples);
  return Plan;
}

//===----------------------------------------------------------------------===//
// TrotterStrategy
//===----------------------------------------------------------------------===//

TrotterStrategy::TrotterStrategy(Hamiltonian H, double T, unsigned R,
                                 TermOrderKind Kind, unsigned O)
    : Ham(std::move(H)), Reps(R), Order(O) {
  assert(Reps > 0 && "Trotter needs at least one repetition");
  assert((Order == 1 || Order == 2 || Order == 4) &&
         "supported product-formula orders: 1, 2, 4");
  std::vector<size_t> TermOrder = orderTerms(Ham, Kind);
  const double Dt = T / static_cast<double>(Reps);

  // One symmetric second-order block S2(Scale * Dt).
  auto AppendS2 = [&](double Scale) {
    for (size_t Index : TermOrder) {
      Pattern.push_back(Index);
      PatternTaus.push_back(Ham.term(Index).Coeff * Dt * Scale * 0.5);
    }
    for (size_t K = TermOrder.size(); K-- > 0;) {
      Pattern.push_back(TermOrder[K]);
      PatternTaus.push_back(Ham.term(TermOrder[K]).Coeff * Dt * Scale * 0.5);
    }
  };

  switch (Order) {
  case 1:
    for (size_t Index : TermOrder) {
      Pattern.push_back(Index);
      PatternTaus.push_back(Ham.term(Index).Coeff * Dt);
    }
    break;
  case 2:
    AppendS2(1.0);
    break;
  case 4: {
    // S4(dt) = S2(p dt)^2 S2((1-4p) dt) S2(p dt)^2, p = 1/(4 - 4^{1/3}).
    const double P4 = 1.0 / (4.0 - std::pow(4.0, 1.0 / 3.0));
    AppendS2(P4);
    AppendS2(P4);
    AppendS2(1.0 - 4.0 * P4);
    AppendS2(P4);
    AppendS2(P4);
    break;
  }
  }
}

std::string TrotterStrategy::name() const {
  switch (Order) {
  case 1:
    return "trotter1";
  case 2:
    return "trotter2";
  default:
    return "suzuki4";
  }
}

ShotPlan TrotterStrategy::produce(ShotContext &Ctx) const {
  (void)Ctx; // deterministic: the RNG is never consulted
  ShotPlan Plan;
  Plan.Sequence.reserve(Pattern.size() * Reps);
  Plan.Taus.reserve(Pattern.size() * Reps);
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Plan.Sequence.insert(Plan.Sequence.end(), Pattern.begin(),
                         Pattern.end());
    Plan.Taus.insert(Plan.Taus.end(), PatternTaus.begin(),
                     PatternTaus.end());
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// RandomOrderTrotterStrategy
//===----------------------------------------------------------------------===//

RandomOrderTrotterStrategy::RandomOrderTrotterStrategy(Hamiltonian H,
                                                       double T, unsigned R)
    : Ham(std::move(H)), Dt(T / static_cast<double>(R)), Reps(R) {
  assert(Reps > 0 && "Trotter needs at least one repetition");
}

ShotPlan RandomOrderTrotterStrategy::produce(ShotContext &Ctx) const {
  const size_t N = Ham.numTerms();
  ShotPlan Plan;
  Plan.Sequence.reserve(N * Reps);
  Plan.Taus.reserve(N * Reps);
  std::vector<size_t> Perm(N);
  std::iota(Perm.begin(), Perm.end(), 0);
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    // Fisher-Yates with the project RNG for reproducibility.
    for (size_t I = N; I-- > 1;) {
      size_t J = Ctx.Rng.uniformInt(I + 1);
      std::swap(Perm[I], Perm[J]);
    }
    for (size_t Index : Perm) {
      Plan.Sequence.push_back(Index);
      Plan.Taus.push_back(Ham.term(Index).Coeff * Dt);
    }
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// SparStoStrategy
//===----------------------------------------------------------------------===//

SparStoStrategy::SparStoStrategy(Hamiltonian H, double T, unsigned R,
                                 double Scale)
    : Ham(std::move(H)), Dt(T / static_cast<double>(R)), KeepScale(Scale),
      Reps(R) {
  assert(Reps > 0 && "SparSto needs at least one repetition");
  assert(KeepScale > 0.0 && "keep scale must be positive");
  MaxMag = 0.0;
  for (const PauliTerm &Term : Ham.terms())
    MaxMag = std::max(MaxMag, std::fabs(Term.Coeff));
  assert(MaxMag > 0.0 && "empty Hamiltonian");
}

ShotPlan SparStoStrategy::produce(ShotContext &Ctx) const {
  const size_t NumTerms = Ham.numTerms();
  ShotPlan Plan;
  std::vector<size_t> Kept;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    // Independent keep decisions with unbiased 1/q_j rescaling.
    Kept.clear();
    std::vector<double> Taus;
    for (size_t J = 0; J < NumTerms; ++J) {
      double Q = std::min(1.0, KeepScale * std::fabs(Ham.term(J).Coeff) /
                                   MaxMag);
      if (!Ctx.Rng.bernoulli(Q))
        continue;
      Kept.push_back(J);
      Taus.push_back(Ham.term(J).Coeff * Dt / Q);
    }
    // Random order within the sparsified step.
    for (size_t I = Kept.size(); I-- > 1;) {
      size_t J = Ctx.Rng.uniformInt(I + 1);
      std::swap(Kept[I], Kept[J]);
      std::swap(Taus[I], Taus[J]);
    }
    Plan.Sequence.insert(Plan.Sequence.end(), Kept.begin(), Kept.end());
    Plan.Taus.insert(Plan.Taus.end(), Taus.begin(), Taus.end());
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// CompilerEngine
//===----------------------------------------------------------------------===//

uint64_t marqsim::hashSequence(const std::vector<size_t> &Sequence) {
  // An index below 2^16 has six zero upper bytes, and FNV-1a folds a zero
  // byte in as a bare multiply, so its 8-byte step is
  // ((H ^ b0) P ^ b1) P^7: two multiplies instead of eight.
  constexpr uint64_t P = serial::FNVPrime;
  constexpr uint64_t P7 = P * P * P * P * P * P * P;
  uint64_t H = serial::FNVOffset;
  for (size_t Value : Sequence) {
    if (Value < 0x10000)
      H = (((H ^ (Value & 0xFF)) * P) ^ (Value >> 8)) * P7;
    else
      H = serial::fnv1aWord(static_cast<uint64_t>(Value), H);
  }
  return H;
}

static ShotSummary summarizeShot(const CompilationResult &R) {
  ShotSummary S;
  S.NumSamples = R.NumSamples;
  S.Counts = R.Counts;
  S.Stats = R.Stats;
  S.SequenceHash = hashSequence(R.Sequence);
  return S;
}

static SummaryStat toSummary(const RunningStats &Stats) {
  SummaryStat S;
  S.Mean = Stats.mean();
  S.Std = Stats.stddev();
  S.Min = Stats.min();
  S.Max = Stats.max();
  return S;
}

uint64_t marqsim::hashShotSummaries(const std::vector<ShotSummary> &Shots) {
  uint64_t H = serial::FNVOffset;
  for (const ShotSummary &S : Shots)
    H = serial::fnv1aMixWord(H, S.SequenceHash);
  return H;
}

uint64_t BatchResult::batchHash() const { return hashShotSummaries(Shots); }

void BatchResult::recomputeAggregates() {
  TotalCancelledCNOTs = 0;
  TotalCancelledSingles = 0;
  RunningStats CNOTStats, SingleStats, TotalStats, SampleStats;
  for (const ShotSummary &S : Shots) {
    CNOTStats.add(static_cast<double>(S.Counts.CNOTs));
    SingleStats.add(static_cast<double>(S.Counts.SingleQubit));
    TotalStats.add(static_cast<double>(S.Counts.total()));
    SampleStats.add(static_cast<double>(S.NumSamples));
    TotalCancelledCNOTs += S.Stats.CancelledCNOTs;
    TotalCancelledSingles += S.Stats.CancelledSingles;
  }
  CNOTs = toSummary(CNOTStats);
  Singles = toSummary(SingleStats);
  Totals = toSummary(TotalStats);
  Samples = toSummary(SampleStats);
}

CompilationResult
CompilerEngine::compileOne(const ScheduleStrategy &Strategy, uint64_t Seed,
                           const CompilationOptions &Opts) const {
  RNG Rng = RNG::forShot(Seed, 0);
  ShotContext Ctx{0, Rng};
  return materializePlan(Strategy.hamiltonian(), Strategy.produce(Ctx),
                         Opts);
}

BatchResult CompilerEngine::compileBatch(const BatchRequest &Req) const {
  assert(Req.Strategy && "batch request without a strategy");
  assert(Req.NumShots > 0 && "batch needs at least one shot");
  const ScheduleStrategy &Strategy = *Req.Strategy;

  BatchResult B;
  B.StrategyName = Strategy.name();
  B.NumShots = Req.NumShots;
  B.Seed = Req.Seed;
  B.Shots.resize(Req.NumShots);
  if (Req.KeepResults)
    B.Results.resize(Req.NumShots);

  unsigned Jobs = Req.Jobs == 0 ? ThreadPool::hardwareWorkers() : Req.Jobs;
  Jobs = static_cast<unsigned>(
      std::min<size_t>(Jobs, Req.NumShots));

  // Per-shot walk + emission seconds: each worker writes its own slot,
  // summed into CompileSeconds after the batch.
  std::vector<double> CompileSecs(Req.NumShots, 0.0);
  auto RunShot = [&](size_t Shot) {
    Timer ShotClock;
    RNG Rng = RNG::forShot(Req.Seed, Req.FirstShot + Shot);
    ShotContext Ctx{Shot, Rng};
    CompilationResult R = materializePlan(Strategy.hamiltonian(),
                                          Strategy.produce(Ctx), Req.Opts);
    CompileSecs[Shot] = ShotClock.seconds();
    B.Shots[Shot] = summarizeShot(R);
    if (Req.PerShot)
      Req.PerShot(Shot, R);
    if (Req.KeepResults)
      B.Results[Shot] = std::move(R);
  };

  Timer Clock;
  if (Strategy.isDeterministic()) {
    // Every shot is identical: compile once, replicate. (The RNG is never
    // consulted, so the offset is cosmetic; it keeps the derivation rule
    // uniform.)
    RNG Rng = RNG::forShot(Req.Seed, Req.FirstShot);
    ShotContext Ctx{0, Rng};
    CompilationResult R = materializePlan(Strategy.hamiltonian(),
                                          Strategy.produce(Ctx), Req.Opts);
    CompileSecs[0] = Clock.seconds();
    B.Shots[0] = summarizeShot(R);
    for (size_t Shot = 1; Shot < Req.NumShots; ++Shot)
      B.Shots[Shot] = B.Shots[0];
    if (Req.PerShot)
      for (size_t Shot = 0; Shot < Req.NumShots; ++Shot)
        Req.PerShot(Shot, R);
    if (Req.KeepResults) {
      for (size_t Shot = 1; Shot < Req.NumShots; ++Shot)
        B.Results[Shot] = R;
      B.Results[0] = std::move(R);
    }
    B.JobsUsed = 1;
  } else {
    parallelFor(Req.NumShots, Jobs, RunShot);
    B.JobsUsed = Jobs;
  }
  B.Seconds = Clock.seconds();
  for (double S : CompileSecs)
    B.CompileSeconds += S;

  B.recomputeAggregates();
  return B;
}
