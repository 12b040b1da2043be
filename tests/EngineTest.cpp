//===- tests/EngineTest.cpp - CompilerEngine / batch determinism tests --------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The determinism contracts of the batch engine:
//   * compileBatch is bit-identical for every worker count,
//   * compileOne(Seed) equals shot 0 of a batch with the same seed,
//   * deterministic strategies replicate one shot across the batch,
// plus frozen sequence, fidelity and shot-0 QASM goldens, the RNG
// substream derivation, the ThreadPool, the CDF quantile
// clamp, and a chi-square check that the alias and CDF samplers agree in
// distribution.
//
//===----------------------------------------------------------------------===//

#include "circuit/QasmExport.h"
#include "core/CompilerEngine.h"
#include "core/TransitionBuilders.h"
#include "hamgen/Registry.h"
#include "service/SimulationService.h"
#include "sim/Fidelity.h"
#include "support/CpuFeatures.h"
#include "support/Serial.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>

using namespace marqsim;

namespace {

/// A small strongly-interacting Hamiltonian for engine tests.
Hamiltonian testHamiltonian() {
  return Hamiltonian::parse({{1.0, "IIZY"},
                             {0.8, "XXII"},
                             {0.6, "ZXZY"},
                             {0.4, "IZZX"},
                             {0.2, "XYYZ"}})
      .splitLargeTerms();
}

std::shared_ptr<const HTTGraph> testGraph(double WQd = 0.4,
                                          double WGc = 0.6) {
  Hamiltonian H = testHamiltonian();
  TransitionMatrix P = makeConfigMatrix(H, WQd, WGc, 0.0);
  return std::make_shared<const HTTGraph>(std::move(H), std::move(P));
}

/// chi^2 critical value via the Wilson-Hilferty approximation at z sigma.
double chiSquareCritical(size_t Df, double Z) {
  double D = static_cast<double>(Df);
  double Term = 1.0 - 2.0 / (9.0 * D) + Z * std::sqrt(2.0 / (9.0 * D));
  return D * Term * Term * Term;
}

} // namespace

//===----------------------------------------------------------------------===//
// RNG::forShot
//===----------------------------------------------------------------------===//

TEST(RNGForShotTest, SameSeedAndShotGiveIdenticalStreams) {
  RNG A = RNG::forShot(123, 7);
  RNG B = RNG::forShot(123, 7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNGForShotTest, DistinctShotsAndSeedsGiveDistinctStreams) {
  RNG A = RNG::forShot(123, 0);
  RNG B = RNG::forShot(123, 1);
  RNG C = RNG::forShot(124, 0);
  // First draws differing is the cheap necessary condition; collisions of
  // all three would indicate broken derivation.
  uint64_t DA = A.next(), DB = B.next(), DC = C.next();
  EXPECT_NE(DA, DB);
  EXPECT_NE(DA, DC);
  EXPECT_NE(DB, DC);
}

TEST(RNGForShotTest, IndependentOfGeneratorState) {
  // forShot is a pure function of (Seed, Shot): interleaving other
  // derivations or draws must not change a substream.
  RNG Reference = RNG::forShot(9, 4);
  RNG Noise(1);
  Noise.next();
  (void)RNG::forShot(1, 1);
  RNG Again = RNG::forShot(9, 4);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(Reference.next(), Again.next());
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  const size_t N = 1000;
  std::vector<std::atomic<int>> Visits(N);
  for (auto &V : Visits)
    V.store(0);
  parallelFor(N, 8, [&](size_t I) { Visits[I].fetch_add(1); });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Visits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, MoreJobsThanWorkAndInlinePaths) {
  for (unsigned Jobs : {0u, 1u, 3u, 64u}) {
    std::atomic<size_t> Sum{0};
    parallelFor(5, Jobs, [&](size_t I) { Sum.fetch_add(I + 1); });
    EXPECT_EQ(Sum.load(), 15u) << "jobs=" << Jobs;
  }
  // Empty ranges are a no-op.
  parallelFor(0, 4, [&](size_t) { FAIL() << "body called for empty range"; });
}

TEST(ThreadPoolTest, PropagatesTheFirstException) {
  EXPECT_THROW(parallelFor(100, 4,
                           [&](size_t I) {
                             if (I == 42)
                               throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForCompletesEveryIndex) {
  // Per-shot evaluation nests parallelFor (EvalJobs) inside the batch's
  // parallelFor (Jobs). The caller-participates design must drain every
  // inner index even when all shared-pool workers are busy with outer
  // work — an implementation that parks inner stubs behind blocked outer
  // stubs would deadlock or drop indices here.
  const size_t Outer = 16, Inner = 8;
  std::vector<std::atomic<int>> Visits(Outer * Inner);
  for (auto &V : Visits)
    V.store(0);
  parallelFor(Outer, 4, [&](size_t O) {
    parallelFor(Inner, 4,
                [&](size_t I) { Visits[O * Inner + I].fetch_add(1); });
  });
  for (size_t K = 0; K < Outer * Inner; ++K)
    EXPECT_EQ(Visits[K].load(), 1) << "slot " << K;
}

TEST(ThreadPoolTest, SharedPoolPersistsAcrossCalls) {
  // Repeated fan-outs must reuse the process-wide pool, not respawn
  // threads: the pool only ever grows to the largest helper demand.
  parallelFor(8, 3, [](size_t) {});
  const unsigned AfterFirst = ThreadPool::shared().numWorkers();
  EXPECT_GE(AfterFirst, 2u); // Jobs - 1 helpers
  for (int Round = 0; Round < 50; ++Round)
    parallelFor(8, 3, [](size_t) {});
  EXPECT_EQ(ThreadPool::shared().numWorkers(), AfterFirst);
  parallelFor(8, 5, [](size_t) {});
  EXPECT_GE(ThreadPool::shared().numWorkers(), 4u);
}

TEST(ThreadPoolTest, SubmitAndWaitDrainsAllTasks) {
  ThreadPool Pool(4);
  std::atomic<int> Done{0};
  for (int I = 0; I < 64; ++I)
    Pool.submit([&] { Done.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Done.load(), 64);
}

//===----------------------------------------------------------------------===//
// CDFSampler quantile clamp
//===----------------------------------------------------------------------===//

TEST(CDFSamplerClampTest, OverflowingQuantileStaysInSupport) {
  // Draws that land at or past the final cumulative sum (possible when
  // rounding makes Cumulative.back() < the true total) must clamp to the
  // last *positive-weight* index, not a trailing zero-weight one.
  CDFSampler TrailingZeros(std::vector<double>{1.0, 0.0, 0.0});
  EXPECT_EQ(TrailingZeros.indexForQuantile(1.0), 0u);
  EXPECT_EQ(TrailingZeros.indexForQuantile(2.0), 0u);

  CDFSampler MiddleMass(std::vector<double>{0.0, 2.0, 0.0});
  EXPECT_EQ(MiddleMass.indexForQuantile(1.0), 1u);
  EXPECT_EQ(MiddleMass.indexForQuantile(0.0), 1u);

  CDFSampler Dense(std::vector<double>{0.25, 0.5, 0.25});
  EXPECT_EQ(Dense.indexForQuantile(1.0), 2u);
}

TEST(CDFSamplerClampTest, RandomDrawsNeverHitZeroWeightEntries) {
  RNG Gen(77);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<double> W(17);
    for (double &X : W)
      X = Gen.bernoulli(0.3) ? 0.0 : Gen.uniform();
    W[16] = 0.0; // force a zero-weight tail
    if (std::accumulate(W.begin(), W.end(), 0.0) <= 0.0)
      W[0] = 1.0;
    CDFSampler S(W);
    RNG Rng(100 + Trial);
    for (int I = 0; I < 20000; ++I) {
      size_t K = S.sample(Rng);
      ASSERT_LT(K, W.size());
      ASSERT_GT(W[K], 0.0) << "draw hit zero-weight index " << K;
    }
  }
}

//===----------------------------------------------------------------------===//
// Alias vs CDF agreement (chi-square)
//===----------------------------------------------------------------------===//

TEST(SamplerAgreementTest, ChiSquareAgainstExpectedOnRandomWeights) {
  RNG Gen(2025);
  const int Draws = 60000;
  for (size_t Size : {4u, 9u, 16u, 33u}) {
    std::vector<double> W(Size);
    double Total = 0.0;
    for (double &X : W)
      Total += (X = 0.05 + Gen.uniform()); // bounded away from 0 so every
                                           // expected count is large
    AliasSampler Alias(W);
    CDFSampler CDF(W);
    RNG RA(Size * 31 + 1), RC(Size * 31 + 2);
    std::vector<int> CA(Size, 0), CC(Size, 0);
    for (int I = 0; I < Draws; ++I) {
      ++CA[Alias.sample(RA)];
      ++CC[CDF.sample(RC)];
    }
    // Goodness of fit of both samplers against the target distribution.
    double StatA = 0.0, StatC = 0.0;
    for (size_t K = 0; K < Size; ++K) {
      double Expected = Draws * W[K] / Total;
      StatA += (CA[K] - Expected) * (CA[K] - Expected) / Expected;
      StatC += (CC[K] - Expected) * (CC[K] - Expected) / Expected;
    }
    double Critical = chiSquareCritical(Size - 1, 3.29); // ~p = 0.9995
    EXPECT_LT(StatA, Critical) << "alias sampler off target, size " << Size;
    EXPECT_LT(StatC, Critical) << "CDF sampler off target, size " << Size;

    // Two-sample chi-square: the samplers agree with each other.
    double StatAC = 0.0;
    for (size_t K = 0; K < Size; ++K) {
      double Sum = CA[K] + CC[K];
      if (Sum > 0)
        StatAC += (CA[K] - CC[K]) * (CA[K] - CC[K]) / Sum;
    }
    EXPECT_LT(StatAC, Critical) << "samplers disagree, size " << Size;
  }
}

//===----------------------------------------------------------------------===//
// Markov chain sampler: shared qDrift table plus sparse rows
//===----------------------------------------------------------------------===//

TEST(ChainSamplerTest, ChiSquarePerRowOnMixedMatrix) {
  // A qDrift row plus two sparse entries per row: every step mixes the
  // coin, the shared table and the row table. Each row's transitions must
  // fit the dense row, for both component samplers.
  const size_t N = 7;
  RNG Gen(404);
  std::vector<double> Pi(N);
  double PiTotal = 0.0;
  for (double &X : Pi)
    PiTotal += (X = 0.2 + Gen.uniform());
  for (double &X : Pi)
    X /= PiTotal;
  TransitionMatrix P = TransitionMatrix::fromStationary(Pi);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      P.at(I, J) *= 0.35;
      if (J == (I + 1) % N)
        P.at(I, J) += 0.65 * 0.7;
      if (J == (I + 3) % N)
        P.at(I, J) += 0.65 * 0.3;
    }
  const int Draws = 40000;
  const double Critical = chiSquareCritical(N - 1, 3.29); // ~p = 0.9995
  for (SamplerKind Kind : {SamplerKind::Alias, SamplerKind::CDF}) {
    MarkovChainSampler Chain(P, Pi, Kind);
    ASSERT_TRUE(Chain.hasSharedTable());
    EXPECT_EQ(Chain.numRowCells(), 2 * N);
    RNG Rng(17 + static_cast<int>(Kind));
    for (size_t I = 0; I < N; ++I) {
      std::vector<int> Counts(N, 0);
      for (int D = 0; D < Draws; ++D)
        ++Counts[Chain.stepFrom(I, Rng)];
      double Stat = 0.0;
      for (size_t J = 0; J < N; ++J) {
        double Expected = Draws * P.at(I, J);
        Stat += (Counts[J] - Expected) * (Counts[J] - Expected) / Expected;
      }
      EXPECT_LT(Stat, Critical) << "row " << I << ", kind "
                                << static_cast<int>(Kind);
    }
  }
}

TEST(ChainSamplerTest, WalkDrawsWhatInitialAndStepFromDraw) {
  auto Graph = testGraph();
  for (SamplerKind Kind : {SamplerKind::Alias, SamplerKind::CDF}) {
    MarkovChainSampler Chain(Graph->transitionMatrix(), Graph->stationary(),
                             Kind);
    std::vector<size_t> Walked(500);
    RNG R1(9), R2(9);
    Chain.walk(R1, Walked.data(), Walked.size());
    size_t State = Chain.initial(R2);
    EXPECT_EQ(Walked[0], State);
    for (size_t K = 1; K < Walked.size(); ++K) {
      State = Chain.stepFrom(State, R2);
      ASSERT_EQ(Walked[K], State) << "step " << K;
    }
    EXPECT_EQ(R1.next(), R2.next());
  }
}

TEST(ChainSamplerTest, RowLawMatchesDenseRowOnPaperWorkloads) {
  // Tolerance proof of the sampler re-freeze: the law each row's tables
  // imply (t_i * shared + (1 - t_i) * row) equals the dense combined row
  // P_i / sum_j P_ij within a few ulps on every row, and the sparsity of
  // the MCFP components is found (LiH keeps <= 8 cells per row where the
  // dense tables had 614). LiH runs one perturbation round for speed.
  struct Case {
    const char *Model;
    const char *Mix;
    unsigned Rounds;
  };
  const Case Cases[] = {{"Na+", "gc", 8}, {"OH-", "gc", 8}, {"LiH", "gc-rp", 1}};
  for (const Case &C : Cases) {
    Hamiltonian H =
        makeBenchmark(*findBenchmark(C.Model)).merged().splitLargeTerms();
    ChannelMix Mix = *ChannelMix::preset(C.Mix);
    TransitionMatrix P =
        makeConfigMatrix(H, Mix.WQd, Mix.WGc, Mix.WRp, C.Rounds, 0x5eed);
    const std::vector<double> Pi = H.stationaryDistribution();
    const size_t N = P.size();
    for (SamplerKind Kind : {SamplerKind::Alias, SamplerKind::CDF}) {
      MarkovChainSampler Chain(P, Pi, Kind);
      ASSERT_TRUE(Chain.hasSharedTable()) << C.Model;
      double MaxError = 0.0;
      for (size_t I = 0; I < N; ++I) {
        std::vector<double> Law = Chain.rowLaw(I);
        double RowSum = 0.0;
        for (size_t J = 0; J < N; ++J)
          RowSum += P.at(I, J);
        for (size_t J = 0; J < N; ++J)
          MaxError =
              std::max(MaxError, std::fabs(Law[J] - P.at(I, J) / RowSum));
      }
      EXPECT_LE(MaxError, 4e-15) << C.Model << ", kind "
                                 << static_cast<int>(Kind);
      if (std::string(C.Model) == "LiH") {
        EXPECT_LE(static_cast<double>(Chain.numRowCells()) / N, 8.0);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Fixed-seed draw regression
//===----------------------------------------------------------------------===//

// The chi-square test above only checks *distributions*, so a sampler
// change that shifts which draws land where (a reordered alias table, an
// extra RNG consumption, a different tie-break) sails through it while
// silently invalidating every recorded batch hash. These golden sequences
// pin the exact draws: a legitimate sampler change must update them
// consciously, alongside every other seeded artifact it invalidates.

TEST(SamplerRegressionTest, AliasDrawSequenceIsFrozen) {
  const std::vector<double> W = {0.15, 0.3, 0.05, 0.25, 0.25};
  AliasSampler Alias(W);
  RNG Rng(12345);
  const size_t Golden[] = {3, 1, 4, 4, 3, 3, 1, 3, 3, 4, 1, 4, 0, 4, 1, 3};
  for (size_t I = 0; I < std::size(Golden); ++I)
    EXPECT_EQ(Alias.sample(Rng), Golden[I]) << "draw " << I;
}

TEST(SamplerRegressionTest, CDFDrawSequenceIsFrozen) {
  const std::vector<double> W = {0.15, 0.3, 0.05, 0.25, 0.25};
  CDFSampler CDF(W);
  RNG Rng(12345);
  const size_t Golden[] = {3, 0, 4, 0, 3, 0, 1, 1, 1, 4, 4, 3, 4, 4, 0, 4};
  for (size_t I = 0; I < std::size(Golden); ++I)
    EXPECT_EQ(CDF.sample(Rng), Golden[I]) << "draw " << I;
}

TEST(SamplerRegressionTest, ForShotSubstreamIsFrozen) {
  RNG Rng = RNG::forShot(7, 3);
  const uint64_t Golden[] = {14711317644352780248ULL, 3901681286276763966ULL,
                             9208789493979141732ULL, 8053204431652315326ULL};
  for (size_t I = 0; I < std::size(Golden); ++I)
    EXPECT_EQ(Rng.next(), Golden[I]) << "draw " << I;
}

TEST(SamplerRegressionTest, BatchHashesAreFrozen) {
  // End-to-end pin over the whole pipeline: graph construction, alias (and
  // CDF) table layout, the Markov walk, and the sequence hashing. Recorded
  // shard manifests and cached sweeps all assume these values. Re-frozen
  // once when the walk moved to the shared + sparse-row tables (same law,
  // different draws; ChainSamplerTest holds the tolerance proof).
  auto Graph = testGraph();
  CompilerEngine Engine;
  BatchRequest Req;
  Req.Strategy = std::make_shared<const SamplingStrategy>(Graph, 0.5, 0.05);
  Req.NumShots = 4;
  Req.Seed = 2025;
  BatchResult Batch = Engine.compileBatch(Req);
  EXPECT_EQ(Batch.batchHash(), 7087704909972214917ULL);
  const uint64_t GoldenShots[] = {
      18340506026725574722ULL, 15093242630734011012ULL,
      5743106723516372869ULL, 5462462935375686565ULL};
  ASSERT_EQ(Batch.Shots.size(), std::size(GoldenShots));
  for (size_t I = 0; I < std::size(GoldenShots); ++I)
    EXPECT_EQ(Batch.Shots[I].SequenceHash, GoldenShots[I]) << "shot " << I;

  Req.Strategy =
      std::make_shared<const SamplingStrategy>(Graph, 0.5, 0.05,
                                               /*UseCDF=*/true);
  EXPECT_EQ(Engine.compileBatch(Req).batchHash(), 12403702277167737980ULL);
}

TEST(SamplerRegressionTest, FidelityHexesAreFrozen) {
  // End-to-end pin over the evaluation substrate: the Markov walk, the
  // fused Pauli kernels (butterfly + diagonal fast path), the StatePanel
  // sweep, and the fixed-order overlap reduction. The kernels reproduce
  // the pre-fusion two-pass implementation's bits; the hexes moved by at
  // most 2.3e-16 when the exact targets switched from a Taylor to a
  // Chebyshev propagator, and were re-recorded when the walk's draws
  // changed (new schedules, not new kernels). A kernel change that
  // perturbs one bit of one amplitude lands here. Unlike the
  // integer-sequence goldens above they pass through libm cos/sin/exp, so
  // they assume the CI platform's libm (x86-64 glibc); a 1-ulp libm
  // difference elsewhere fails this test without a real kernel
  // regression — the portable fusion contract lives in SimTest's
  // reference-kernel comparisons and bench_eval_kernels.
  auto Graph = testGraph();
  CompilerEngine Engine;
  BatchRequest Req;
  Req.Strategy = std::make_shared<const SamplingStrategy>(Graph, 0.5, 0.05);
  Req.NumShots = 4;
  Req.Seed = 2025;
  Req.KeepResults = true;
  BatchResult Batch = Engine.compileBatch(Req);

  Hamiltonian H = testHamiltonian();
  FidelityEvaluator Eval(H, 0.5, 8, 7);
  const char *Golden[] = {"3feff225b44634e2", "3fefd8a9ca8ae03f",
                          "3fef986a30623f57", "3fefca40465aafc1"};
  ASSERT_EQ(Batch.Results.size(), std::size(Golden));
  for (size_t Shot = 0; Shot < std::size(Golden); ++Shot)
    EXPECT_EQ(serial::hex16(serial::doubleBits(
                  Eval.fidelity(Batch.Results[Shot].Schedule))),
              Golden[Shot])
        << "shot " << Shot;

  // The gate-level circuit path shares the panel substrate.
  EXPECT_EQ(serial::hex16(serial::doubleBits(
                Eval.fidelityOfCircuit(Batch.Results[0].circuit()))),
            "3feff225b4463447");

  // Within-shot fan-out must not move a bit: a 16-column (two-block)
  // evaluator under EvalJobs 1 and 4 yields identical hexes per shot.
  FidelityEvaluator Exact(H, 0.5, 16, 7);
  ASSERT_TRUE(Exact.isExact());
  for (size_t Shot = 0; Shot < Batch.Results.size(); ++Shot) {
    const auto &Schedule = Batch.Results[Shot].Schedule;
    EXPECT_EQ(serial::doubleBits(Exact.fidelity(Schedule, 1)),
              serial::doubleBits(Exact.fidelity(Schedule, 4)))
        << "shot " << Shot;
  }
}

TEST(SamplerRegressionTest, ShotZeroQasmIsFrozen) {
  // Pins the emitter's gate order, root choices and Rz angles end to end
  // on two registry workloads, through the service and the on-demand
  // lowering that --out and the daemon use; the count/gate split must
  // reproduce every byte. Re-frozen with the batch hashes above when the
  // walk's draws changed. LiH runs one perturbation round to keep the
  // test fast (the MCFP solves dominate it, not the lowering).
  struct Case {
    const char *Model;
    const char *Mix;
    unsigned PerturbRounds;
    size_t Gates;
    uint64_t QasmHash;
  };
  const Case Cases[] = {{"Na+", "gc", 8, 20680, 0x922295af9a5539f8ULL},
                        {"LiH", "gc-rp", 1, 437218, 0xd7a3591badb07348ULL}};
  for (const Case &C : Cases) {
    TaskSpec Spec;
    Spec.Source = HamiltonianSource::fromModel(C.Model);
    Spec.Mix = *ChannelMix::preset(C.Mix);
    Spec.PerturbRounds = C.PerturbRounds;
    Spec.Seed = 2025;
    Spec.Evaluate.ExportShotZero = true;
    SimulationService Service;
    std::string Error;
    std::optional<TaskResult> R = Service.run(Spec, &Error);
    ASSERT_TRUE(R) << C.Model << ": " << Error;
    Circuit Circ = R->ShotZero.circuit();
    EXPECT_EQ(Circ.size(), C.Gates) << C.Model;
    EXPECT_EQ(Circ.size(), R->ShotZero.Counts.total()) << C.Model;
    EXPECT_EQ(serial::fnv1a(toQasm(Circ)), C.QasmHash) << C.Model;
  }
}

//===----------------------------------------------------------------------===//
// CompilerEngine batches
//===----------------------------------------------------------------------===//

TEST(CompilerEngineTest, BatchBitIdenticalAcrossJobCounts) {
  auto Graph = testGraph();
  auto Strategy =
      std::make_shared<const SamplingStrategy>(Graph, 0.5, 0.05);
  CompilerEngine Engine;

  BatchRequest Req;
  Req.Strategy = Strategy;
  Req.NumShots = 12;
  Req.Seed = 31337;
  Req.KeepResults = true;

  Req.Jobs = 1;
  BatchResult Serial = Engine.compileBatch(Req);
  Req.Jobs = 8;
  BatchResult Parallel = Engine.compileBatch(Req);

  ASSERT_EQ(Serial.NumShots, Parallel.NumShots);
  EXPECT_EQ(Serial.batchHash(), Parallel.batchHash());
  for (size_t Shot = 0; Shot < Serial.NumShots; ++Shot) {
    EXPECT_EQ(Serial.Results[Shot].Sequence, Parallel.Results[Shot].Sequence)
        << "shot " << Shot;
    EXPECT_EQ(Serial.Shots[Shot].Counts.CNOTs,
              Parallel.Shots[Shot].Counts.CNOTs);
    EXPECT_EQ(Serial.Shots[Shot].Counts.SingleQubit,
              Parallel.Shots[Shot].Counts.SingleQubit);
    EXPECT_EQ(Serial.Shots[Shot].SequenceHash,
              Parallel.Shots[Shot].SequenceHash);
  }
  EXPECT_DOUBLE_EQ(Serial.CNOTs.Mean, Parallel.CNOTs.Mean);
  EXPECT_DOUBLE_EQ(Serial.CNOTs.Std, Parallel.CNOTs.Std);
}

TEST(CompilerEngineTest, SequenceHashIsTheByteWiseFNVChain) {
  // hashSequence folds an index below 2^16 in two multiplies; every index
  // must still hash exactly as the 8-byte FNV-1a chain of serial::fnv1aWord.
  // A Hamiltonian with 2^16 terms is out of reach, so the byte-loop
  // fallback is checked on bare sequences.
  auto ByteWise = [](const std::vector<size_t> &Sequence) {
    uint64_t H = serial::FNVOffset;
    for (size_t Value : Sequence)
      H = serial::fnv1aWord(static_cast<uint64_t>(Value), H);
    return H;
  };
  const std::vector<size_t> Edges = {
      0, 255, 256, 65535, 65536, static_cast<size_t>(uint64_t(1) << 32),
      SIZE_MAX};
  EXPECT_EQ(hashSequence({}), serial::FNVOffset);
  for (size_t Value : Edges)
    EXPECT_EQ(hashSequence({Value}), ByteWise({Value})) << Value;
  EXPECT_EQ(hashSequence(Edges), ByteWise(Edges));

  BatchRequest Req;
  Req.Strategy = std::make_shared<const SamplingStrategy>(testGraph(), 0.5,
                                                          0.05);
  Req.NumShots = 4;
  Req.Seed = 2718;
  Req.KeepResults = true;
  BatchResult B = CompilerEngine().compileBatch(Req);
  for (size_t Shot = 0; Shot < B.NumShots; ++Shot) {
    const std::vector<size_t> &Sequence = B.Results[Shot].Sequence;
    EXPECT_EQ(B.Shots[Shot].SequenceHash, hashSequence(Sequence));
    EXPECT_EQ(hashSequence(Sequence), ByteWise(Sequence));
  }
}

TEST(CompilerEngineTest, CompileOneMatchesBatchShotZero) {
  auto Strategy =
      std::make_shared<const SamplingStrategy>(testGraph(), 0.4, 0.1);
  CompilerEngine Engine;

  CompilationResult One = Engine.compileOne(*Strategy, 99);

  BatchRequest Req;
  Req.Strategy = Strategy;
  Req.NumShots = 3;
  Req.Seed = 99;
  Req.KeepResults = true;
  BatchResult Batch = Engine.compileBatch(Req);

  EXPECT_EQ(One.Sequence, Batch.Results[0].Sequence);
  EXPECT_EQ(One.Counts.CNOTs, Batch.Results[0].Counts.CNOTs);
  // Later shots use different substreams.
  EXPECT_NE(Batch.Shots[0].SequenceHash, Batch.Shots[1].SequenceHash);
}

TEST(CompilerEngineTest, DistinctSeedsChangeTheBatch) {
  auto Strategy =
      std::make_shared<const SamplingStrategy>(testGraph(), 0.4, 0.1);
  CompilerEngine Engine;
  BatchRequest Req;
  Req.Strategy = Strategy;
  Req.NumShots = 4;
  Req.Seed = 1;
  BatchResult A = Engine.compileBatch(Req);
  Req.Seed = 2;
  BatchResult B = Engine.compileBatch(Req);
  EXPECT_NE(A.batchHash(), B.batchHash());
}

TEST(CompilerEngineTest, DeterministicStrategyReplicatesOneShot) {
  Hamiltonian H = testHamiltonian();
  auto Strategy = std::make_shared<const TrotterStrategy>(
      H, 0.7, 4, TermOrderKind::Lexicographic, 2);
  ASSERT_TRUE(Strategy->isDeterministic());

  CompilerEngine Engine;
  BatchRequest Req;
  Req.Strategy = Strategy;
  Req.NumShots = 6;
  Req.Jobs = 4;
  Req.Seed = 5;
  Req.KeepResults = true;
  BatchResult Batch = Engine.compileBatch(Req);

  for (size_t Shot = 1; Shot < Batch.NumShots; ++Shot) {
    EXPECT_EQ(Batch.Shots[Shot].SequenceHash, Batch.Shots[0].SequenceHash);
    EXPECT_EQ(Batch.Results[Shot].Sequence, Batch.Results[0].Sequence);
  }
  EXPECT_DOUBLE_EQ(Batch.CNOTs.Std, 0.0);
  EXPECT_DOUBLE_EQ(Batch.Totals.Std, 0.0);
  // The replicated schedule matches a single compileOne bit for bit.
  CompilationResult One = Engine.compileOne(
      TrotterStrategy(H, 0.7, 4, TermOrderKind::Lexicographic, 2), 0);
  EXPECT_EQ(One.Sequence, Batch.Results[0].Sequence);
  EXPECT_EQ(One.Counts.CNOTs, Batch.Results[0].Counts.CNOTs);
}

TEST(CompilerEngineTest, PerShotHookSeesEveryShotOnce) {
  auto Strategy =
      std::make_shared<const SamplingStrategy>(testGraph(), 0.5, 0.05);
  CompilerEngine Engine;

  BatchRequest Req;
  Req.Strategy = Strategy;
  Req.NumShots = 10;
  Req.Jobs = 4;
  Req.Seed = 77;
  std::vector<size_t> SeenCNOTs(Req.NumShots, 0);
  std::atomic<size_t> Calls{0};
  Req.PerShot = [&](size_t Shot, const CompilationResult &R) {
    SeenCNOTs[Shot] = R.Counts.CNOTs;
    Calls.fetch_add(1);
  };
  BatchResult Batch = Engine.compileBatch(Req);

  EXPECT_EQ(Calls.load(), Req.NumShots);
  for (size_t Shot = 0; Shot < Req.NumShots; ++Shot)
    EXPECT_EQ(SeenCNOTs[Shot], Batch.Shots[Shot].Counts.CNOTs)
        << "shot " << Shot;
  // Evaluation accounting belongs to the hook owner (SimulationService
  // times its fidelity calls); the engine never guesses at what a generic
  // hook spends its time on. Walk + emission is the engine's own work: it
  // times each shot and sums the slots.
  EXPECT_EQ(Batch.EvalSeconds, 0.0);
  EXPECT_GT(Batch.CompileSeconds, 0.0);
}

TEST(CompilerEngineTest, PerShotHookFiresPerReplicatedShot) {
  auto Strategy = std::make_shared<const TrotterStrategy>(
      testHamiltonian(), 0.7, 3, TermOrderKind::Lexicographic, 1);
  ASSERT_TRUE(Strategy->isDeterministic());

  CompilerEngine Engine;
  BatchRequest Req;
  Req.Strategy = Strategy;
  Req.NumShots = 5;
  Req.Seed = 5;
  size_t Calls = 0;
  size_t FirstCNOTs = 0;
  Req.PerShot = [&](size_t Shot, const CompilationResult &R) {
    if (Shot == 0)
      FirstCNOTs = R.Counts.CNOTs;
    EXPECT_EQ(R.Counts.CNOTs, FirstCNOTs);
    ++Calls;
  };
  BatchResult Batch = Engine.compileBatch(Req);
  EXPECT_EQ(Calls, Req.NumShots);
  EXPECT_EQ(Batch.Shots[0].Counts.CNOTs, FirstCNOTs);
}

TEST(CompilerEngineTest, RetargetedStrategySharesGraphAndChangesBudget) {
  auto Graph = testGraph();
  SamplingStrategy Loose(Graph, 0.5, 0.1);
  SamplingStrategy Tight(Loose, 0.5, 0.01);
  EXPECT_GT(Tight.sampleCount(), Loose.sampleCount());
  EXPECT_EQ(&Tight.graph(), &Loose.graph());

  // Both remain valid producers.
  CompilerEngine Engine;
  CompilationResult A = Engine.compileOne(Loose, 1);
  CompilationResult B = Engine.compileOne(Tight, 1);
  EXPECT_EQ(A.NumSamples, Loose.sampleCount());
  EXPECT_EQ(B.NumSamples, Tight.sampleCount());
}

TEST(CompilerEngineTest, CDFAblationBatchIsAlsoJobInvariant) {
  auto Graph = testGraph();
  auto Strategy = std::make_shared<const SamplingStrategy>(Graph, 0.4, 0.1,
                                                           /*UseCDF=*/true);
  CompilerEngine Engine;
  BatchRequest Req;
  Req.Strategy = Strategy;
  Req.NumShots = 8;
  Req.Seed = 7;
  Req.Jobs = 1;
  BatchResult Serial = Engine.compileBatch(Req);
  Req.Jobs = 5;
  BatchResult Parallel = Engine.compileBatch(Req);
  EXPECT_EQ(Serial.batchHash(), Parallel.batchHash());
}

//===----------------------------------------------------------------------===//
// Summary-only and materializing batch paths
//===----------------------------------------------------------------------===//

namespace {

/// One strategy of every kind compileBatch runs: sampling with the alias
/// and the CDF sampler, Trotter orders 1, 2 and 4, random-order Trotter
/// and SparSto. The Hamiltonian carries an identity term, which every
/// fold drops.
std::vector<std::shared_ptr<const ScheduleStrategy>> everyStrategyKind() {
  Hamiltonian H = testHamiltonian();
  H.addTerm(0.3, PauliString());
  TransitionMatrix P = makeConfigMatrix(H, 0.4, 0.6, 0.0);
  auto Graph = std::make_shared<const HTTGraph>(H, std::move(P));
  return {std::make_shared<const SamplingStrategy>(Graph, 0.5, 0.05),
          std::make_shared<const SamplingStrategy>(Graph, 0.5, 0.05,
                                                   /*UseCDF=*/true),
          std::make_shared<const TrotterStrategy>(
              H, 0.6, 3, TermOrderKind::Lexicographic, 1),
          std::make_shared<const TrotterStrategy>(
              H, 0.6, 3, TermOrderKind::Given, 2),
          std::make_shared<const TrotterStrategy>(
              H, 0.6, 2, TermOrderKind::MagnitudeDescending, 4),
          std::make_shared<const RandomOrderTrotterStrategy>(H, 0.5, 6),
          std::make_shared<const SparStoStrategy>(H, 0.3, 8, 1.5)};
}

void expectSameSummary(const ShotSummary &A, const ShotSummary &B) {
  EXPECT_EQ(A.NumSamples, B.NumSamples);
  EXPECT_EQ(A.Counts.CNOTs, B.Counts.CNOTs);
  EXPECT_EQ(A.Counts.SingleQubit, B.Counts.SingleQubit);
  EXPECT_EQ(A.Stats.CancelledCNOTs, B.Stats.CancelledCNOTs);
  EXPECT_EQ(A.Stats.CancelledSingles, B.Stats.CancelledSingles);
  EXPECT_EQ(A.SequenceHash, B.SequenceHash);
}

void expectSameStat(const SummaryStat &A, const SummaryStat &B) {
  EXPECT_DOUBLE_EQ(A.Mean, B.Mean);
  EXPECT_DOUBLE_EQ(A.Std, B.Std);
  EXPECT_DOUBLE_EQ(A.Min, B.Min);
  EXPECT_DOUBLE_EQ(A.Max, B.Max);
}

} // namespace

TEST(CompilerEngineTest, SummaryOnlyBatchEqualsMaterializingBatch) {
  // Without a hook or KeepResults each shot is only summarized (the walk
  // folds as it draws, writing no Sequence or Schedule); with either, each
  // shot is materialized. Shot by shot the summaries must be equal, and a
  // no-op hook must not change the batch hash or any aggregate.
  CompilerEngine Engine;
  for (const auto &Strategy : everyStrategyKind()) {
    for (unsigned Jobs : {1u, 4u}) {
      for (bool Cancel : {true, false}) {
        SCOPED_TRACE(Strategy->name() + " jobs=" + std::to_string(Jobs) +
                     " cancel=" + std::to_string(Cancel));
        BatchRequest Req;
        Req.Strategy = Strategy;
        Req.NumShots = 6;
        Req.Jobs = Jobs;
        Req.Seed = 4099;
        Req.Opts.Emit.CrossCancellation = Cancel;
        BatchResult Summary = Engine.compileBatch(Req);

        Req.KeepResults = true;
        BatchResult Kept = Engine.compileBatch(Req);
        ASSERT_EQ(Kept.Results.size(), Req.NumShots);
        Req.KeepResults = false;
        Req.PerShot = [](size_t, const CompilationResult &) {};
        BatchResult Hooked = Engine.compileBatch(Req);

        EXPECT_TRUE(Summary.Results.empty());
        ASSERT_EQ(Summary.Shots.size(), Req.NumShots);
        for (size_t Shot = 0; Shot < Req.NumShots; ++Shot) {
          SCOPED_TRACE("shot " + std::to_string(Shot));
          const CompilationResult &R = Kept.Results[Shot];
          expectSameSummary(Summary.Shots[Shot], Kept.Shots[Shot]);
          expectSameSummary(Summary.Shots[Shot], Hooked.Shots[Shot]);
          EXPECT_EQ(Summary.Shots[Shot].SequenceHash,
                    hashSequence(R.Sequence));
          EXPECT_EQ(Summary.Shots[Shot].NumSamples, R.Sequence.size());
          EXPECT_EQ(Summary.Shots[Shot].Counts.CNOTs,
                    R.circuit().counts().CNOTs);
        }
        EXPECT_EQ(Summary.batchHash(), Hooked.batchHash());
        EXPECT_EQ(Summary.batchHash(), Kept.batchHash());
        for (const BatchResult *Other : {&Kept, &Hooked}) {
          expectSameStat(Summary.CNOTs, Other->CNOTs);
          expectSameStat(Summary.Singles, Other->Singles);
          expectSameStat(Summary.Totals, Other->Totals);
          expectSameStat(Summary.Samples, Other->Samples);
          EXPECT_EQ(Summary.TotalCancelledCNOTs, Other->TotalCancelledCNOTs);
          EXPECT_EQ(Summary.TotalCancelledSingles,
                    Other->TotalCancelledSingles);
        }
      }
    }
  }
}

TEST(CompilerEngineTest, SummarizeEqualsMaterializeOnEveryPopcountPath) {
  // The strategy-level contract behind the summary-only path: summarize()
  // equals foldAndCount's summary of produce()'s plan, and for sampling,
  // walkAndCount does on each popcount the host can run and leaves the
  // shot's generator where the materializing walk leaves it.
  std::vector<PopcountPath> Paths = {PopcountPath::Portable};
  if (cpuFeatures().POPCNT)
    Paths.push_back(PopcountPath::Hardware);
  for (const auto &Strategy : everyStrategyKind()) {
    const Hamiltonian &H = Strategy->hamiltonian();
    const auto *Sampling =
        dynamic_cast<const SamplingStrategy *>(Strategy.get());
    for (bool Cancel : {true, false}) {
      EmitOptions Emit;
      Emit.CrossCancellation = Cancel;
      for (PopcountPath Path : Paths) {
        for (uint64_t Shot = 0; Shot < 3; ++Shot) {
          SCOPED_TRACE(Strategy->name() + " cancel=" +
                       std::to_string(Cancel) + " popcnt=" +
                       std::to_string(Path == PopcountPath::Hardware) +
                       " shot=" + std::to_string(Shot));
          RNG PlanRng = RNG::forShot(808, Shot);
          ShotContext PlanCtx{Shot, PlanRng};
          ShotPlan Plan = Strategy->produce(PlanCtx);
          std::vector<ScheduledRotation> Schedule;
          ShotSummary Expect = foldAndCount(H, Plan.Sequence, Plan.Taus,
                                            Plan.TauStep, Emit, Schedule, Path);
          EXPECT_EQ(Expect.NumSamples, Plan.Sequence.size());
          EXPECT_EQ(Expect.SequenceHash, hashSequence(Plan.Sequence));
          RNG SummaryRng = RNG::forShot(808, Shot);
          ShotContext SummaryCtx{Shot, SummaryRng};
          CompilationOptions Opts;
          Opts.Emit = Emit;
          expectSameSummary(Strategy->summarize(SummaryCtx, Opts), Expect);
          if (!Sampling)
            continue;
          RNG WalkRng = RNG::forShot(808, Shot);
          expectSameSummary(walkAndCount(Sampling->chain(), WalkRng,
                                         Sampling->sampleCount(), H, Emit,
                                         Path),
                            Expect);
          EXPECT_EQ(WalkRng.next(), PlanRng.next());
        }
      }
    }
  }
}

TEST(CompilerEngineTest, StochasticTrotterStrategiesRunInBatches) {
  Hamiltonian H = testHamiltonian();
  CompilerEngine Engine;

  BatchRequest Req;
  Req.Strategy =
      std::make_shared<const RandomOrderTrotterStrategy>(H, 0.5, 6);
  Req.NumShots = 5;
  Req.Jobs = 3;
  Req.Seed = 11;
  BatchResult Random = Engine.compileBatch(Req);
  // Shots use distinct permutations (identical ones are astronomically
  // unlikely across 5 shots of 6 reps).
  EXPECT_NE(Random.Shots[0].SequenceHash, Random.Shots[1].SequenceHash);
  EXPECT_EQ(Random.Samples.Mean, double(6 * H.numTerms()));

  Req.Strategy = std::make_shared<const SparStoStrategy>(H, 0.3, 8, 1.5);
  BatchResult Sparse = Engine.compileBatch(Req);
  // Sparsification drops terms: fewer visits than dense Trotter on avg.
  EXPECT_LT(Sparse.Samples.Mean, double(8 * H.numTerms()));
  Req.Jobs = 1;
  EXPECT_EQ(Engine.compileBatch(Req).batchHash(), Sparse.batchHash());
}
