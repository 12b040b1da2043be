//===- tests/IntegrationTest.cpp - end-to-end pipeline tests -------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Cross-module scenarios mirroring the paper's experimental pipeline on
// CI-sized workloads: configurations (Baseline / MarQSim-GC / MarQSim-GC-RP)
// built end to end, gate-count improvements, accuracy preservation, and
// consistency between the emitter's cancellation and the independent
// peephole pass.
//
//===----------------------------------------------------------------------===//

#include "circuit/Optimizer.h"
#include "circuit/QasmExport.h"
#include "core/CNOTCountOracle.h"
#include "core/CompilerEngine.h"
#include "core/TransitionBuilders.h"
#include "hamgen/Molecular.h"
#include "hamgen/Registry.h"
#include "sim/Fidelity.h"
#include "stats/Stats.h"

#include "CompileShot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace marqsim;

namespace {

/// A small molecular-like instance used across the integration tests.
Hamiltonian testMolecule() { return makeMolecularLike(6, 40, 123); }

} // namespace

TEST(IntegrationTest, ConfigurationsAreValidHTTGraphs) {
  Hamiltonian H = testMolecule().splitLargeTerms();
  for (auto [WQd, WGc, WRp] :
       {std::tuple{1.0, 0.0, 0.0}, std::tuple{0.4, 0.6, 0.0},
        std::tuple{0.4, 0.3, 0.3}}) {
    TransitionMatrix P = makeConfigMatrix(H, WQd, WGc, WRp, /*Rounds=*/4);
    HTTGraph G(H, P);
    EXPECT_TRUE(G.isValidForCompilation())
        << WQd << "/" << WGc << "/" << WRp;
  }
}

TEST(IntegrationTest, GateCancellationConfigReducesCNOTs) {
  // The headline claim (Fig. 13) at CI scale: MarQSim-GC emits fewer CNOTs
  // than the qDrift baseline at identical sampling budget N.
  Hamiltonian H = testMolecule().splitLargeTerms();
  double T = M_PI / 4.0, Eps = 0.05;
  TransitionMatrix Pqd = buildQDrift(H);
  TransitionMatrix Pgc = makeConfigMatrix(H, 0.4, 0.6, 0.0);
  SamplingStrategy SBase(std::make_shared<const HTTGraph>(H, Pqd), T, Eps);
  SamplingStrategy SGc(std::make_shared<const HTTGraph>(H, Pgc), T, Eps);

  RunningStats Base, Gc;
  for (uint64_t Seed = 0; Seed < 5; ++Seed) {
    RNG R1(1000 + Seed), R2(1000 + Seed);
    Base.add(static_cast<double>(compileShot(SBase, R1).Counts.CNOTs));
    Gc.add(static_cast<double>(compileShot(SGc, R2).Counts.CNOTs));
  }
  EXPECT_LT(Gc.mean(), Base.mean());
  double Reduction = 1.0 - Gc.mean() / Base.mean();
  // The paper reports ~10-35% across benchmarks; at CI scale accept > 3%.
  EXPECT_GT(Reduction, 0.03);
}

TEST(IntegrationTest, AccuracyPreservedAcrossConfigurations) {
  // Theorem 4.1: all configurations share the error bound; measured
  // fidelities must be comparable.
  Hamiltonian H = makeMolecularLike(5, 24, 77).splitLargeTerms();
  double T = 0.4, Eps = 0.02;
  FidelityEvaluator Eval(H, T, 32);

  TransitionMatrix Pqd = buildQDrift(H);
  TransitionMatrix Pmix = makeConfigMatrix(H, 0.4, 0.3, 0.3, 4);
  SamplingStrategy SBase(std::make_shared<const HTTGraph>(H, Pqd), T, Eps);
  SamplingStrategy SMix(std::make_shared<const HTTGraph>(H, Pmix), T, Eps);
  RunningStats FBase, FMix;
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    RNG R1(2000 + Seed), R2(2000 + Seed);
    FBase.add(Eval.fidelity(compileShot(SBase, R1).Schedule));
    FMix.add(Eval.fidelity(compileShot(SMix, R2).Schedule));
  }
  EXPECT_GT(FBase.mean(), 0.95);
  EXPECT_GT(FMix.mean(), 0.95);
  EXPECT_NEAR(FBase.mean(), FMix.mean(), 0.03);
}

TEST(IntegrationTest, PeepholeGainOverEmitterIsBounded) {
  // The emitter implements the paper's *pairwise* cancellation model; the
  // peephole pass can additionally commute gates across several snippet
  // boundaries (e.g. chains of diagonal Z-strings), so it finds extra
  // savings — but the bulk of the cancellation must already be realized by
  // the emitter, and the peephole must never increase counts.
  Hamiltonian H = testMolecule().splitLargeTerms();
  TransitionMatrix P = makeConfigMatrix(H, 0.4, 0.6, 0.0);
  auto G = std::make_shared<const HTTGraph>(H, P);
  RNG Rng(3000);
  CompilationResult R = compileShot(SamplingStrategy(G, 0.5, 0.1), Rng);
  Circuit Optimized = optimizeCircuit(R.circuit());
  EXPECT_LE(Optimized.counts().total(), R.Counts.total());
  double Slack =
      1.0 - double(Optimized.counts().total()) / double(R.Counts.total());
  EXPECT_GE(Slack, 0.0);
  EXPECT_LT(Slack, 0.35);
}

TEST(IntegrationTest, EmitterCancellationAgreesWithPeepholeOnNaive) {
  // Emitting without cross-cancellation and then running the peephole pass
  // should land near the emitter's own cancellation-aware counts. One
  // 81-sample shot is too small to say so: its ratio spans 0.60-1.46
  // across seeds, so the test pools CNOTs over 400 seeds.
  Hamiltonian H = makeMolecularLike(5, 20, 55).splitLargeTerms();
  TransitionMatrix P = makeConfigMatrix(H, 0.4, 0.6, 0.0);
  SamplingStrategy Strategy(std::make_shared<const HTTGraph>(H, P), 0.4, 0.1);
  CompilationOptions Naive;
  Naive.Emit.CrossCancellation = false;
  size_t PeepholeCNOTs = 0, EmitterCNOTs = 0;
  for (uint64_t Seed = 4000; Seed < 4400; ++Seed) {
    RNG R1(Seed), R2(Seed);
    CompilationResult Plain = compileShot(Strategy, R1, Naive);
    CompilationResult Fancy = compileShot(Strategy, R2);
    // Same sampled sequence (same seed), so counts are directly comparable.
    ASSERT_EQ(Plain.Sequence, Fancy.Sequence) << "seed " << Seed;
    PeepholeCNOTs += optimizeCircuit(Plain.circuit()).counts().CNOTs;
    EmitterCNOTs += Fancy.Counts.CNOTs;
  }
  double Ratio = double(PeepholeCNOTs) / double(EmitterCNOTs);
  EXPECT_GT(Ratio, 0.9);
  EXPECT_LT(Ratio, 1.15);
}

TEST(IntegrationTest, RegistryBenchmarkCompilesEndToEnd) {
  auto Spec = *findBenchmark("Na+");
  Hamiltonian H = makeBenchmark(Spec).splitLargeTerms();
  TransitionMatrix P = makeConfigMatrix(H, 0.4, 0.6, 0.0);
  auto G = std::make_shared<const HTTGraph>(H, P);
  RNG Rng(5000);
  CompilationResult R = compileShot(SamplingStrategy(G, Spec.Time, 0.2), Rng);
  EXPECT_GT(R.Counts.CNOTs, 0u);
  EXPECT_EQ(R.circuit().numQubits(), Spec.Qubits);
}

TEST(IntegrationTest, MarQSimBeatsDeterministicTrotterOnAccuracyBudget) {
  // Sanity version of the paper's motivation: at a matched gate budget the
  // randomized compilers achieve competitive accuracy.
  Hamiltonian H = makeMolecularLike(5, 24, 99).splitLargeTerms();
  double T = 0.5;
  FidelityEvaluator Eval(H, T, 16);
  RNG Rng(6000);
  TransitionMatrix P = makeConfigMatrix(H, 0.4, 0.6, 0.0);
  auto G = std::make_shared<const HTTGraph>(H, P);
  CompilationResult MarQ = compileShot(SamplingStrategy(G, T, 0.02), Rng);
  // Match Trotter's gate budget to MarQSim's.
  unsigned Reps = std::max<unsigned>(
      1, static_cast<unsigned>(MarQ.NumSamples / H.numTerms()));
  CompilationResult Trot = CompilerEngine().compileOne(
      TrotterStrategy(H, T, Reps, TermOrderKind::Lexicographic, 1), 0);
  double FM = Eval.fidelity(MarQ.Schedule);
  double FT = Eval.fidelity(Trot.Schedule);
  EXPECT_GT(FM, 0.9);
  EXPECT_GT(FT, 0.5); // Trotter remains correct, possibly less accurate
}

TEST(IntegrationTest, DominantTermHamiltonianSurvivesPipeline) {
  // Failure injection: one term holds 97% of the weight. Theorem 5.1's
  // flow is infeasible without splitting; splitLargeTerms must repair it
  // and the full pipeline must stay correct.
  Hamiltonian Raw = Hamiltonian::parse(
      {{9.7, "XX"}, {0.2, "ZZ"}, {0.1, "YI"}});
  Hamiltonian H = Raw.splitLargeTerms();
  EXPECT_GT(H.numTerms(), Raw.numTerms());
  for (double Pi : H.stationaryDistribution())
    EXPECT_LE(Pi, 0.5 + 1e-12);

  TransitionMatrix P = makeConfigMatrix(H, 0.4, 0.6, 0.0);
  auto G = std::make_shared<const HTTGraph>(H, P);
  ASSERT_TRUE(G->isValidForCompilation());
  RNG Rng(7777);
  CompilationResult R = compileShot(SamplingStrategy(G, 0.1, 0.01), Rng);
  FidelityEvaluator Eval(H, 0.1, 4);
  EXPECT_GT(Eval.fidelity(R.Schedule), 0.97);
}

TEST(IntegrationTest, TwoTermHamiltonianCompiles) {
  // Minimum size for the MCFP (the flow needs somewhere else to go).
  // pi = (0.6, 0.4) exceeds the Theorem 5.1 cap, so the standard pipeline
  // splits first: {0.3 XZ, 0.3 XZ, 0.4 ZX}.
  Hamiltonian H =
      Hamiltonian::parse({{0.6, "XZ"}, {0.4, "ZX"}}).splitLargeTerms();
  EXPECT_EQ(H.numTerms(), 3u);
  TransitionMatrix P = makeConfigMatrix(H, 0.4, 0.6, 0.0);
  auto G = std::make_shared<const HTTGraph>(H, P);
  EXPECT_TRUE(G->isValidForCompilation());
  RNG Rng(8888);
  CompilationResult R = compileShot(SamplingStrategy(G, 0.3, 0.05), Rng);
  FidelityEvaluator Eval(H, 0.3, 4);
  EXPECT_GT(Eval.fidelity(R.Schedule), 0.97);
}

TEST(IntegrationTest, SingleTermHamiltonianViaQDrift) {
  // One term: compilation is exact (a single rotation repeated). The MCFP
  // path requires >= 2 terms, but the qDrift route must work.
  Hamiltonian H = Hamiltonian::parse({{0.8, "ZZ"}});
  RNG Rng(9999);
  auto G = std::make_shared<const HTTGraph>(H, buildQDrift(H));
  CompilationResult R = compileShot(SamplingStrategy(G, 0.7, 0.05), Rng);
  FidelityEvaluator Eval(H, 0.7, 4);
  EXPECT_NEAR(Eval.fidelity(R.Schedule), 1.0, 1e-9);
}

TEST(IntegrationTest, NegativeWeightHamiltonianPipeline) {
  // Mixed-sign coefficients: pi uses |h| but taus must carry signs.
  Hamiltonian H = Hamiltonian::parse(
      {{-0.5, "XY"}, {0.3, "ZZ"}, {-0.2, "YX"}, {0.4, "XI"}});
  TransitionMatrix P = makeConfigMatrix(H, 0.4, 0.3, 0.3, 4);
  auto G = std::make_shared<const HTTGraph>(H, P);
  ASSERT_TRUE(G->isValidForCompilation());
  RNG Rng(10101);
  CompilationResult R = compileShot(SamplingStrategy(G, 0.4, 0.01), Rng);
  FidelityEvaluator Eval(H, 0.4, 4);
  EXPECT_GT(Eval.fidelity(R.Schedule), 0.98);
}

TEST(IntegrationTest, QasmOfCompiledCircuitIsWellFormed) {
  Hamiltonian H = makeMolecularLike(5, 20, 66).splitLargeTerms();
  TransitionMatrix P = makeConfigMatrix(H, 0.4, 0.6, 0.0);
  auto G = std::make_shared<const HTTGraph>(H, P);
  RNG Rng(11111);
  CompilationResult R = compileShot(SamplingStrategy(G, 0.3, 0.1), Rng);
  const Circuit Circ = R.circuit();
  std::string Qasm = toQasm(Circ);
  EXPECT_NE(Qasm.find("OPENQASM 2.0;"), std::string::npos);
  // Every gate emits exactly one line after the 3 header lines.
  size_t Lines = std::count(Qasm.begin(), Qasm.end(), '\n');
  EXPECT_EQ(Lines, Circ.size() + 3);
}

TEST(IntegrationTest, VaryingRatioMonotonicity) {
  // Fig. 14 at CI scale: increasing the Pgc share cannot increase the
  // expected transition CNOT cost.
  Hamiltonian H = testMolecule().splitLargeTerms();
  std::vector<double> Pi = H.stationaryDistribution();
  TransitionMatrix Pgc = buildGateCancellation(H);
  double Prev = 1e100;
  for (double Share : {0.2, 0.6, 0.8}) {
    TransitionMatrix P = combineWithQDrift(H, Pgc, 1.0 - Share);
    double Cost = expectedTransitionCNOTs(H, P, Pi);
    EXPECT_LE(Cost, Prev + 1e-9);
    Prev = Cost;
  }
}
