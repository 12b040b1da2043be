//===- tests/CoreTest.cpp - MarQSim core compiler tests ------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests the paper's contribution end to end against the numeric fixtures
// printed in the paper itself (Examples 4.1, 5.1, 5.2, 5.3) plus
// property-style sweeps of the Theorem 4.1 / 5.1 / 5.2 conditions over
// randomized Hamiltonians.
//
//===----------------------------------------------------------------------===//

#include "core/CNOTCountOracle.h"
#include "core/CompilerEngine.h"
#include "core/Emitter.h"
#include "core/HTTGraph.h"
#include "core/TransitionBuilders.h"
#include "hamgen/Models.h"
#include "linalg/Expm.h"
#include "service/SimulationService.h"
#include "sim/Fidelity.h"
#include "sim/StateVector.h"
#include "support/CpuFeatures.h"

#include "CompileShot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

using namespace marqsim;

namespace {

/// H = 1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY (paper Example 4.1).
Hamiltonian example41() {
  return Hamiltonian::parse(
      {{1.0, "IIIZ"}, {0.5, "IIZZ"}, {0.4, "XXYY"}, {0.1, "ZXZY"}});
}

/// H of paper Example 5.3 (five terms on five qubits).
Hamiltonian example53() {
  return Hamiltonian::parse({{1.0, "IIIZY"},
                             {1.0, "XXIII"},
                             {0.7, "ZXZYI"},
                             {0.5, "IIZZX"},
                             {0.3, "XXYYZ"}});
}

/// Dense unitary of a schedule, product of analytic exponentials.
Matrix scheduleUnitary(const std::vector<ScheduledRotation> &Schedule,
                       unsigned N) {
  Matrix U = Matrix::identity(size_t(1) << N);
  for (const auto &Step : Schedule)
    U = expm(Step.String.toMatrix(N) * Complex(0, Step.Tau)) * U;
  return U;
}

} // namespace

//===----------------------------------------------------------------------===//
// HTT graph IR
//===----------------------------------------------------------------------===//

TEST(HTTGraphTest, QDriftGraphIsValid) {
  HTTGraph G(example41(), buildQDrift(example41()));
  EXPECT_EQ(G.numStates(), 4u);
  EXPECT_TRUE(G.isStronglyConnected());
  EXPECT_TRUE(G.preservesStationary());
  EXPECT_TRUE(G.isValidForCompilation());
  // Complete graph including self-edges.
  EXPECT_EQ(G.numEdges(), 16u);
}

TEST(HTTGraphTest, InvalidMatrixDetected) {
  Hamiltonian H = example41();
  // The identity chain preserves pi but is not strongly connected.
  TransitionMatrix I(4);
  for (size_t K = 0; K < 4; ++K)
    I.at(K, K) = 1.0;
  HTTGraph G(H, I);
  EXPECT_TRUE(G.preservesStationary());
  EXPECT_FALSE(G.isStronglyConnected());
  EXPECT_FALSE(G.isValidForCompilation());
}

//===----------------------------------------------------------------------===//
// CNOT-count oracle
//===----------------------------------------------------------------------===//

TEST(CNOTCountOracleTest, IdenticalStringsMergeForFree) {
  auto P = *PauliString::parse("XXYY");
  EXPECT_EQ(cnotCountBetween(P, P), 0u);
}

TEST(CNOTCountOracleTest, Figure6Pair) {
  // ZZZZ vs XZXZ: 3 + 3 ladder CNOTs, two matched Z qubits cancel one pair.
  auto A = *PauliString::parse("ZZZZ");
  auto B = *PauliString::parse("XZXZ");
  EXPECT_EQ(cnotCountBetween(A, B), 4u);
  EXPECT_EQ(cnotCountBetween(B, A), 4u);
}

TEST(CNOTCountOracleTest, DisjointStringsNoCancellation) {
  auto A = *PauliString::parse("ZZII");
  auto B = *PauliString::parse("IIXX");
  EXPECT_EQ(cnotCountBetween(A, B), 2u);
}

TEST(CNOTCountOracleTest, SingleQubitStringsAreFree) {
  auto A = *PauliString::parse("IZ");
  auto B = *PauliString::parse("XI");
  EXPECT_EQ(cnotCountBetween(A, B), 0u);
}

TEST(CNOTCountOracleTest, Example41Table) {
  Hamiltonian H = example41();
  auto Table = cnotCostTable(H);
  // Worked out by hand in DESIGN.md.
  EXPECT_EQ(Table[0][1], 1u);
  EXPECT_EQ(Table[0][2], 3u);
  EXPECT_EQ(Table[0][3], 3u);
  EXPECT_EQ(Table[1][2], 4u);
  EXPECT_EQ(Table[1][3], 4u);
  EXPECT_EQ(Table[2][3], 4u);
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(Table[I][I], 0u);
    for (size_t J = 0; J < 4; ++J)
      EXPECT_EQ(Table[I][J], Table[J][I]);
  }
}

TEST(CNOTCountOracleTest, ScaledTableMatchesTheOracleOnEveryPopcountPath) {
  // The flat MCFP cost table is the per-pair oracle times the scale on the
  // portable popcount and, when the host has POPCNT, on the clone
  // compiled for it; cnotCostTable is the same table unscaled. The terms
  // mix weights 0 to 6, duplicates and Y-heavy strings.
  RNG Rng(4141);
  Hamiltonian H(6);
  for (int K = 0; K < 40; ++K) {
    PauliString P;
    for (unsigned Q = 0; Q < 6; ++Q)
      P.setOp(Q, static_cast<PauliOpKind>(Rng.uniformInt(4)));
    H.addTerm(0.1 + 0.01 * K, K % 7 == 6 ? H.term(0).String : P);
  }
  const size_t N = H.numTerms();
  std::vector<PopcountPath> Paths = {PopcountPath::Portable};
  if (cpuFeatures().POPCNT)
    Paths.push_back(PopcountPath::Hardware);
  const std::vector<std::vector<unsigned>> Table = cnotCostTable(H);
  for (PopcountPath Path : Paths) {
    const std::vector<int64_t> Scaled = scaledCnotCosts(H, 3, Path);
    ASSERT_EQ(Scaled.size(), N * N);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J) {
        const unsigned Oracle =
            cnotCountBetween(H.term(I).String, H.term(J).String);
        ASSERT_EQ(Scaled[I * N + J], 3 * static_cast<int64_t>(Oracle))
            << I << " -> " << J;
        ASSERT_EQ(Table[I][J], Oracle);
      }
  }
}

//===----------------------------------------------------------------------===//
// Transition matrix builders vs the paper's printed matrices
//===----------------------------------------------------------------------===//

TEST(TransitionBuildersTest, Example41QDriftMatrix) {
  TransitionMatrix Pqd = buildQDrift(example41());
  const double Expected[4] = {0.5, 0.25, 0.2, 0.05};
  for (size_t I = 0; I < 4; ++I)
    for (size_t J = 0; J < 4; ++J)
      EXPECT_NEAR(Pqd.at(I, J), Expected[J], 1e-12);
}

TEST(TransitionBuildersTest, Example51GateCancellationMatrix) {
  // Equation (14) of the paper.
  TransitionMatrix Pgc = buildGateCancellation(example41());
  const double Expected[4][4] = {{0.0, 0.5, 0.4, 0.1},
                                 {1.0, 0.0, 0.0, 0.0},
                                 {1.0, 0.0, 0.0, 0.0},
                                 {1.0, 0.0, 0.0, 0.0}};
  for (size_t I = 0; I < 4; ++I)
    for (size_t J = 0; J < 4; ++J)
      EXPECT_NEAR(Pgc.at(I, J), Expected[I][J], 1e-6)
          << "entry (" << I << "," << J << ")";
  // And the matrix satisfies the Theorem 5.1 stationarity condition.
  EXPECT_TRUE(Pgc.isRowStochastic(1e-9));
  EXPECT_TRUE(
      Pgc.preservesDistribution(example41().stationaryDistribution(), 1e-6));
}

TEST(TransitionBuildersTest, Example52CombinedMatrix) {
  // Equation (15): P = 0.4 Pqd + 0.6 Pgc.
  Hamiltonian H = example41();
  TransitionMatrix P = combineWithQDrift(H, buildGateCancellation(H), 0.4);
  const double Expected[4][4] = {{0.2, 0.4, 0.32, 0.08},
                                 {0.8, 0.1, 0.08, 0.02},
                                 {0.8, 0.1, 0.08, 0.02},
                                 {0.8, 0.1, 0.08, 0.02}};
  for (size_t I = 0; I < 4; ++I)
    for (size_t J = 0; J < 4; ++J)
      EXPECT_NEAR(P.at(I, J), Expected[I][J], 1e-6);
  EXPECT_TRUE(P.isStronglyConnected());
  EXPECT_TRUE(P.preservesDistribution(H.stationaryDistribution(), 1e-6));
}

TEST(TransitionBuildersTest, Example53Spectra) {
  // Example 5.3: Pqd has spectrum {1, 0, 0, 0, 0}; the combined matrix has
  // non-trivial secondary eigenvalues (the paper reports 0.46, 0.46, 0.25).
  Hamiltonian H = example53();
  TransitionMatrix Pqd = buildQDrift(H);
  auto QdEigs = Pqd.spectrum();
  EXPECT_NEAR(std::abs(QdEigs[0]), 1.0, 1e-9);
  for (size_t K = 1; K < QdEigs.size(); ++K)
    EXPECT_NEAR(std::abs(QdEigs[K]), 0.0, 1e-9);

  TransitionMatrix P = combineWithQDrift(H, buildGateCancellation(H), 0.4);
  auto Eigs = P.spectrum();
  EXPECT_NEAR(std::abs(Eigs[0]), 1.0, 1e-8);
  // Secondary spectrum is non-trivial and below the strong-connectivity
  // bound |lambda_2| <= 1 - theta_qd contribution.
  EXPECT_GT(std::abs(Eigs[1]), 0.05);
  EXPECT_LT(std::abs(Eigs[1]), 0.999);
}

TEST(TransitionBuildersTest, GcIsOptimalAmongFeasibleCompetitors) {
  // Proposition 5.1 + MCFP optimality: Pgc minimizes the expected CNOTs per
  // transition over all stationary-preserving matrices with zero diagonal.
  // Any other matrix produced by the same flow skeleton under *different*
  // costs (perturbed costs, commutation costs) is feasible, so its true
  // expected cost can only be higher.
  RNG Rng(101);
  for (int Trial = 0; Trial < 6; ++Trial) {
    Hamiltonian H = makeRandomHamiltonian(5, 12, Rng);
    std::vector<double> Pi = H.stationaryDistribution();
    double CostGc =
        expectedTransitionCNOTs(H, buildGateCancellation(H), Pi);
    RNG PerturbRng(200 + Trial);
    double CostPerturbed = expectedTransitionCNOTs(
        H, buildRandomPerturbation(H, 1, PerturbRng), Pi);
    double CostCommute =
        expectedTransitionCNOTs(H, buildCommutationGrouping(H), Pi);
    EXPECT_LE(CostGc, CostPerturbed + 1e-6);
    EXPECT_LE(CostGc, CostCommute + 1e-6);
  }
}

TEST(TransitionBuildersTest, GcBeatsQDriftOnManyTermHamiltonians) {
  // Not a theorem in general (qDrift's self-loops merge for free while the
  // MCFP excludes the diagonal), but with many terms the repeat
  // probability sum(pi^2) is negligible and the matched-pair savings
  // dominate — this is the regime of every paper benchmark.
  RNG Rng(113);
  Hamiltonian H = makeRandomHamiltonian(6, 40, Rng);
  std::vector<double> Pi = H.stationaryDistribution();
  double CostQd = expectedTransitionCNOTs(H, buildQDrift(H), Pi);
  double CostGc = expectedTransitionCNOTs(H, buildGateCancellation(H), Pi);
  EXPECT_LT(CostGc, CostQd);
}

TEST(TransitionBuildersTest, RandomPerturbationPreservesStationarity) {
  Hamiltonian H = example53();
  RNG Rng(102);
  TransitionMatrix Prp = buildRandomPerturbation(H, 8, Rng);
  EXPECT_TRUE(Prp.isRowStochastic(1e-9));
  EXPECT_TRUE(Prp.preservesDistribution(H.stationaryDistribution(), 1e-6));
}

TEST(TransitionBuildersTest, PerturbationFlattensSpectrum) {
  // Section 5.4 / Fig. 15: swapping half the Pgc share for Prp lowers the
  // secondary eigenvalue magnitude (faster mixing, smaller variance).
  RNG Rng(111);
  Hamiltonian H = makeRandomHamiltonian(6, 16, Rng);
  TransitionMatrix Pqd = buildQDrift(H);
  TransitionMatrix Pgc = buildGateCancellation(H);
  RNG PerturbRng(112);
  TransitionMatrix Prp = buildRandomPerturbation(H, 12, PerturbRng);
  TransitionMatrix Pure =
      TransitionMatrix::combine({&Pqd, &Pgc}, {0.4, 0.6});
  TransitionMatrix Perturbed =
      TransitionMatrix::combine({&Pqd, &Pgc, &Prp}, {0.4, 0.3, 0.3});
  EXPECT_LE(Perturbed.secondEigenvalueMagnitude(),
            Pure.secondEigenvalueMagnitude() + 0.02);
}

TEST(TransitionBuildersTest, CommutationGroupingValid) {
  Hamiltonian H = example53();
  TransitionMatrix Pcg = buildCommutationGrouping(H);
  EXPECT_TRUE(Pcg.isRowStochastic(1e-9));
  EXPECT_TRUE(Pcg.preservesDistribution(H.stationaryDistribution(), 1e-6));
}

TEST(TransitionBuildersTest, ConfigMatrixWeightsAndValidity) {
  Hamiltonian H = example53();
  TransitionMatrix P = makeConfigMatrix(H, 0.4, 0.3, 0.3, /*Rounds=*/4);
  HTTGraph G(H, P);
  EXPECT_TRUE(G.isValidForCompilation());
}

TEST(TransitionBuildersTest, OverweightTermThrowsInEveryBuildType) {
  // pi = (0.8, 0.1, 0.1) breaks Theorem 5.1's pi_i <= 1/2. The check must
  // survive NDEBUG: without it the builder returned a matrix whose first
  // row summed to 0.25.
  Hamiltonian H = Hamiltonian::parse({{0.8, "ZZ"}, {0.1, "XX"}, {0.1, "YI"}});
  EXPECT_THROW(buildGateCancellation(H), std::invalid_argument);
  EXPECT_THROW(buildCommutationGrouping(H), std::invalid_argument);
  RNG Rng(7);
  EXPECT_THROW(buildRandomPerturbation(H, 1, Rng), std::invalid_argument);
  try {
    buildGateCancellation(H);
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("term 0 (ZZ)"), std::string::npos)
        << E.what();
  }
}

TEST(TransitionBuildersTest, InfeasibleQuantizationThrows) {
  // pi_0 = 1/2 passes the precondition, but a one-unit quantum gives term
  // 0 the only unit, which no off-diagonal edge can absorb.
  Hamiltonian H = Hamiltonian::parse({{0.5, "ZZ"}, {0.3, "XX"}, {0.2, "YI"}});
  MCFPOptions Coarse;
  Coarse.ProbScale = 1;
  EXPECT_THROW(buildGateCancellation(H, Coarse), std::invalid_argument);
  EXPECT_TRUE(buildGateCancellation(H).isRowStochastic(1e-9));
}

TEST(TransitionBuildersTest, PerturbationRejectsInputBeforeRoundsFanOut) {
  // Prp validates its input once, before any round is solved, so a bad
  // Hamiltonian or option throws the same message at every Jobs value.
  auto MessageAt = [](const Hamiltonian &H, const MCFPOptions &Opts,
                      unsigned Jobs) -> std::string {
    RNG Rng(7);
    try {
      buildRandomPerturbation(H, 6, Rng, Opts, Jobs);
    } catch (const std::invalid_argument &E) {
      return E.what();
    }
    return "";
  };
  MCFPOptions Coarse;
  Coarse.ProbScale = 1;
  MCFPOptions NegativeScale;
  NegativeScale.CostScale = -2;
  const struct {
    Hamiltonian H;
    MCFPOptions Opts;
  } Cases[] = {
      {Hamiltonian::parse({{0.8, "ZZ"}, {0.1, "XX"}, {0.1, "YI"}}), {}},
      {Hamiltonian::parse({{0.5, "ZZ"}, {0.3, "XX"}, {0.2, "YI"}}), Coarse},
      {example53(), NegativeScale},
  };
  for (const auto &Case : Cases) {
    std::string Serial = MessageAt(Case.H, Case.Opts, 1);
    EXPECT_FALSE(Serial.empty());
    EXPECT_EQ(MessageAt(Case.H, Case.Opts, 4), Serial);
  }
}

TEST(TransitionBuildersTest, MalformedCostTableThrowsInEveryBuildType) {
  // The flow solver starts from zero potentials, which needs non-negative
  // costs; a negative entry is rejected, not silently mis-solved. So is a
  // table of the wrong shape.
  Hamiltonian H = example53();
  const size_t N = H.numTerms();
  std::vector<std::vector<int64_t>> Cost(N, std::vector<int64_t>(N, 2));
  Cost[0][1] = -1;
  EXPECT_THROW(buildFromCostTable(H, Cost), std::invalid_argument);
  Cost[0][1] = 2;
  Cost[1][1] = -1; // the diagonal is no arc and is ignored
  EXPECT_TRUE(buildFromCostTable(H, Cost).isRowStochastic(1e-9));
  Cost[1].pop_back();
  EXPECT_THROW(buildFromCostTable(H, Cost), std::invalid_argument);
  // So do the overloads over a caller's flat CNOT table, before any draw.
  const std::vector<int64_t> Short(N * N - 1, 2);
  EXPECT_THROW(buildGateCancellation(H, Short), std::invalid_argument);
  RNG Rng(7), Untouched(7);
  EXPECT_THROW(buildRandomPerturbation(H, Short, 1, Rng),
               std::invalid_argument);
  EXPECT_EQ(Rng.next(), Untouched.next());
}

TEST(TransitionBuildersTest, PreparedOverweightHamiltonianSolves) {
  // The service's canonical form splits the heavy term, so the same
  // operator compiles through SimulationService::prepare.
  Hamiltonian H = SimulationService::prepare(
      Hamiltonian::parse({{0.8, "ZZ"}, {0.1, "XX"}, {0.1, "YI"}}));
  TransitionMatrix Pgc = buildGateCancellation(H);
  EXPECT_TRUE(Pgc.isRowStochastic(1e-9));
  EXPECT_TRUE(Pgc.preservesDistribution(H.stationaryDistribution(), 1e-6));
}

struct BuilderSweepCase {
  unsigned Qubits;
  size_t Terms;
  uint64_t Seed;
};

class TheoremConditionsSweep
    : public ::testing::TestWithParam<BuilderSweepCase> {};

TEST_P(TheoremConditionsSweep, GcMatrixSatisfiesTheoremConditions) {
  const auto &Case = GetParam();
  RNG Rng(Case.Seed);
  Hamiltonian H =
      makeRandomHamiltonian(Case.Qubits, Case.Terms, Rng).splitLargeTerms();
  TransitionMatrix Pgc = buildGateCancellation(H);
  std::vector<double> Pi = H.stationaryDistribution();
  // Theorem 5.1: stationarity enforced by the flow capacities.
  EXPECT_TRUE(Pgc.isRowStochastic(1e-7));
  EXPECT_TRUE(Pgc.preservesDistribution(Pi, 1e-6));
  // Theorem 5.2 + Corollary 4.1: mixing with Pqd restores connectivity.
  TransitionMatrix Mixed = combineWithQDrift(H, Pgc, 0.4);
  EXPECT_TRUE(Mixed.isStronglyConnected());
  EXPECT_TRUE(Mixed.preservesDistribution(Pi, 1e-6));
  // Spectra: leading eigenvalue 1, all magnitudes <= 1.
  auto Eigs = Mixed.spectrum();
  EXPECT_NEAR(std::abs(Eigs[0]), 1.0, 1e-7);
  for (const auto &E : Eigs)
    EXPECT_LE(std::abs(E), 1.0 + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    RandomHamiltonians, TheoremConditionsSweep,
    ::testing::Values(BuilderSweepCase{3, 4, 1}, BuilderSweepCase{4, 8, 2},
                      BuilderSweepCase{5, 16, 3}, BuilderSweepCase{6, 24, 4},
                      BuilderSweepCase{4, 6, 5}, BuilderSweepCase{6, 32, 6},
                      BuilderSweepCase{5, 10, 7}, BuilderSweepCase{7, 20, 8}));

//===----------------------------------------------------------------------===//
// Emitter
//===----------------------------------------------------------------------===//

TEST(EmitterTest, SingleSnippetMatchesDirectSynthesis) {
  PauliString P = *PauliString::parse("XYZ");
  std::vector<ScheduledRotation> Schedule = {{P, 0.4}};
  Circuit C = emitSchedule(Schedule, 3);
  Matrix U = circuitUnitary(C);
  Matrix Expected = expm(P.toMatrix(3) * Complex(0, 0.4));
  EXPECT_NEAR(U.maxAbsDiff(Expected), 0.0, 1e-10);
}

TEST(EmitterTest, MatchedPairRealizesOracleCount) {
  // With root continuity the CNOTs between the two Rz gates equal the
  // oracle's count.
  auto A = *PauliString::parse("ZZZZ");
  auto B = *PauliString::parse("XZXZ");
  std::vector<ScheduledRotation> Schedule = {{A, 0.3}, {B, 0.5}};
  EmitStats Stats;
  Circuit C = emitSchedule(Schedule, 4, {}, &Stats);
  // Count CNOTs between the two Rz gates.
  size_t FirstRz = 0, SecondRz = 0;
  size_t Seen = 0;
  for (size_t I = 0; I < C.size(); ++I)
    if (C.gate(I).Kind == GateKind::Rz) {
      (Seen == 0 ? FirstRz : SecondRz) = I;
      ++Seen;
    }
  ASSERT_EQ(Seen, 2u);
  size_t Between = 0;
  for (size_t I = FirstRz + 1; I < SecondRz; ++I)
    if (C.gate(I).isCNOT())
      ++Between;
  EXPECT_EQ(Between, cnotCountBetween(A, B));
  EXPECT_GT(Stats.CancelledCNOTs, 0u);

  // Unitary equals the analytic product.
  Matrix U = circuitUnitary(C);
  EXPECT_NEAR(U.maxAbsDiff(scheduleUnitary(Schedule, 4)), 0.0, 1e-10);
}

TEST(EmitterTest, RepeatedStringFoldsIntoOneRotation) {
  auto P = *PauliString::parse("XY");
  std::vector<ScheduledRotation> Schedule = {{P, 0.3}, {P, 0.2}};
  Circuit C = emitSchedule(Schedule, 2);
  size_t RzCount = 0;
  for (const Gate &G : C.gates())
    RzCount += G.Kind == GateKind::Rz;
  EXPECT_EQ(RzCount, 1u);
  Matrix U = circuitUnitary(C);
  Matrix Expected = expm(P.toMatrix(2) * Complex(0, 0.5));
  EXPECT_NEAR(U.maxAbsDiff(Expected), 0.0, 1e-10);
}

TEST(EmitterTest, CancellationNeverChangesUnitary) {
  RNG Rng(103);
  for (int Trial = 0; Trial < 15; ++Trial) {
    const unsigned N = 3;
    Hamiltonian H = makeRandomHamiltonian(N, 5, Rng);
    std::vector<ScheduledRotation> Schedule;
    for (int K = 0; K < 8; ++K) {
      size_t Index = Rng.uniformInt(H.numTerms());
      Schedule.emplace_back(H.term(Index).String, Rng.uniform(-0.5, 0.5));
    }
    EmitOptions NoCancel;
    NoCancel.CrossCancellation = false;
    Circuit Plain = emitSchedule(Schedule, N, NoCancel);
    Circuit Fancy = emitSchedule(Schedule, N);
    EXPECT_LE(Fancy.counts().CNOTs, Plain.counts().CNOTs);
    EXPECT_LE(Fancy.counts().total(), Plain.counts().total());
    Matrix U1 = circuitUnitary(Plain);
    Matrix U2 = circuitUnitary(Fancy);
    Matrix Expected = scheduleUnitary(Schedule, N);
    ASSERT_NEAR(U1.maxAbsDiff(Expected), 0.0, 1e-9);
    ASSERT_NEAR(U2.maxAbsDiff(Expected), 0.0, 1e-9);
  }
}

struct EmitterSweepCase {
  unsigned Qubits;
  size_t Terms;
  size_t ScheduleLength;
  uint64_t Seed;
};

class EmitterPropertySweep
    : public ::testing::TestWithParam<EmitterSweepCase> {};

TEST_P(EmitterPropertySweep, UnitaryExactAndCountsBounded) {
  const auto &Case = GetParam();
  RNG Rng(Case.Seed);
  Hamiltonian H = makeRandomHamiltonian(Case.Qubits, Case.Terms, Rng);
  std::vector<ScheduledRotation> Schedule;
  for (size_t K = 0; K < Case.ScheduleLength; ++K)
    Schedule.emplace_back(H.term(Rng.uniformInt(H.numTerms())).String,
                          Rng.uniform(-0.4, 0.4));
  EmitOptions NoCancel;
  NoCancel.CrossCancellation = false;
  Circuit Plain = emitSchedule(Schedule, Case.Qubits, NoCancel);
  Circuit Fancy = emitSchedule(Schedule, Case.Qubits);
  // Cancellation never increases any gate count.
  EXPECT_LE(Fancy.counts().CNOTs, Plain.counts().CNOTs);
  EXPECT_LE(Fancy.counts().SingleQubit, Plain.counts().SingleQubit);
  // Both lowerings realize exactly the analytic product.
  Matrix Expected = scheduleUnitary(Schedule, Case.Qubits);
  ASSERT_NEAR(circuitUnitary(Plain).maxAbsDiff(Expected), 0.0, 1e-9);
  ASSERT_NEAR(circuitUnitary(Fancy).maxAbsDiff(Expected), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EmitterPropertySweep,
    ::testing::Values(EmitterSweepCase{2, 3, 6, 1},
                      EmitterSweepCase{3, 5, 10, 2},
                      EmitterSweepCase{4, 8, 12, 3},
                      EmitterSweepCase{4, 4, 20, 4},
                      EmitterSweepCase{5, 10, 14, 5},
                      EmitterSweepCase{5, 6, 8, 6},
                      EmitterSweepCase{3, 12, 24, 7},
                      EmitterSweepCase{2, 2, 16, 8}));

/// A random string on \p N qubits; each qubit is I with probability 1/4,
/// else Y with probability \p PY, else X or Z.
static PauliString randomString(unsigned N, double PY, RNG &Rng) {
  PauliString P;
  for (unsigned Q = 0; Q < N; ++Q) {
    if (Rng.bernoulli(0.25))
      continue;
    if (Rng.bernoulli(PY))
      P.setOp(Q, PauliOpKind::Y);
    else
      P.setOp(Q, Rng.bernoulli(0.5) ? PauliOpKind::X : PauliOpKind::Z);
  }
  return P;
}

TEST(EmitterTest, CountPassAgreesWithGatePass) {
  // The count pass and emitSchedule share one decision routine; this pins
  // that they also agree on every count and statistic, and that the
  // on-demand CompilationResult::circuit() is the emitter's circuit gate
  // for gate. The term pools mix identity strings, duplicated strings and
  // Y-heavy strings; the plans repeat terms back to back and interleave
  // identities between repeats (A I A folds into one rotation). Every case
  // runs on the portable popcount and, when the host has POPCNT, on the
  // clone compiled for it.
  std::vector<PopcountPath> Paths = {PopcountPath::Portable};
  if (cpuFeatures().POPCNT)
    Paths.push_back(PopcountPath::Hardware);
  RNG Rng(1313);
  for (unsigned N = 1; N <= 12; ++N) {
    for (int Trial = 0; Trial < 4; ++Trial) {
      Hamiltonian H(N);
      H.addTerm(0.25, PauliString());
      for (int K = 0; K < 6; ++K)
        H.addTerm(Rng.uniform(-1.0, 1.0), randomString(N, 0.8, Rng));
      for (int K = 0; K < 6; ++K)
        H.addTerm(Rng.uniform(-1.0, 1.0), randomString(N, 0.2, Rng));
      H.addTerm(0.5, H.term(1).String);

      ShotPlan Plan;
      Plan.TauStep = 0.01;
      for (int K = 0; K < 120; ++K) {
        size_t Index = Rng.uniformInt(H.numTerms());
        if (!Plan.Sequence.empty() && Rng.bernoulli(0.3))
          Index = Plan.Sequence.back();
        else if (Plan.Sequence.size() >= 2 && Rng.bernoulli(0.1))
          Index = Plan.Sequence[Plan.Sequence.size() - 2];
        Plan.Sequence.push_back(Index);
      }

      for (bool Cancel : {true, false}) {
        SCOPED_TRACE("qubits=" + std::to_string(N) + " trial=" +
                     std::to_string(Trial) + " cancel=" +
                     std::to_string(Cancel));
        CompilationOptions Opts;
        Opts.Emit.CrossCancellation = Cancel;
        CompilationResult R = materializePlan(H, Plan, Opts);

        // Counts and stats against the gate pass; returns the circuit.
        auto ExpectAgree = [&](const std::vector<ScheduledRotation> &Schedule,
                               const GateCounts &Counts,
                               const EmitStats &Stats) {
          EmitStats GateStats;
          Circuit C = emitSchedule(Schedule, N, Opts.Emit, &GateStats);
          EXPECT_EQ(Counts.CNOTs, C.counts().CNOTs);
          EXPECT_EQ(Counts.SingleQubit, C.counts().SingleQubit);
          EXPECT_EQ(Stats.CancelledCNOTs, GateStats.CancelledCNOTs);
          EXPECT_EQ(Stats.CancelledSingles, GateStats.CancelledSingles);
          return C;
        };

        // The merged schedule is what materializePlan counted.
        Circuit C = ExpectAgree(R.Schedule, R.Counts, R.Stats);
        Circuit Lowered = R.circuit();
        EXPECT_EQ(Lowered.numQubits(), N);
        EXPECT_TRUE(Lowered.gates() == C.gates());

        // The raw per-visit schedule exercises the emitter's own folding,
        // which must land on the same counts.
        std::vector<ScheduledRotation> Raw;
        for (size_t Index : Plan.Sequence)
          Raw.emplace_back(H.term(Index).String, H.term(Index).Coeff);
        ExpectAgree(Raw, R.Counts, R.Stats);

        for (PopcountPath Path : Paths) {
          SCOPED_TRACE("popcnt=" +
                       std::to_string(Path == PopcountPath::Hardware));
          std::vector<ScheduledRotation> Schedule;
          ShotSummary S = foldAndCount(H, Plan.Sequence, Plan.Taus,
                                       Plan.TauStep, Opts.Emit, Schedule, Path);
          EXPECT_EQ(Schedule.size(), R.Schedule.size());
          ExpectAgree(Schedule, S.Counts, S.Stats);
        }
      }
    }
  }

  // A plan of identities lowers to nothing.
  Hamiltonian Identity(2);
  Identity.addTerm(0.2, PauliString());
  for (PopcountPath Path : Paths) {
    std::vector<ScheduledRotation> Schedule;
    ShotSummary S = foldAndCount(Identity, {0, 0, 0}, {}, 0.1, {}, Schedule,
                                 Path);
    EXPECT_EQ(S.Counts.total(), 0u);
    EXPECT_EQ(S.Stats.CancelledCNOTs + S.Stats.CancelledSingles, 0u);
    EXPECT_TRUE(emitSchedule(Schedule, 2).empty());
  }
}

//===----------------------------------------------------------------------===//
// Compiler (Algorithm 1)
//===----------------------------------------------------------------------===//

TEST(CompilerTest, SampleCountFormula) {
  // N = ceil(2 lambda^2 t^2 / eps).
  EXPECT_EQ(qdriftSampleCount(2.0, 1.0, 0.1), 80u);
  EXPECT_EQ(qdriftSampleCount(1.0, 0.5, 0.05), 10u);
  EXPECT_EQ(qdriftSampleCount(0.1, 0.1, 10.0), 1u); // floor at one sample
}

TEST(CompilerTest, SequenceLengthAndScheduleConsistency) {
  Hamiltonian H = example41();
  auto G = std::make_shared<const HTTGraph>(H, buildQDrift(H));
  RNG Rng(104);
  CompilationResult R = compileShot(SamplingStrategy(G, 0.5, 0.05), Rng);
  EXPECT_EQ(R.Sequence.size(), R.NumSamples);
  EXPECT_EQ(R.NumSamples, qdriftSampleCount(H.lambda(), 0.5, 0.05));
  // Total evolution weight: sum |tau| = N * lambda t / N = lambda t.
  double TotalTau = 0.0;
  for (const auto &Step : R.Schedule)
    TotalTau += std::fabs(Step.Tau);
  EXPECT_NEAR(TotalTau, H.lambda() * 0.5, 1e-9);
}

TEST(CompilerTest, DeterministicGivenSeed) {
  Hamiltonian H = example41();
  auto G = std::make_shared<const HTTGraph>(H, buildQDrift(H));
  SamplingStrategy Strategy(G, 0.5, 0.05);
  RNG A(105), B(105);
  CompilationResult R1 = compileShot(Strategy, A);
  CompilationResult R2 = compileShot(Strategy, B);
  EXPECT_EQ(R1.Sequence, R2.Sequence);
  EXPECT_EQ(R1.Counts.CNOTs, R2.Counts.CNOTs);
}

TEST(CompilerTest, CompiledCircuitApproximatesEvolution) {
  // End-to-end Theorem 4.1 sanity: fidelity close to 1 for tight epsilon.
  Hamiltonian H = makeTransverseFieldIsing(3, 0.6, 0.4);
  double T = 0.5;
  auto G = std::make_shared<const HTTGraph>(H, buildQDrift(H));
  RNG Rng(106);
  CompilationResult R = compileShot(SamplingStrategy(G, T, 0.01), Rng);
  FidelityEvaluator Eval(H, T, 8);
  double F = Eval.fidelity(R.Schedule);
  EXPECT_GT(F, 0.97);
  // The gate-level circuit agrees with the analytic schedule.
  EXPECT_NEAR(Eval.fidelityOfCircuit(R.circuit()), F, 1e-9);
}

TEST(CompilerTest, NegativeCoefficientsGetNegativeTau) {
  Hamiltonian H = Hamiltonian::parse({{-0.8, "XX"}, {0.2, "ZI"}});
  auto G = std::make_shared<const HTTGraph>(H, buildQDrift(H));
  RNG Rng(107);
  CompilationResult R = compileShot(SamplingStrategy(G, 0.4, 0.1), Rng);
  for (size_t K = 0; K < R.Sequence.size(); ++K) {
    // Every visit of the XX term must contribute negative tau.
    if (H.term(R.Sequence[K]).Coeff < 0)
      break;
  }
  // Aggregate check: fidelity is high only with correct signs.
  FidelityEvaluator Eval(H, 0.4, 4);
  EXPECT_GT(Eval.fidelity(R.Schedule), 0.97);
}

//===----------------------------------------------------------------------===//
// Baselines
//===----------------------------------------------------------------------===//

TEST(BaselinesTest, OrderTermsVariants) {
  Hamiltonian H = example41();
  auto Given = orderTerms(H, TermOrderKind::Given);
  EXPECT_EQ(Given, (std::vector<size_t>{0, 1, 2, 3}));
  auto Mag = orderTerms(H, TermOrderKind::MagnitudeDescending);
  EXPECT_EQ(Mag.front(), 0u); // coefficient 1.0 first
  auto Lex = orderTerms(H, TermOrderKind::Lexicographic);
  EXPECT_EQ(Lex.size(), 4u);
  auto Greedy = orderTerms(H, TermOrderKind::GreedyMatched);
  EXPECT_EQ(Greedy.size(), 4u);
  // Greedy visits every term exactly once.
  std::vector<char> Seen(4, 0);
  for (size_t I : Greedy)
    Seen[I] = 1;
  for (char S : Seen)
    EXPECT_TRUE(S);
}

TEST(BaselinesTest, Trotter1ConvergesWithReps) {
  Hamiltonian H = makeHeisenbergXXZ(3, 1.0, 1.0, 0.6, 0.2);
  double T = 0.8;
  FidelityEvaluator Eval(H, T, 8);
  CompilerEngine Engine;
  double FLow = Eval.fidelity(
      Engine.compileOne(TrotterStrategy(H, T, 2, TermOrderKind::Given, 1), 0)
          .Schedule);
  double FHigh = Eval.fidelity(
      Engine.compileOne(TrotterStrategy(H, T, 32, TermOrderKind::Given, 1), 0)
          .Schedule);
  EXPECT_GT(FHigh, FLow - 1e-9);
  EXPECT_GT(FHigh, 0.999);
}

TEST(BaselinesTest, Trotter2BeatsTrotter1AtEqualReps) {
  Hamiltonian H = makeHeisenbergXXZ(3, 1.0, 1.0, 0.6, 0.2);
  double T = 1.2;
  FidelityEvaluator Eval(H, T, 8);
  CompilerEngine Engine;
  double F1 = Eval.fidelity(
      Engine.compileOne(TrotterStrategy(H, T, 3, TermOrderKind::Given, 1), 0)
          .Schedule);
  double F2 = Eval.fidelity(
      Engine.compileOne(TrotterStrategy(H, T, 3, TermOrderKind::Given, 2), 0)
          .Schedule);
  EXPECT_GE(F2, F1 - 1e-9);
}

TEST(BaselinesTest, RandomOrderTrotterIsCorrect) {
  Hamiltonian H = makeTransverseFieldIsing(3, 0.8, 0.5);
  double T = 0.6;
  RNG Rng(109);
  CompilationResult R =
      compileShot(RandomOrderTrotterStrategy(H, T, 12), Rng);
  EXPECT_EQ(R.Sequence.size(), H.numTerms() * 12);
  FidelityEvaluator Eval(H, T, 8);
  EXPECT_GT(Eval.fidelity(R.Schedule), 0.995);
}

TEST(BaselinesTest, Suzuki4BeatsTrotter2AtEqualReps) {
  Hamiltonian H = makeHeisenbergXXZ(3, 1.0, 1.0, 0.6, 0.2);
  double T = 1.4;
  FidelityEvaluator Eval(H, T, 8);
  CompilerEngine Engine;
  double F2 = Eval.fidelity(
      Engine.compileOne(TrotterStrategy(H, T, 2, TermOrderKind::Given, 2), 0)
          .Schedule);
  double F4 = Eval.fidelity(
      Engine.compileOne(TrotterStrategy(H, T, 2, TermOrderKind::Given, 4), 0)
          .Schedule);
  EXPECT_GE(F4, F2 - 1e-9);
  EXPECT_GT(F4, 0.999);
}

TEST(BaselinesTest, Suzuki4TotalTimeIsExact) {
  // The Suzuki coefficients must sum to the full step: 4p + (1-4p) = 1.
  Hamiltonian H = Hamiltonian::parse({{0.7, "XZ"}, {-0.3, "ZY"}});
  CompilationResult R = CompilerEngine().compileOne(
      TrotterStrategy(H, 0.9, 3, TermOrderKind::Given, 4), 0);
  double TauXZ = 0.0, TauZY = 0.0;
  for (const auto &Step : R.Schedule) {
    if (Step.String == *PauliString::parse("XZ"))
      TauXZ += Step.Tau;
    else
      TauZY += Step.Tau;
  }
  EXPECT_NEAR(TauXZ, 0.7 * 0.9, 1e-12);
  EXPECT_NEAR(TauZY, -0.3 * 0.9, 1e-12);
}

TEST(BaselinesTest, SparStoSparsifiesAndStaysAccurate) {
  Hamiltonian H = makeHeisenbergXXZ(3, 1.0, 1.0, 0.6, 0.2);
  double T = 0.5;
  RNG Rng(114);
  // Generous keep scale: near-Trotter behaviour, high fidelity.
  CompilationResult Dense = compileShot(SparStoStrategy(H, T, 24, 1e6), Rng);
  EXPECT_EQ(Dense.NumSamples, 24 * H.numTerms()); // everything kept
  FidelityEvaluator Eval(H, T, 8);
  EXPECT_GT(Eval.fidelity(Dense.Schedule), 0.99);

  // Aggressive sparsification drops terms but keeps the step unbiased;
  // accuracy degrades gracefully rather than collapsing.
  RNG Rng2(115);
  CompilationResult Sparse =
      compileShot(SparStoStrategy(H, T, 24, 1.2), Rng2);
  EXPECT_LT(Sparse.NumSamples, Dense.NumSamples);
  EXPECT_GT(Eval.fidelity(Sparse.Schedule), 0.8);
}

TEST(BaselinesTest, SparStoKeepsHeaviestTermAlways) {
  Hamiltonian H = Hamiltonian::parse({{1.0, "ZZ"}, {0.01, "XX"}});
  RNG Rng(116);
  CompilationResult R = compileShot(SparStoStrategy(H, 0.3, 50, 1.0), Rng);
  size_t Heavy = 0;
  for (size_t Index : R.Sequence)
    Heavy += Index == 0;
  EXPECT_EQ(Heavy, 50u); // q_0 = 1: kept in every repetition
}

TEST(HTTGraphTest, DotExportContainsNodesAndEdges) {
  HTTGraph G(example41(), buildQDrift(example41()));
  std::string Dot = G.toDot();
  EXPECT_NE(Dot.find("digraph HTT"), std::string::npos);
  EXPECT_NE(Dot.find("IIIZ"), std::string::npos);
  EXPECT_NE(Dot.find("XXYY"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
  // Complete graph: 16 edges.
  size_t Edges = 0;
  for (size_t Pos = Dot.find("->"); Pos != std::string::npos;
       Pos = Dot.find("->", Pos + 1))
    ++Edges;
  EXPECT_EQ(Edges, 16u);
}

TEST(BaselinesTest, GreedyMatchedOrderReducesCNOTs) {
  RNG Rng(110);
  Hamiltonian H = makeRandomHamiltonian(6, 20, Rng);
  CompilerEngine Engine;
  auto Given =
      Engine.compileOne(TrotterStrategy(H, 0.5, 4, TermOrderKind::Given, 1), 0);
  auto Greedy = Engine.compileOne(
      TrotterStrategy(H, 0.5, 4, TermOrderKind::GreedyMatched, 1), 0);
  EXPECT_LE(Greedy.Counts.CNOTs, Given.Counts.CNOTs);
}
