//===- tests/ChannelTest.cpp - channel-level Theorem 4.1 tests -----------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Verifies the object Theorem 4.1's proof actually bounds: the per-step
// mixed channel E(rho) = sum_j pi_j e^{i tau H_j} rho e^{-i tau H_j} and
// its N-fold composition against the exact evolution.
//
//===----------------------------------------------------------------------===//

#include "hamgen/Models.h"
#include "linalg/Expm.h"
#include "sim/DensityMatrix.h"
#include "sim/Evolution.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace marqsim;

namespace {

StateVector randomPure(unsigned N, RNG &Rng) {
  CVector V(size_t(1) << N);
  for (auto &A : V)
    A = Complex(Rng.gaussian(), Rng.gaussian());
  double Norm = vectorNorm(V);
  for (auto &A : V)
    A /= Norm;
  return StateVector(N, V);
}

} // namespace

TEST(DensityMatrixTest, PureStateProperties) {
  RNG Rng(131);
  StateVector Psi = randomPure(3, Rng);
  DensityMatrix Rho(Psi);
  EXPECT_NEAR(Rho.trace(), 1.0, 1e-12);
  // Purity tr(rho^2) = 1.
  Matrix Sq = Rho.matrix() * Rho.matrix();
  EXPECT_NEAR(Sq.trace().real(), 1.0, 1e-12);
  EXPECT_NEAR(Rho.overlap(Psi), 1.0, 1e-12);
}

TEST(DensityMatrixTest, PauliExpMatchesDenseConjugation) {
  RNG Rng(132);
  for (int Trial = 0; Trial < 15; ++Trial) {
    unsigned N = 1 + Rng.uniformInt(3);
    PauliString P;
    for (unsigned Q = 0; Q < N; ++Q)
      P.setOp(Q, static_cast<PauliOpKind>(Rng.uniformInt(4)));
    double Theta = Rng.uniform(-1.5, 1.5);
    StateVector Psi = randomPure(N, Rng);
    DensityMatrix Fast(Psi);
    Fast.applyPauliExp(P, Theta);
    DensityMatrix Slow(Psi);
    Slow.applyUnitary(expm(P.toMatrix(N) * Complex(0, Theta)));
    ASSERT_NEAR(Fast.matrix().maxAbsDiff(Slow.matrix()), 0.0, 1e-10);
  }
}

TEST(DensityMatrixTest, TraceDistanceBasics) {
  DensityMatrix A(2, 0), B(2, 0), C(2, 3);
  EXPECT_NEAR(A.traceDistance(B), 0.0, 1e-10);
  // Orthogonal pure states have trace distance 1.
  EXPECT_NEAR(A.traceDistance(C), 1.0, 1e-9);
  // Pure vs maximally mixed on n qubits: 1 - 1/2^n. Each quarter-turn
  // channel over {X, Z} on one qubit maps |0><0| there to I/2.
  DensityMatrix Mixed(2, 0);
  Mixed.applySamplingChannel(Hamiltonian::parse({{1.0, "XI"}, {1.0, "ZI"}}),
                             {0.5, 0.5}, M_PI / 2);
  Mixed.applySamplingChannel(Hamiltonian::parse({{1.0, "IX"}, {1.0, "IZ"}}),
                             {0.5, 0.5}, M_PI / 2);
  EXPECT_NEAR(Mixed.trace(), 1.0, 1e-12);
  EXPECT_NEAR(A.traceDistance(Mixed), 1.0 - 0.25, 1e-9);
}

TEST(ChannelTest, SamplingChannelPreservesTraceAndHermiticity) {
  RNG Rng(133);
  Hamiltonian H = makeRandomHamiltonian(3, 6, Rng);
  std::vector<double> Pi = H.stationaryDistribution();
  StateVector Psi = randomPure(3, Rng);
  DensityMatrix Rho(Psi);
  Rho.applySamplingChannel(H, Pi, 0.07);
  EXPECT_NEAR(Rho.trace(), 1.0, 1e-10);
  EXPECT_NEAR(Rho.matrix().maxAbsDiff(Rho.matrix().adjoint()), 0.0, 1e-10);
  // A proper mixture strictly reduces purity for non-commuting terms.
  Matrix Sq = Rho.matrix() * Rho.matrix();
  EXPECT_LT(Sq.trace().real(), 1.0 + 1e-12);
}

TEST(ChannelTest, TheoremBoundHoldsAtChannelLevel) {
  // E^N vs exact evolution in trace distance: Theorem 4.1 promises
  // error <~ 2 lambda^2 t^2 / N.
  RNG Rng(134);
  Hamiltonian H = makeRandomHamiltonian(2, 4, Rng).rescaledToLambda(1.2);
  const double T = 0.8;
  const double Lambda = H.lambda();
  std::vector<double> Pi = H.stationaryDistribution();
  Matrix U = exactUnitary(H, T);

  StateVector Psi = randomPure(2, Rng);
  for (size_t N : {8u, 32u, 128u}) {
    DensityMatrix Rho(Psi);
    double Tau = Lambda * T / static_cast<double>(N);
    for (size_t K = 0; K < N; ++K)
      Rho.applySamplingChannel(H, Pi, Tau);
    DensityMatrix Target(Psi);
    Target.applyUnitary(U);
    double Dist = Rho.traceDistance(Target);
    double Bound = 2.0 * Lambda * Lambda * T * T / static_cast<double>(N);
    // The bound is on the diamond norm; trace distance on one input is
    // below it. Allow a small constant for the higher-order terms.
    EXPECT_LE(Dist, 2.0 * Bound) << "N=" << N;
  }
}

TEST(ChannelTest, ErrorDecaysLikeOneOverN) {
  RNG Rng(135);
  Hamiltonian H = makeRandomHamiltonian(2, 4, Rng).rescaledToLambda(1.5);
  const double T = 0.9;
  std::vector<double> Pi = H.stationaryDistribution();
  Matrix U = exactUnitary(H, T);
  StateVector Psi = randomPure(2, Rng);

  auto ChannelError = [&](size_t N) {
    DensityMatrix Rho(Psi);
    double Tau = H.lambda() * T / static_cast<double>(N);
    for (size_t K = 0; K < N; ++K)
      Rho.applySamplingChannel(H, Pi, Tau);
    DensityMatrix Target(Psi);
    Target.applyUnitary(U);
    return Rho.traceDistance(Target);
  };
  double E16 = ChannelError(16);
  double E64 = ChannelError(64);
  double E256 = ChannelError(256);
  EXPECT_GT(E16, E64);
  EXPECT_GT(E64, E256);
  // Quadrupling N cuts the error by ~4 (first-order channel error ~ 1/N).
  EXPECT_NEAR(E16 / E64, 4.0, 1.5);
  EXPECT_NEAR(E64 / E256, 4.0, 1.5);
}

TEST(ChannelTest, ChannelIsInvariantToTermOrder) {
  // The per-step channel depends only on (pi, tau), not on any ordering —
  // the reason every valid transition matrix shares the error bound.
  RNG Rng(136);
  Hamiltonian H = makeRandomHamiltonian(2, 5, Rng);
  std::vector<double> Pi = H.stationaryDistribution();
  // Build a permuted copy of H (terms listed in reverse).
  Hamiltonian Rev(H.numQubits());
  for (size_t I = H.numTerms(); I-- > 0;)
    Rev.addTerm(H.term(I).Coeff, H.term(I).String);
  std::vector<double> PiRev = Rev.stationaryDistribution();

  StateVector Psi = randomPure(2, Rng);
  DensityMatrix A(Psi), B(Psi);
  A.applySamplingChannel(H, Pi, 0.05);
  B.applySamplingChannel(Rev, PiRev, 0.05);
  EXPECT_NEAR(A.matrix().maxAbsDiff(B.matrix()), 0.0, 1e-12);
}
