//===- tests/MarkovTest.cpp - Markov chain machinery tests ---------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "markov/Sampler.h"
#include "markov/TransitionMatrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

using namespace marqsim;

namespace {

/// A 4-state chain in the spirit of the paper's Example 2.1 / Fig. 4: built
/// from the figure's edge weights {0.8, 0.2, 0.4, 0.6, 0.5, 0.5, 0.3, 0.2},
/// strongly connected with self-edges, and with a stationary distribution
/// that rounds to the paper's (0.29, 0.24, 0.29, 0.18).
TransitionMatrix paperExampleChain() {
  return TransitionMatrix::fromRows({{0.2, 0.8, 0.0, 0.0},
                                     {0.0, 0.0, 0.4, 0.6},
                                     {0.5, 0.0, 0.5, 0.0},
                                     {0.5, 0.0, 0.3, 0.2}});
}

} // namespace

TEST(TransitionMatrixTest, RowStochasticValidation) {
  TransitionMatrix P = paperExampleChain();
  EXPECT_TRUE(P.isRowStochastic());
  P.at(0, 0) = 0.5; // breaks the row sum
  EXPECT_FALSE(P.isRowStochastic());
}

TEST(TransitionMatrixTest, PaperExampleStationaryDistribution) {
  // The paper reports pi = (0.29, 0.24, 0.29, 0.18) rounded to 2 digits.
  TransitionMatrix P = paperExampleChain();
  std::vector<double> Pi = P.stationaryDistribution();
  EXPECT_NEAR(Pi[0], 0.29, 0.005);
  EXPECT_NEAR(Pi[1], 0.24, 0.005);
  EXPECT_NEAR(Pi[2], 0.29, 0.005);
  EXPECT_NEAR(Pi[3], 0.18, 0.005);
  EXPECT_TRUE(P.preservesDistribution(Pi, 1e-10));
  double Sum = 0;
  for (double V : Pi)
    Sum += V;
  EXPECT_NEAR(Sum, 1.0, 1e-12);
}

TEST(TransitionMatrixTest, PaperExampleIsStronglyConnected) {
  EXPECT_TRUE(paperExampleChain().isStronglyConnected());
}

TEST(TransitionMatrixTest, DisconnectedChainDetected) {
  TransitionMatrix P = TransitionMatrix::fromRows(
      {{1.0, 0.0}, {0.0, 1.0}}); // two absorbing states
  EXPECT_FALSE(P.isStronglyConnected());
  TransitionMatrix OneWay = TransitionMatrix::fromRows(
      {{0.5, 0.5}, {0.0, 1.0}}); // can't get back from state 1
  EXPECT_FALSE(OneWay.isStronglyConnected());
}

TEST(TransitionMatrixTest, FromStationaryIsRankOneAndValid) {
  std::vector<double> Pi = {0.5, 0.25, 0.2, 0.05};
  TransitionMatrix P = TransitionMatrix::fromStationary(Pi);
  EXPECT_TRUE(P.isRowStochastic());
  EXPECT_TRUE(P.isStronglyConnected());
  EXPECT_TRUE(P.preservesDistribution(Pi, 1e-12));
  // Rank-1: spectrum {1, 0, 0, 0} (paper Example 5.3 case 1).
  auto Eigs = P.spectrum();
  EXPECT_NEAR(std::abs(Eigs[0]), 1.0, 1e-10);
  for (size_t K = 1; K < Eigs.size(); ++K)
    EXPECT_NEAR(std::abs(Eigs[K]), 0.0, 1e-10);
  EXPECT_NEAR(P.secondEigenvalueMagnitude(), 0.0, 1e-10);
}

TEST(TransitionMatrixTest, LeftApplyMatchesManual) {
  TransitionMatrix P = paperExampleChain();
  std::vector<double> V = {1.0, 0.0, 0.0, 0.0};
  std::vector<double> Next = P.leftApply(V);
  EXPECT_DOUBLE_EQ(Next[0], 0.2);
  EXPECT_DOUBLE_EQ(Next[1], 0.8);
  EXPECT_DOUBLE_EQ(Next[3], 0.0);
}

TEST(TransitionMatrixTest, CombinePreservesStationarity) {
  // Theorem 5.2: convex combinations keep the stationary distribution.
  std::vector<double> Pi = {0.4, 0.3, 0.2, 0.1};
  TransitionMatrix A = TransitionMatrix::fromStationary(Pi);
  // A deterministic cyclic permutation also preserves the uniform part...
  // build a pi-preserving matrix by symmetrization instead:
  TransitionMatrix B(4);
  // Doubly-stochastic-style circulant does not preserve generic pi, so use
  // a lazy chain: B = identity (trivially preserves every distribution).
  for (size_t I = 0; I < 4; ++I)
    B.at(I, I) = 1.0;
  ASSERT_TRUE(B.preservesDistribution(Pi, 1e-12));
  TransitionMatrix C = TransitionMatrix::combine({&A, &B}, {0.3, 0.7});
  EXPECT_TRUE(C.isRowStochastic());
  EXPECT_TRUE(C.preservesDistribution(Pi, 1e-12));
  // Mixing in the positive matrix A restores strong connectivity.
  EXPECT_TRUE(C.isStronglyConnected());
}

TEST(TransitionMatrixTest, PermutationSpectrumOnUnitCircle) {
  TransitionMatrix P = TransitionMatrix::fromRows(
      {{0, 1, 0}, {0, 0, 1}, {1, 0, 0}});
  auto Eigs = P.spectrum();
  for (const auto &E : Eigs)
    EXPECT_NEAR(std::abs(E), 1.0, 1e-10);
  EXPECT_NEAR(P.secondEigenvalueMagnitude(), 1.0, 1e-10);
}

TEST(TransitionMatrixTest, StationarySolveOnLazyRandomWalk) {
  // Lazy random walk on a path graph of 3 nodes; stationary known to be
  // proportional to node degrees (1, 2, 1) for the non-lazy part.
  TransitionMatrix P = TransitionMatrix::fromRows({{0.5, 0.5, 0.0},
                                                   {0.25, 0.5, 0.25},
                                                   {0.0, 0.5, 0.5}});
  std::vector<double> Pi = P.stationaryDistribution();
  EXPECT_NEAR(Pi[0], 0.25, 1e-10);
  EXPECT_NEAR(Pi[1], 0.5, 1e-10);
  EXPECT_NEAR(Pi[2], 0.25, 1e-10);
}

TEST(TransitionMatrixTest, MixedPermutationSpectrumIsAnalytic) {
  // P = (1 - theta) * U + theta * Pi_cycle with U the rank-1 uniform
  // matrix and Pi_cycle the n-cycle: on the complement of the stationary
  // direction, U vanishes, so the non-leading eigenvalues are exactly
  // theta times the non-trivial n-th roots of unity: |lambda_k| = theta.
  const size_t N = 5;
  const double Theta = 0.37;
  TransitionMatrix P(N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      P.at(I, J) = (1.0 - Theta) / N + (J == (I + 1) % N ? Theta : 0.0);
  ASSERT_TRUE(P.isRowStochastic());
  auto Eigs = P.spectrum();
  EXPECT_NEAR(std::abs(Eigs[0]), 1.0, 1e-10);
  for (size_t K = 1; K < N; ++K)
    EXPECT_NEAR(std::abs(Eigs[K]), Theta, 1e-9);
}

struct ChainSweepCase {
  size_t States;
  uint64_t Seed;
};

class RandomChainSweep : public ::testing::TestWithParam<ChainSweepCase> {};

TEST_P(RandomChainSweep, StationarySolveAndSpectraInvariants) {
  const auto &Case = GetParam();
  RNG Rng(Case.Seed);
  TransitionMatrix P(Case.States);
  for (size_t I = 0; I < Case.States; ++I) {
    double Sum = 0;
    for (size_t J = 0; J < Case.States; ++J) {
      P.at(I, J) = Rng.uniform() + 1e-4;
      Sum += P.at(I, J);
    }
    for (size_t J = 0; J < Case.States; ++J)
      P.at(I, J) /= Sum;
  }
  ASSERT_TRUE(P.isRowStochastic());
  ASSERT_TRUE(P.isStronglyConnected());
  // The solved stationary distribution is a fixed point and normalized.
  std::vector<double> Pi = P.stationaryDistribution();
  double Sum = 0;
  for (double V : Pi) {
    EXPECT_GE(V, -1e-12);
    Sum += V;
  }
  EXPECT_NEAR(Sum, 1.0, 1e-10);
  EXPECT_TRUE(P.preservesDistribution(Pi, 1e-9));
  // Spectral invariants of a stochastic matrix.
  auto Eigs = P.spectrum();
  EXPECT_NEAR(std::abs(Eigs[0]), 1.0, 1e-8);
  for (const auto &E : Eigs)
    EXPECT_LE(std::abs(E), 1.0 + 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomChainSweep,
    ::testing::Values(ChainSweepCase{2, 1}, ChainSweepCase{3, 2},
                      ChainSweepCase{5, 3}, ChainSweepCase{8, 4},
                      ChainSweepCase{13, 5}, ChainSweepCase{21, 6},
                      ChainSweepCase{34, 7}, ChainSweepCase{55, 8}));

TEST(AliasSamplerTest, MatchesDistribution) {
  std::vector<double> W = {0.5, 0.25, 0.2, 0.05};
  AliasSampler S(W);
  RNG Rng(51);
  std::vector<int> Counts(4, 0);
  const int N = 200000;
  for (int I = 0; I < N; ++I)
    ++Counts[S.sample(Rng)];
  for (size_t K = 0; K < 4; ++K)
    EXPECT_NEAR(Counts[K] / double(N), W[K], 0.005) << "index " << K;
}

TEST(AliasSamplerTest, HandlesZeroWeights) {
  std::vector<double> W = {0.0, 1.0, 0.0, 3.0};
  AliasSampler S(W);
  RNG Rng(52);
  for (int I = 0; I < 10000; ++I) {
    size_t K = S.sample(Rng);
    EXPECT_TRUE(K == 1 || K == 3);
  }
}

TEST(AliasSamplerTest, SingleOutcome) {
  AliasSampler S(std::vector<double>{2.0});
  RNG Rng(53);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(S.sample(Rng), 0u);
}

TEST(CDFSamplerTest, MatchesDistribution) {
  std::vector<double> W = {1.0, 2.0, 3.0, 4.0};
  CDFSampler S(W);
  RNG Rng(54);
  std::vector<int> Counts(4, 0);
  const int N = 200000;
  for (int I = 0; I < N; ++I)
    ++Counts[S.sample(Rng)];
  for (size_t K = 0; K < 4; ++K)
    EXPECT_NEAR(Counts[K] / double(N), W[K] / 10.0, 0.005);
}

TEST(CDFSamplerTest, AgreesWithAliasInDistribution) {
  std::vector<double> W = {0.15, 0.35, 0.1, 0.4};
  AliasSampler A(W);
  CDFSampler C(W);
  RNG R1(55), R2(55);
  std::vector<int> CA(4, 0), CC(4, 0);
  const int N = 100000;
  for (int I = 0; I < N; ++I) {
    ++CA[A.sample(R1)];
    ++CC[C.sample(R2)];
  }
  for (size_t K = 0; K < 4; ++K)
    EXPECT_NEAR(CA[K] / double(N), CC[K] / double(N), 0.01);
}

TEST(MarkovChainSamplerTest, FirstDrawFollowsInitialDistribution) {
  TransitionMatrix P = TransitionMatrix::fromRows({{0, 1}, {1, 0}});
  std::vector<double> Init = {1.0, 0.0};
  RNG Rng(56);
  for (int Trial = 0; Trial < 50; ++Trial) {
    MarkovChainSampler S(P, Init);
    EXPECT_EQ(S.next(Rng), 0u);
    EXPECT_EQ(S.next(Rng), 1u); // deterministic alternation
    EXPECT_EQ(S.next(Rng), 0u);
  }
}

TEST(MarkovChainSamplerTest, EmpiricalTransitionFrequencies) {
  TransitionMatrix P = paperExampleChain();
  std::vector<double> Pi = P.stationaryDistribution();
  MarkovChainSampler S(P, Pi);
  RNG Rng(57);
  const int N = 300000;
  std::vector<std::vector<int>> Counts(4, std::vector<int>(4, 0));
  std::vector<int> StateCounts(4, 0);
  size_t Prev = S.next(Rng);
  for (int I = 1; I < N; ++I) {
    size_t Cur = S.next(Rng);
    ++Counts[Prev][Cur];
    ++StateCounts[Prev];
    Prev = Cur;
  }
  for (size_t I = 0; I < 4; ++I)
    for (size_t J = 0; J < 4; ++J) {
      double Freq = Counts[I][J] / double(StateCounts[I]);
      EXPECT_NEAR(Freq, P.at(I, J), 0.01) << I << "->" << J;
    }
}

TEST(MarkovChainSamplerTest, LongRunVisitsMatchStationary) {
  TransitionMatrix P = paperExampleChain();
  std::vector<double> Pi = P.stationaryDistribution();
  MarkovChainSampler S(P, Pi);
  RNG Rng(58);
  std::vector<int> Visits(4, 0);
  const int N = 300000;
  for (int I = 0; I < N; ++I)
    ++Visits[S.next(Rng)];
  for (size_t K = 0; K < 4; ++K)
    EXPECT_NEAR(Visits[K] / double(N), Pi[K], 0.01);
}

TEST(MarkovChainSamplerTest, PureQDriftHasNoRowCells) {
  // Every row equals pi: the column minima take all of it, so each step is
  // one draw from the shared table and no row table exists.
  const std::vector<double> Pi = {0.1, 0.2, 0.3, 0.4};
  MarkovChainSampler S(TransitionMatrix::fromStationary(Pi), Pi);
  EXPECT_TRUE(S.hasSharedTable());
  EXPECT_EQ(S.numRowCells(), 0u);
  for (size_t I = 0; I < Pi.size(); ++I) {
    std::vector<double> Law = S.rowLaw(I);
    for (size_t J = 0; J < Pi.size(); ++J)
      EXPECT_NEAR(Law[J], Pi[J], 1e-15);
  }
}

TEST(MarkovChainSamplerTest, ZeroColumnMinimaHaveNoSharedTable) {
  // Every column of the example chain has a zero, so W == 0: no shared
  // table, no coin, and every step draws from the row's own cells.
  TransitionMatrix P = paperExampleChain();
  MarkovChainSampler S(P, P.stationaryDistribution());
  EXPECT_FALSE(S.hasSharedTable());
  EXPECT_EQ(S.numRowCells(), 9u); // the example's nine edges
  for (size_t I = 0; I < 4; ++I) {
    std::vector<double> Law = S.rowLaw(I);
    for (size_t J = 0; J < 4; ++J)
      EXPECT_NEAR(Law[J], P.at(I, J), 1e-15) << I << "->" << J;
  }
}

TEST(MarkovChainSamplerTest, SharedTableCarriesTheColumnMinima) {
  // 0.5 * qDrift + 0.5 * example chain: the minima are exactly 0.5 * pi,
  // so every row keeps its sparse cells and flips a coin of 1/2.
  TransitionMatrix Ex = paperExampleChain();
  std::vector<double> Pi = Ex.stationaryDistribution();
  TransitionMatrix Qd = TransitionMatrix::fromStationary(Pi);
  TransitionMatrix P = TransitionMatrix::combine({&Qd, &Ex}, {0.5, 0.5});
  MarkovChainSampler S(P, Pi);
  EXPECT_TRUE(S.hasSharedTable());
  EXPECT_EQ(S.numRowCells(), 9u);
  for (size_t I = 0; I < 4; ++I) {
    std::vector<double> Law = S.rowLaw(I);
    for (size_t J = 0; J < 4; ++J)
      EXPECT_NEAR(Law[J], P.at(I, J), 1e-15) << I << "->" << J;
  }
}

TEST(MarkovChainSamplerTest, WalkDrawsWhatStepFromDraws) {
  // walk() runs its own inlined, branch-free copy of the step on a local
  // generator. It must produce exactly initial() + stepFrom() and leave
  // the caller's generator where they would.
  //
  // Mixed has column minima m = (0.1, 0.2, 0.1, 0.1): row 0 equals m
  // (coin t = 1, no row cells), row 1 adds one cell, rows 2 and 3 several
  // (0 < t < 1); rows need not be normalized. Sparse has no shared table
  // (every coin 0), and rows 0 and 2 have one cell.
  struct Chain {
    TransitionMatrix P;
    std::vector<double> Init;
    bool Shared;
    size_t RowCells;
  };
  const Chain Chains[] = {
      {TransitionMatrix::fromRows({{0.1, 0.2, 0.1, 0.1},
                                   {0.1, 0.2, 0.6, 0.1},
                                   {0.3, 0.2, 0.1, 0.4},
                                   {0.1, 0.5, 0.3, 0.2}}),
       {0.3, 0.3, 0.2, 0.2}, true, 6},
      {TransitionMatrix::fromRows({{0, 1, 0}, {0, 0.5, 0.5}, {1, 0, 0}}),
       {0.2, 0.5, 0.3}, false, 4}};
  for (const Chain &C : Chains) {
    for (SamplerKind Kind : {SamplerKind::Alias, SamplerKind::CDF}) {
      MarkovChainSampler S(C.P, C.Init, Kind);
      ASSERT_EQ(S.hasSharedTable(), C.Shared);
      ASSERT_EQ(S.numRowCells(), C.RowCells);
      for (uint64_t Seed : {1u, 2u, 3u}) {
        for (size_t Count : {size_t(0), size_t(1), size_t(2), size_t(500)}) {
          SCOPED_TRACE("states=" + std::to_string(S.numStates()) +
                       " cdf=" + std::to_string(Kind == SamplerKind::CDF) +
                       " seed=" + std::to_string(Seed) +
                       " count=" + std::to_string(Count));
          RNG Walked(Seed), Stepped(Seed);
          std::vector<size_t> Out(Count);
          S.walk(Walked, Out.data(), Count);
          for (size_t I = 0; I < Count; ++I) {
            size_t Expect = I == 0 ? S.initial(Stepped)
                                   : S.stepFrom(Out[I - 1], Stepped);
            ASSERT_EQ(Out[I], Expect) << "step " << I;
          }
          for (int I = 0; I < 4; ++I)
            ASSERT_EQ(Walked.next(), Stepped.next()) << "streams diverged";
        }
      }
    }
  }
}

TEST(MarkovChainSamplerTest, InvalidRowsThrowInEveryBuildType) {
  const std::vector<double> Init = {0.5, 0.5};
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  for (const std::vector<std::vector<double>> &Rows :
       {std::vector<std::vector<double>>{{0.5, 0.5}, {1.5, -0.5}},
        std::vector<std::vector<double>>{{NaN, 1.0}, {0.5, 0.5}},
        std::vector<std::vector<double>>{{0.5, 0.5}, {0.0, 0.0}},
        std::vector<std::vector<double>>{{Inf, 1.0}, {0.5, 0.5}}}) {
    TransitionMatrix P = TransitionMatrix::fromRows(Rows);
    EXPECT_THROW(MarkovChainSampler(P, Init), std::invalid_argument);
    EXPECT_THROW(MarkovChainSampler(P, Init, SamplerKind::CDF),
                 std::invalid_argument);
  }
  TransitionMatrix Good = TransitionMatrix::fromRows({{0.5, 0.5}, {1, 0}});
  EXPECT_THROW(MarkovChainSampler(Good, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(MarkovChainSampler(Good, {1.0}), std::invalid_argument);
  EXPECT_THROW(AliasSampler(std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
  EXPECT_THROW(CDFSampler(std::vector<double>{}), std::invalid_argument);
}
