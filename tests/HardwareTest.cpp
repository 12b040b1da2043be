//===- tests/HardwareTest.cpp - topology-aware cost tests ----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CNOTCountOracle.h"
#include "core/HardwareCost.h"
#include "hamgen/Models.h"

#include <gtest/gtest.h>

using namespace marqsim;

TEST(DeviceTopologyTest, LineDistances) {
  DeviceTopology Line = DeviceTopology::line(5);
  EXPECT_EQ(Line.distance(0, 0), 0u);
  EXPECT_EQ(Line.distance(0, 1), 1u);
  EXPECT_EQ(Line.distance(0, 4), 4u);
  EXPECT_EQ(Line.distance(4, 0), 4u);
  EXPECT_EQ(Line.distance(2, 3), 1u);
}

TEST(DeviceTopologyTest, FullyConnectedIsAllOnes) {
  DeviceTopology Full = DeviceTopology::fullyConnected(6);
  for (unsigned A = 0; A < 6; ++A)
    for (unsigned B = 0; B < 6; ++B)
      EXPECT_EQ(Full.distance(A, B), A == B ? 0u : 1u);
}

TEST(DeviceTopologyTest, RoutedCostModel) {
  DeviceTopology Line = DeviceTopology::line(5);
  EXPECT_EQ(Line.routedCNOTCost(1, 2), 1u);      // adjacent
  EXPECT_EQ(Line.routedCNOTCost(0, 2), 4u);      // 3*(2-1)+1
  EXPECT_EQ(Line.routedCNOTCost(0, 4), 10u);     // 3*(4-1)+1
}

TEST(HardwareCostTest, ReducesToPlainOracleWhenFullyConnected) {
  RNG Rng(121);
  DeviceTopology Full = DeviceTopology::fullyConnected(6);
  Hamiltonian H = makeRandomHamiltonian(6, 20, Rng);
  for (size_t I = 0; I < H.numTerms(); ++I)
    for (size_t J = 0; J < H.numTerms(); ++J) {
      unsigned Plain =
          cnotCountBetween(H.term(I).String, H.term(J).String);
      unsigned Routed = hardwareCNOTCostBetween(H.term(I).String,
                                                H.term(J).String, Full);
      ASSERT_EQ(Plain, Routed) << "pair " << I << "," << J;
    }
}

TEST(HardwareCostTest, LineTopologyNeverCheaper) {
  RNG Rng(122);
  DeviceTopology Line = DeviceTopology::line(6);
  Hamiltonian H = makeRandomHamiltonian(6, 15, Rng);
  for (size_t I = 0; I < H.numTerms(); ++I)
    for (size_t J = 0; J < H.numTerms(); ++J) {
      unsigned Plain =
          cnotCountBetween(H.term(I).String, H.term(J).String);
      unsigned Routed = hardwareCNOTCostBetween(H.term(I).String,
                                                H.term(J).String, Line);
      ASSERT_GE(Routed, Plain);
    }
}

TEST(HardwareCostTest, IdenticalStringsStillFree) {
  DeviceTopology Line = DeviceTopology::line(4);
  auto P = *PauliString::parse("XXYY");
  EXPECT_EQ(hardwareCNOTCostBetween(P, P, Line), 0u);
}

TEST(HardwareCostTest, HardwareAwareMatrixIsValid) {
  RNG Rng(123);
  Hamiltonian H = makeRandomHamiltonian(5, 14, Rng).splitLargeTerms();
  DeviceTopology Line = DeviceTopology::line(5);
  TransitionMatrix Phw = buildHardwareAwareGC(H, Line);
  std::vector<double> Pi = H.stationaryDistribution();
  EXPECT_TRUE(Phw.isRowStochastic(1e-7));
  EXPECT_TRUE(Phw.preservesDistribution(Pi, 1e-6));
  TransitionMatrix Mixed = combineWithQDrift(H, Phw, 0.4);
  EXPECT_TRUE(Mixed.isStronglyConnected());
}

TEST(HardwareCostTest, HardwareAwareBeatsPlainGCOnRoutedMetric) {
  // On a line topology, optimizing for routed cost must give expected
  // routed cost <= the matrix optimized for the naive count (both are
  // feasible points of the same flow polytope).
  RNG Rng(124);
  Hamiltonian H = makeRandomHamiltonian(6, 24, Rng).splitLargeTerms();
  DeviceTopology Line = DeviceTopology::line(6);
  std::vector<double> Pi = H.stationaryDistribution();
  TransitionMatrix Phw = buildHardwareAwareGC(H, Line);
  TransitionMatrix Pgc = buildGateCancellation(H);
  double RoutedHw = expectedHardwareCNOTs(H, Phw, Pi, Line);
  double RoutedGc = expectedHardwareCNOTs(H, Pgc, Pi, Line);
  EXPECT_LE(RoutedHw, RoutedGc + 1e-6);
}

TEST(HardwareCostTest, GenericCostTableBuilderMatchesGC) {
  RNG Rng(125);
  Hamiltonian H = makeRandomHamiltonian(4, 10, Rng).splitLargeTerms();
  auto Plain = cnotCostTable(H);
  std::vector<std::vector<int64_t>> Cost(H.numTerms(),
                                         std::vector<int64_t>(H.numTerms()));
  MCFPOptions Opts;
  for (size_t I = 0; I < H.numTerms(); ++I)
    for (size_t J = 0; J < H.numTerms(); ++J)
      Cost[I][J] = Opts.CostScale * static_cast<int64_t>(Plain[I][J]);
  TransitionMatrix A = buildGateCancellation(H, Opts);
  TransitionMatrix B = buildFromCostTable(H, Cost, Opts);
  for (size_t I = 0; I < H.numTerms(); ++I)
    for (size_t J = 0; J < H.numTerms(); ++J)
      ASSERT_NEAR(A.at(I, J), B.at(I, J), 1e-12);
}
