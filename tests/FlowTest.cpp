//===- tests/FlowTest.cpp - min-cost flow solver tests -------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/TransitionBuilders.h"
#include "flow/MinCostFlow.h"
#include "hamgen/Registry.h"
#include "service/SimulationService.h"
#include "support/RNG.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

using namespace marqsim;

TEST(MinCostFlowTest, PicksCheaperOfTwoPaths) {
  // S -(cap 10, cost 1)-> A -> T and S -(cap 10, cost 5)-> B -> T.
  MinCostFlow Net(4);
  size_t SA = Net.addEdge(0, 1, 10, 1);
  size_t AT = Net.addEdge(1, 3, 10, 0);
  size_t SB = Net.addEdge(0, 2, 10, 5);
  size_t BT = Net.addEdge(2, 3, 10, 0);
  auto R = Net.solve(0, 3, 10);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, 10);
  EXPECT_EQ(Net.flowOnEdge(SA), 10);
  EXPECT_EQ(Net.flowOnEdge(SB), 0);
  EXPECT_EQ(Net.flowOnEdge(AT), 10);
  EXPECT_EQ(Net.flowOnEdge(BT), 0);
}

TEST(MinCostFlowTest, SpillsToExpensivePathWhenSaturated) {
  MinCostFlow Net(4);
  size_t SA = Net.addEdge(0, 1, 6, 1);
  Net.addEdge(1, 3, 6, 0);
  size_t SB = Net.addEdge(0, 2, 10, 5);
  Net.addEdge(2, 3, 10, 0);
  auto R = Net.solve(0, 3, 10);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(Net.flowOnEdge(SA), 6);
  EXPECT_EQ(Net.flowOnEdge(SB), 4);
  EXPECT_EQ(R.TotalCost, 6 * 1 + 4 * 5);
}

TEST(MinCostFlowTest, InfeasibleWhenCutTooSmall) {
  MinCostFlow Net(3);
  Net.addEdge(0, 1, 3, 1);
  Net.addEdge(1, 2, 3, 1);
  auto R = Net.solve(0, 2, 5);
  EXPECT_FALSE(R.Feasible);
  EXPECT_EQ(R.FlowSent, 3);
}

TEST(MinCostFlowTest, ZeroAmountIsTriviallyFeasible) {
  MinCostFlow Net(2);
  Net.addEdge(0, 1, 1, 1);
  auto R = Net.solve(0, 1, 0);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, 0);
}

TEST(MinCostFlowTest, ReroutesThroughResidualEdges) {
  // Classic residual-graph test: the cheap direct guess must be partially
  // undone to achieve optimality.
  //      S -> A (cap 1, cost 1),  S -> B (cap 1, cost 4)
  //      A -> B (cap 1, cost 1),  A -> T (cap 1, cost 6)
  //      B -> T (cap 2, cost 1)
  // Best flow of 2: S->A->B->T (cost 3) + S->B->T (cost 5) = 8,
  // rather than S->A->T (7) + S->B->T (5) = 12.
  MinCostFlow Net(4);
  Net.addEdge(0, 1, 1, 1);
  Net.addEdge(0, 2, 1, 4);
  Net.addEdge(1, 2, 1, 1);
  size_t AT = Net.addEdge(1, 3, 1, 6);
  Net.addEdge(2, 3, 2, 1);
  auto R = Net.solve(0, 3, 2);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, 8);
  EXPECT_EQ(Net.flowOnEdge(AT), 0);
}

TEST(MinCostFlowTest, HandlesNegativeCosts) {
  // A negative-cost edge makes the Bellman-Ford initialization necessary.
  MinCostFlow Net(4);
  Net.addEdge(0, 1, 5, 2);
  Net.addEdge(1, 2, 5, -3);
  Net.addEdge(2, 3, 5, 2);
  Net.addEdge(0, 3, 5, 4);
  auto R = Net.solve(0, 3, 5);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, 5 * (2 - 3 + 2));
}

TEST(MinCostFlowTest, ParallelEdgesSupported) {
  MinCostFlow Net(2);
  size_t E1 = Net.addEdge(0, 1, 3, 2);
  size_t E2 = Net.addEdge(0, 1, 3, 1);
  auto R = Net.solve(0, 1, 4);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(Net.flowOnEdge(E2), 3);
  EXPECT_EQ(Net.flowOnEdge(E1), 1);
  EXPECT_EQ(R.TotalCost, 3 * 1 + 1 * 2);
}

namespace {

/// Brute-force optimum of a small transportation problem: supplies[i] units
/// leave row i, demands[j] units arrive at column j, unit cost Cost[i][j].
/// Enumerates all integral assignments recursively.
int64_t bruteForceTransport(const std::vector<int64_t> &Supplies,
                            const std::vector<int64_t> &Demands,
                            const std::vector<std::vector<int64_t>> &Cost) {
  const size_t R = Supplies.size(), C = Demands.size();
  std::vector<int64_t> Remaining = Demands;
  int64_t Best = INT64_MAX;
  // Flatten rows: assign each row's supply across columns recursively.
  std::function<void(size_t, int64_t, int64_t)> Go =
      [&](size_t Row, int64_t LeftInRow, int64_t Acc) {
        if (Acc >= Best)
          return;
        if (Row == R) {
          for (int64_t D : Remaining)
            if (D != 0)
              return;
          Best = std::min(Best, Acc);
          return;
        }
        if (LeftInRow == 0) {
          Go(Row + 1, Row + 1 < R ? Supplies[Row + 1] : 0, Acc);
          return;
        }
        for (size_t Col = 0; Col < C; ++Col) {
          if (Remaining[Col] == 0)
            continue;
          int64_t Amount = 1; // move one unit at a time (small instances)
          Remaining[Col] -= Amount;
          Go(Row, LeftInRow - Amount, Acc + Cost[Row][Col]);
          Remaining[Col] += Amount;
        }
      };
  Go(0, Supplies[0], 0);
  return Best;
}

} // namespace

TEST(MinCostFlowTest, MatchesBruteForceOnRandomTransportInstances) {
  RNG Rng(61);
  for (int Trial = 0; Trial < 12; ++Trial) {
    const size_t N = 3;
    std::vector<int64_t> Supply(N), Demand(N);
    int64_t Total = 0;
    for (size_t I = 0; I < N; ++I) {
      Supply[I] = 1 + static_cast<int64_t>(Rng.uniformInt(2));
      Total += Supply[I];
    }
    // Split the same total across demands.
    int64_t Left = Total;
    for (size_t J = 0; J + 1 < N; ++J) {
      Demand[J] = Left > 0 ? static_cast<int64_t>(
                                 Rng.uniformInt(static_cast<uint64_t>(Left)) +
                                 (Left == Total ? 1 : 0))
                           : 0;
      Demand[J] = std::min(Demand[J], Left);
      Left -= Demand[J];
    }
    Demand[N - 1] = Left;

    std::vector<std::vector<int64_t>> Cost(N, std::vector<int64_t>(N));
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        Cost[I][J] = static_cast<int64_t>(Rng.uniformInt(9));

    MinCostFlow Net(2 * N + 2);
    for (size_t I = 0; I < N; ++I)
      Net.addEdge(0, 1 + I, Supply[I], 0);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        Net.addEdge(1 + I, 1 + N + J, MinCostFlow::kInfiniteCapacity,
                    Cost[I][J]);
    for (size_t J = 0; J < N; ++J)
      Net.addEdge(1 + N + J, 2 * N + 1, Demand[J], 0);
    auto R = Net.solve(0, 2 * N + 1, Total);
    ASSERT_TRUE(R.Feasible);
    int64_t Brute = bruteForceTransport(Supply, Demand, Cost);
    EXPECT_EQ(R.TotalCost, Brute) << "trial " << Trial;
  }
}

struct TransportSweepCase {
  size_t Rows;
  size_t Cols;
  uint64_t Seed;
};

class TransportOptimalitySweep
    : public ::testing::TestWithParam<TransportSweepCase> {};

TEST_P(TransportOptimalitySweep, MatchesBruteForce) {
  const auto &Case = GetParam();
  RNG Rng(Case.Seed);
  std::vector<int64_t> Supply(Case.Rows), Demand(Case.Cols, 0);
  int64_t Total = 0;
  for (auto &S : Supply) {
    S = 1 + static_cast<int64_t>(Rng.uniformInt(2));
    Total += S;
  }
  for (int64_t K = 0; K < Total; ++K)
    ++Demand[Rng.uniformInt(Case.Cols)];

  std::vector<std::vector<int64_t>> Cost(
      Case.Rows, std::vector<int64_t>(Case.Cols));
  for (auto &Row : Cost)
    for (auto &C : Row)
      C = static_cast<int64_t>(Rng.uniformInt(12));

  const size_t Src = 0, Snk = Case.Rows + Case.Cols + 1;
  MinCostFlow Net(Case.Rows + Case.Cols + 2);
  for (size_t I = 0; I < Case.Rows; ++I)
    Net.addEdge(Src, 1 + I, Supply[I], 0);
  for (size_t I = 0; I < Case.Rows; ++I)
    for (size_t J = 0; J < Case.Cols; ++J)
      Net.addEdge(1 + I, 1 + Case.Rows + J, MinCostFlow::kInfiniteCapacity,
                  Cost[I][J]);
  for (size_t J = 0; J < Case.Cols; ++J)
    Net.addEdge(1 + Case.Rows + J, Snk, Demand[J], 0);
  auto R = Net.solve(Src, Snk, Total);
  ASSERT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, bruteForceTransport(Supply, Demand, Cost));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransportOptimalitySweep,
    ::testing::Values(TransportSweepCase{2, 2, 11},
                      TransportSweepCase{2, 3, 12},
                      TransportSweepCase{3, 2, 13},
                      TransportSweepCase{3, 3, 14},
                      TransportSweepCase{2, 4, 15},
                      TransportSweepCase{4, 2, 16},
                      TransportSweepCase{3, 3, 17},
                      TransportSweepCase{3, 3, 18}));

TEST(MinCostFlowTest, LargeBipartiteInstanceRunsQuickly) {
  // Shape of the MarQSim MCFP: complete bipartite, small integer costs.
  RNG Rng(62);
  const size_t N = 120;
  const int64_t Scale = 1'000'000;
  std::vector<int64_t> Units(N, Scale / static_cast<int64_t>(N));
  Units[0] += Scale % static_cast<int64_t>(N);
  MinCostFlow Net(2 * N + 2);
  for (size_t I = 0; I < N; ++I)
    Net.addEdge(0, 1 + I, Units[I], 0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      if (I == J)
        continue;
      Net.addEdge(1 + I, 1 + N + J, MinCostFlow::kInfiniteCapacity,
                  static_cast<int64_t>(Rng.uniformInt(40)));
    }
  for (size_t J = 0; J < N; ++J)
    Net.addEdge(1 + N + J, 2 * N + 1, Units[J], 0);
  auto R = Net.solve(0, 2 * N + 1, Scale);
  EXPECT_TRUE(R.Feasible);
  EXPECT_GE(R.TotalCost, 0);
}

namespace {

struct TestEdge {
  size_t From, To;
  int64_t Capacity, Cost;
};

/// True if the residual graph of \p Flow over \p Edges has a negative-cost
/// cycle: Bellman-Ford from a virtual source joined to every node at cost 0,
/// reading only the test's own edge list.
bool residualHasNegativeCycle(size_t NumNodes,
                              const std::vector<TestEdge> &Edges,
                              const std::vector<int64_t> &Flow) {
  std::vector<int64_t> Dist(NumNodes, 0);
  auto Relax = [&](size_t U, size_t V, int64_t W) {
    if (Dist[U] + W < Dist[V]) {
      Dist[V] = Dist[U] + W;
      return true;
    }
    return false;
  };
  for (size_t Iter = 0; Iter <= NumNodes; ++Iter) {
    bool Any = false;
    for (size_t K = 0; K < Edges.size(); ++K) {
      const TestEdge &E = Edges[K];
      if (Flow[K] < E.Capacity)
        Any |= Relax(E.From, E.To, E.Cost);
      if (Flow[K] > 0)
        Any |= Relax(E.To, E.From, -E.Cost);
    }
    if (!Any)
      return false;
  }
  return true; // still relaxing after |V| rounds
}

/// True if \p Sink is reachable from \p Source over residual arcs.
bool residualReaches(size_t NumNodes, const std::vector<TestEdge> &Edges,
                     const std::vector<int64_t> &Flow, size_t Source,
                     size_t Sink) {
  std::vector<bool> Seen(NumNodes, false);
  std::vector<size_t> Stack = {Source};
  Seen[Source] = true;
  while (!Stack.empty()) {
    size_t U = Stack.back();
    Stack.pop_back();
    for (size_t K = 0; K < Edges.size(); ++K) {
      const TestEdge &E = Edges[K];
      size_t V = NumNodes;
      if (E.From == U && Flow[K] < E.Capacity)
        V = E.To;
      else if (E.To == U && Flow[K] > 0)
        V = E.From;
      if (V < NumNodes && !Seen[V]) {
        Seen[V] = true;
        Stack.push_back(V);
      }
    }
  }
  return Seen[Sink];
}

} // namespace

TEST(MinCostFlowTest, RandomNetworksSatisfyOptimalityConditions) {
  // Checks the solver against the optimality certificate rather than a
  // known answer, so the test holds for any internal arc layout: feasible
  // flow, conservation, reported cost, and no negative residual cycle.
  // Costs are c(u,v) = r + phi(v) - phi(u) with r >= 0, so edges may be
  // negative while the input network has no negative cycle.
  RNG Rng(0xF10);
  for (int Trial = 0; Trial < 60; ++Trial) {
    const size_t Connected = 3 + Rng.uniformInt(8);
    const size_t Isolated = Rng.uniformInt(3); // nodes without any arc
    const size_t NumNodes = Connected + Isolated;
    std::vector<int64_t> Phi(Connected);
    for (int64_t &P : Phi)
      P = static_cast<int64_t>(Rng.uniformInt(21)) - 10;

    std::vector<TestEdge> Edges;
    const size_t NumEdges = Connected + Rng.uniformInt(4 * Connected);
    for (size_t K = 0; K < NumEdges; ++K) {
      size_t From = Rng.uniformInt(Connected);
      size_t To = Rng.uniformInt(Connected - 1);
      To += To >= From; // no self-loops
      int64_t Capacity = Rng.bernoulli(0.15)
                             ? 0
                             : static_cast<int64_t>(Rng.uniformInt(9));
      int64_t Cost =
          static_cast<int64_t>(Rng.uniformInt(7)) + Phi[To] - Phi[From];
      Edges.push_back({From, To, Capacity, Cost});
      if (Rng.bernoulli(0.2)) // parallel copy with its own cost
        Edges.push_back(
            {From, To, static_cast<int64_t>(Rng.uniformInt(5)),
             static_cast<int64_t>(Rng.uniformInt(7)) + Phi[To] - Phi[From]});
    }
    // Terminals are connected nodes; isolated nodes sit after them.
    const size_t Source = 0, Sink = Connected - 1;
    const int64_t Amount = static_cast<int64_t>(Rng.uniformInt(30));

    MinCostFlow Net(NumNodes);
    std::vector<size_t> Ids;
    for (const TestEdge &E : Edges)
      Ids.push_back(Net.addEdge(E.From, E.To, E.Capacity, E.Cost));
    ASSERT_EQ(Net.numEdges(), Edges.size());
    auto R = Net.solve(Source, Sink, Amount);
    ASSERT_EQ(Net.numEdges(), Edges.size()) << "trial " << Trial;

    std::vector<int64_t> Flow(Edges.size());
    std::vector<int64_t> Excess(NumNodes, 0); // outflow minus inflow
    int64_t Cost = 0;
    for (size_t K = 0; K < Edges.size(); ++K) {
      Flow[K] = Net.flowOnEdge(Ids[K]);
      ASSERT_GE(Flow[K], 0) << "trial " << Trial << " edge " << K;
      ASSERT_LE(Flow[K], Edges[K].Capacity) << "trial " << Trial;
      Excess[Edges[K].From] += Flow[K];
      Excess[Edges[K].To] -= Flow[K];
      Cost += Flow[K] * Edges[K].Cost;
    }
    for (size_t V = 0; V < NumNodes; ++V) {
      if (V != Source && V != Sink) {
        EXPECT_EQ(Excess[V], 0) << "trial " << Trial << " node " << V;
      }
    }
    EXPECT_EQ(Excess[Source], R.FlowSent) << "trial " << Trial;
    EXPECT_EQ(Excess[Sink], -R.FlowSent) << "trial " << Trial;
    EXPECT_LE(R.FlowSent, Amount);
    EXPECT_EQ(R.Feasible, R.FlowSent == Amount);
    // A short flow must be a maximum flow: no augmenting path remains.
    if (!R.Feasible) {
      EXPECT_FALSE(residualReaches(NumNodes, Edges, Flow, Source, Sink))
          << "trial " << Trial;
    }
    EXPECT_EQ(R.TotalCost, Cost) << "trial " << Trial;
    EXPECT_FALSE(residualHasNegativeCycle(NumNodes, Edges, Flow))
        << "trial " << Trial;
  }
}

namespace {

/// FNV-1a over the IEEE-754 bits of every entry, row-major.
uint64_t matrixBitsHash(const TransitionMatrix &P) {
  uint64_t H = serial::FNVOffset;
  for (size_t I = 0; I < P.size(); ++I)
    for (size_t J = 0; J < P.size(); ++J) {
      double V = P.at(I, J);
      uint64_t Bits;
      std::memcpy(&Bits, &V, sizeof Bits);
      H = serial::fnv1aWord(Bits, H);
    }
  return H;
}

} // namespace

TEST(FlowMatrixGoldenTest, OHMinusPgcAndPrpBitsAreFrozen) {
  // Pins every bit of the MCFP transition matrices on a registry workload:
  // the solver's arc layout and the builders' edge numbering may change,
  // the flows may not (cached .mat components depend on it).
  Hamiltonian H =
      SimulationService::prepare(makeBenchmark(*findBenchmark("OH-")));
  TransitionMatrix Pgc = buildGateCancellation(H);
  RNG Rng(0x5EED);
  TransitionMatrix Prp = buildRandomPerturbation(H, 2, Rng);
  EXPECT_EQ(matrixBitsHash(Pgc), 0x98376d3c1ed176e3ULL);
  EXPECT_EQ(matrixBitsHash(Prp), 0xb37f6c52baa657a2ULL);
}
