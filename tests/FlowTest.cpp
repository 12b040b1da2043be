//===- tests/FlowTest.cpp - min-cost flow solver tests -------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CNOTCountOracle.h"
#include "core/TransitionBuilders.h"
#include "flow/TransportFlow.h"
#include "hamgen/Registry.h"
#include "service/SimulationService.h"
#include "sim/Kernels.h"
#include "support/RNG.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

using namespace marqsim;

namespace {

/// An N x N row-major cost table, zero everywhere.
std::vector<int64_t> zeroCosts(size_t N) {
  return std::vector<int64_t>(N * N, 0);
}

/// Runs \p Body once per kernel tier this host can run, scalar last, each
/// time with dispatch pinned through MARQSIM_KERNEL_TIER as KernelTest pins
/// it. The solver's Dijkstra row prefilter is a dispatched kernel, so every
/// flow bit must hold on every tier. Restores the environment and the
/// default dispatch afterwards.
template <class BodyFn> void onEveryTier(BodyFn &&Body) {
  struct Restore {
    const char *Prev = std::getenv("MARQSIM_KERNEL_TIER");
    const std::string Saved = Prev ? Prev : "";
    ~Restore() {
      if (Prev)
        setenv("MARQSIM_KERNEL_TIER", Saved.c_str(), 1);
      else
        unsetenv("MARQSIM_KERNEL_TIER");
      kernels::selectAuto();
    }
  } Restorer;
  for (const kernels::Ops *Tier : kernels::availableOps()) {
    SCOPED_TRACE(Tier->Name);
    ASSERT_EQ(setenv("MARQSIM_KERNEL_TIER", Tier->Name, 1), 0);
    kernels::selectAuto();
    ASSERT_STREQ(kernels::activeName(), Tier->Name);
    Body();
  }
}

} // namespace

TEST(TransportFlowTest, PicksCheaperOfTwoArcs) {
  // Supply 0 ships to demand 1 at cost 1 or to demand 2 at cost 5.
  std::vector<int64_t> Cost = zeroCosts(3);
  Cost[0 * 3 + 1] = 1;
  Cost[0 * 3 + 2] = 5;
  TransportFlow Net(3, Cost.data());
  auto R = Net.solve({10, 0, 0}, {0, 10, 10}, 10);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, 10);
  EXPECT_EQ(Net.flow(0, 1), 10);
  EXPECT_EQ(Net.flow(0, 2), 0);
}

TEST(TransportFlowTest, SpillsToExpensiveArcWhenSaturated) {
  std::vector<int64_t> Cost = zeroCosts(3);
  Cost[0 * 3 + 1] = 1;
  Cost[0 * 3 + 2] = 5;
  TransportFlow Net(3, Cost.data());
  auto R = Net.solve({10, 0, 0}, {0, 6, 10}, 10);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(Net.flow(0, 1), 6);
  EXPECT_EQ(Net.flow(0, 2), 4);
  EXPECT_EQ(R.TotalCost, 6 * 1 + 4 * 5);
}

TEST(TransportFlowTest, InfeasibleWhenCutTooSmall) {
  std::vector<int64_t> Cost = zeroCosts(3);
  TransportFlow Net(3, Cost.data());
  auto R = Net.solve({3, 0, 0}, {0, 5, 5}, 5);
  EXPECT_FALSE(R.Feasible);
  EXPECT_EQ(R.FlowSent, 3);

  // The diagonal is not an arc: supply 0 cannot feed demand 0.
  std::vector<int64_t> Diagonal = zeroCosts(2);
  TransportFlow Blocked(2, Diagonal.data());
  auto B = Blocked.solve({5, 0}, {5, 0}, 5);
  EXPECT_FALSE(B.Feasible);
  EXPECT_EQ(B.FlowSent, 0);
}

TEST(TransportFlowTest, ZeroAmountIsTriviallyFeasible) {
  std::vector<int64_t> Cost = {0, 1, 1, 0};
  TransportFlow Net(2, Cost.data());
  auto R = Net.solve({1, 1}, {1, 1}, 0);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, 0);
  EXPECT_EQ(Net.flow(0, 1), 0);
  EXPECT_EQ(Net.flow(1, 0), 0);
}

TEST(TransportFlowTest, RejectsNegativeCosts) {
  // Every MarQSim builder emits non-negative costs; the solver has no
  // Bellman-Ford start, so a negative arc is an input error in every build
  // type. The ignored diagonal may hold anything.
  std::vector<int64_t> Cost = {0, 2, -1, 0};
  EXPECT_THROW(TransportFlow(2, Cost.data()), std::invalid_argument);
  std::vector<int64_t> DiagonalOnly = {-7, 2, 1, -7};
  TransportFlow Net(2, DiagonalOnly.data());
  EXPECT_TRUE(Net.solve({1, 1}, {1, 1}, 2).Feasible);
}

TEST(TransportFlowTest, RejectsANegativeScaleAndAnOverflowingView) {
  // The view's costs are Base + bit * Scale: a negative scale could make
  // one negative, and an entry within Scale of INT64_MAX could overflow.
  // Both are checked once, on Base, whether or not a bit is drawn; the
  // diagonal is still ignored.
  std::vector<int64_t> Cost = {INT64_MAX, 2, 1, 0};
  const std::vector<uint64_t> Draws = {0};
  EXPECT_THROW(TransportFlow(2, Cost.data(), Draws.data(), -1),
               std::invalid_argument);
  EXPECT_NO_THROW(TransportFlow(2, Cost.data(), Draws.data(), INT64_MAX - 2));
  EXPECT_THROW(TransportFlow(2, Cost.data(), Draws.data(), INT64_MAX - 1),
               std::invalid_argument);
  Cost[1] = INT64_MAX;
  EXPECT_NO_THROW(TransportFlow(2, Cost.data()));
  EXPECT_THROW(TransportFlow(2, Cost.data(), nullptr, 1),
               std::invalid_argument);
}

namespace {

/// Every positive flow as forEachFlow reports it, in its order.
std::vector<std::tuple<size_t, size_t, int64_t>>
visitedFlows(const TransportFlow &Net) {
  std::vector<std::tuple<size_t, size_t, int64_t>> Flows;
  Net.forEachFlow(
      [&](size_t I, size_t J, int64_t F) { Flows.emplace_back(I, J, F); });
  return Flows;
}

} // namespace

TEST(TransportFlowCostViewTest, ViewEqualsMaterializedTableOnEveryTier) {
  // A perturbation round reads Base + bit * Scale through the solver's
  // cost view. The reference is the same round over a table with every
  // cost materialized, the path the rounds took before the view: the
  // flows, the result and the visited positive flows must all be equal,
  // on every tier, for row lengths that end inside a draw word, fill one
  // or cross one. forEachFlow must visit exactly the positive flow(I, J).
  RNG Rng(0xC057);
  for (const size_t N : {size_t(2), size_t(3), size_t(5), size_t(63),
                         size_t(64), size_t(65), size_t(130)}) {
    for (const int64_t Scale : {int64_t(0), int64_t(1), int64_t(2),
                                int64_t(1) << 40}) {
      SCOPED_TRACE("N " + std::to_string(N) + ", scale " +
                   std::to_string(Scale));
      std::vector<int64_t> Base(N * N);
      const uint64_t Alphabet = Rng.bernoulli(0.5) ? 4 : 41;
      for (int64_t &C : Base)
        C = static_cast<int64_t>(Rng.uniformInt(Alphabet));
      std::vector<uint64_t> Draws((N * N + 63) / 64);
      Rng.coinFlips(Draws.data(), N * N);
      std::vector<int64_t> Materialized(N * N);
      for (size_t K = 0; K < N * N; ++K)
        Materialized[K] =
            Base[K] + ((Draws[K / 64] >> (K % 64)) & 1 ? Scale : 0);
      std::vector<int64_t> Supply(N), Demand(N);
      for (size_t I = 0; I < N; ++I) {
        Supply[I] = Rng.bernoulli(0.1)
                        ? 0
                        : 1 + static_cast<int64_t>(Rng.uniformInt(300));
        Demand[I] = Supply[I];
      }
      std::shuffle(Demand.begin(), Demand.end(), Rng);
      int64_t Total = 0;
      for (int64_t C : Supply)
        Total += C;
      onEveryTier([&] {
        TransportFlow View(N, Base.data(), Draws.data(), Scale);
        TransportFlow Reference(N, Materialized.data());
        const auto RV = View.solve(Supply, Demand, Total);
        const auto RR = Reference.solve(Supply, Demand, Total);
        EXPECT_EQ(RV.FlowSent, RR.FlowSent);
        EXPECT_EQ(RV.TotalCost, RR.TotalCost);
        EXPECT_EQ(RV.Feasible, RR.Feasible);
        std::vector<std::tuple<size_t, size_t, int64_t>> Scanned;
        for (size_t I = 0; I < N; ++I)
          for (size_t J = 0; J < N; ++J) {
            ASSERT_EQ(View.flow(I, J), Reference.flow(I, J))
                << "arc " << I << " -> " << J;
            if (View.flow(I, J) > 0)
              Scanned.emplace_back(I, J, View.flow(I, J));
          }
        const auto Visited = visitedFlows(View);
        EXPECT_EQ(Visited, visitedFlows(Reference));
        auto Sorted = Visited;
        std::sort(Sorted.begin(), Sorted.end());
        EXPECT_EQ(Sorted, Scanned);
      });
    }
  }
}

TEST(TransportFlowTest, ReverseArcEmptiesAnArcAndALaterPhaseRefillsIt) {
  // Each flow value A of this network has one min-cost flow (checked by
  // enumerating every flow of value A), written out densely below. The
  // cheapest unit ships on 3 -> 1; at A = 2 and 3 a later phase pushes it
  // back along the reverse arc 1 -> 3, to 0; at A = 4 it ships on 3 -> 1
  // again. A full solve therefore empties the arc and refills it. Every
  // flow(I, J) must equal the dense table, and forEachFlow must visit
  // exactly its positive entries, in its order, skipping the emptied arc.
  // One solver is re-solved for every A: each solve starts from zero flow.
  const size_t N = 4;
  const std::vector<int64_t> Cost = {10, 5,  18, 11, 1, 14, 13, 18,
                                     7,  5,  12, 9,  2, 1,  2,  10};
  const std::vector<int64_t> Supply = {0, 2, 2, 1}, Demand = {0, 1, 1, 2};
  const int64_t Optimum[] = {1, 7, 16, 32};
  const std::vector<int64_t> Dense[] = {
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0},
      {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 1, 0, 0}};
  onEveryTier([&] {
    TransportFlow Net(N, Cost.data());
    for (int64_t Amount = 4; Amount >= 1; --Amount) {
      SCOPED_TRACE("amount " + std::to_string(Amount));
      const std::vector<int64_t> &Want = Dense[Amount - 1];
      const auto R = Net.solve(Supply, Demand, Amount);
      ASSERT_TRUE(R.Feasible);
      EXPECT_EQ(R.TotalCost, Optimum[Amount - 1]);
      std::vector<std::tuple<size_t, size_t, int64_t>> Positive;
      for (size_t J = 0; J < N; ++J)
        for (size_t I = 0; I < N; ++I) {
          EXPECT_EQ(Net.flow(I, J), Want[I * N + J])
              << "arc " << I << " -> " << J;
          if (Want[I * N + J] > 0)
            Positive.emplace_back(I, J, Want[I * N + J]);
        }
      EXPECT_EQ(visitedFlows(Net), Positive);
    }
  });
}

namespace {

/// Brute-force optimum of a small transportation problem: supplies[i] units
/// leave row i, demands[j] units arrive at column j != i, unit cost
/// Cost[i][j]. Tries every way to split each row's supply over the columns,
/// row after row, memoizing the best completion of each (row, demands
/// left) state, so equal states reached by different splits are searched
/// once; INT64_MAX when no assignment exists. The demands left are packed
/// four bits a column, so at most 16 columns of at most 15 units each.
class BruteForceTransport {
public:
  BruteForceTransport(const std::vector<int64_t> &Supplies,
                      const std::vector<int64_t> &Demands,
                      const std::vector<std::vector<int64_t>> &Cost)
      : Supplies(Supplies), Cost(Cost), C(Demands.size()),
        Memo(Supplies.size()) {
    if (C > 16 || std::any_of(Demands.begin(), Demands.end(),
                              [](int64_t D) { return D < 0 || D > 15; }))
      throw std::invalid_argument("brute force: demands do not pack");
    for (size_t J = 0; J < C; ++J)
      Start |= static_cast<uint64_t>(Demands[J]) << (4 * J);
  }

  int64_t optimum() { return best(0, Start); }

private:
  /// The cheapest completion of rows Row.. with \p Remaining demands left.
  int64_t best(size_t Row, uint64_t Remaining) {
    if (Row == Supplies.size())
      return Remaining == 0 ? 0 : INT64_MAX;
    const auto Hit = Memo[Row].find(Remaining);
    if (Hit != Memo[Row].end())
      return Hit->second;
    const int64_t Value = split(Row, 0, Supplies[Row], Remaining);
    Memo[Row].emplace(Remaining, Value);
    return Value;
  }

  /// Hands row Row's \p Left remaining units to columns >= \p Col (a
  /// split is a multiset of columns, so one order per split), then
  /// completes the rows below.
  int64_t split(size_t Row, size_t Col, int64_t Left, uint64_t Remaining) {
    if (Left == 0)
      return best(Row + 1, Remaining);
    int64_t Min = INT64_MAX;
    for (size_t J = Col; J < C; ++J) {
      if (J == Row || ((Remaining >> (4 * J)) & 15) == 0)
        continue;
      const int64_t Rest =
          split(Row, J, Left - 1, Remaining - (uint64_t(1) << (4 * J)));
      if (Rest != INT64_MAX)
        Min = std::min(Min, Rest + Cost[Row][J]);
    }
    return Min;
  }

  const std::vector<int64_t> &Supplies;
  const std::vector<std::vector<int64_t>> &Cost;
  size_t C;
  uint64_t Start = 0;
  std::vector<std::unordered_map<uint64_t, int64_t>> Memo;
};

} // namespace

namespace {

/// Solves the instance on every kernel tier and compares each solve with
/// the brute-force optimum: the same cost when an assignment exists,
/// infeasible when none does.
void expectMatchesBruteForce(const std::vector<int64_t> &Supply,
                             const std::vector<int64_t> &Demand,
                             const std::vector<std::vector<int64_t>> &Cost,
                             int64_t Total) {
  const size_t N = Supply.size();
  std::vector<int64_t> Flat(N * N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      Flat[I * N + J] = Cost[I][J];
  const int64_t Brute = BruteForceTransport(Supply, Demand, Cost).optimum();
  onEveryTier([&] {
    TransportFlow Net(N, Flat.data());
    auto R = Net.solve(Supply, Demand, Total);
    if (Brute == INT64_MAX) {
      EXPECT_FALSE(R.Feasible);
    } else {
      ASSERT_TRUE(R.Feasible);
      EXPECT_EQ(R.TotalCost, Brute);
    }
  });
}

} // namespace

TEST(TransportFlowTest, MatchesBruteForceOnRandomTransportInstances) {
  RNG Rng(61);
  for (int Trial = 0; Trial < 12; ++Trial) {
    SCOPED_TRACE(Trial);
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
    expectMatchesBruteForce(Supply, Demand, Cost, Total);
  }
}

struct TransportSweepCase {
  size_t N;
  uint64_t Seed;
};

class TransportOptimalitySweep
    : public ::testing::TestWithParam<TransportSweepCase> {};

TEST_P(TransportOptimalitySweep, MatchesBruteForce) {
  const auto &Case = GetParam();
  RNG Rng(Case.Seed);
  std::vector<int64_t> Supply(Case.N), Demand(Case.N, 0);
  int64_t Total = 0;
  for (auto &S : Supply) {
    S = 1 + static_cast<int64_t>(Rng.uniformInt(2));
    Total += S;
  }
  for (int64_t K = 0; K < Total; ++K)
    ++Demand[Rng.uniformInt(Case.N)];

  std::vector<std::vector<int64_t>> Cost(Case.N,
                                         std::vector<int64_t>(Case.N));
  for (auto &Row : Cost)
    for (auto &C : Row)
      C = static_cast<int64_t>(Rng.uniformInt(12));
  expectMatchesBruteForce(Supply, Demand, Cost, Total);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransportOptimalitySweep,
    ::testing::Values(TransportSweepCase{2, 11}, TransportSweepCase{2, 12},
                      TransportSweepCase{3, 13}, TransportSweepCase{3, 14},
                      TransportSweepCase{4, 15}, TransportSweepCase{4, 16},
                      TransportSweepCase{3, 17}, TransportSweepCase{3, 18},
                      TransportSweepCase{8, 19}, TransportSweepCase{9, 20},
                      TransportSweepCase{16, 21}));

namespace {

/// FNV-1a over every flow(I, J), row-major, then FlowSent, TotalCost and
/// Feasible: one word that changes if any bit of a solve does.
uint64_t flowBitsHash(const TransportFlow &Net, size_t N,
                      const TransportFlow::Result &R) {
  uint64_t H = serial::FNVOffset;
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      H = serial::fnv1aWord(static_cast<uint64_t>(Net.flow(I, J)), H);
  H = serial::fnv1aWord(static_cast<uint64_t>(R.FlowSent), H);
  H = serial::fnv1aWord(static_cast<uint64_t>(R.TotalCost), H);
  return serial::fnv1aWord(R.Feasible ? 1 : 0, H);
}

/// Off-diagonal cost alphabets. The small ones make zero-cost arcs and
/// many equal-length paths; NearTwoTo40 mixes zero with costs just above
/// 2^40, so distances differ in high bits and in low bits.
enum class CostAlphabet { ZeroOrTwo, ZeroToThree, ZeroToForty, NearTwoTo40 };

/// How much flow a case asks for, against the smaller capacity total M.
enum class Request { All, Part, TooMuch };

struct TieCase {
  size_t N;
  uint64_t Seed;
  CostAlphabet Costs;
  Request Amount;
  uint64_t Hash;
};

} // namespace

TEST(TransportFlowGoldenTest, TieHeavyInstanceFlowBitsAreFrozen) {
  // The flows of a min-cost solve are unique only up to ties; the solver
  // breaks them by the arc order its header fixes, and the Pgc/Prp
  // goldens depend on that. These instances are built to be full of ties
  // (zero-cost arcs, two- and four-letter cost alphabets, zero capacities,
  // short and infeasible requests), and every flow bit is pinned, on every
  // kernel tier. N = 17, 64 and 130 give the row prefilter whole vector
  // blocks, tails and the diagonal inside a block.
  const TieCase Cases[] = {
      {2, 1, CostAlphabet::ZeroOrTwo, Request::All,
       0xf23cfb97f45be626ULL},
      {3, 2, CostAlphabet::ZeroToThree, Request::Part,
       0x6fc55d178587103eULL},
      {3, 3, CostAlphabet::ZeroOrTwo, Request::TooMuch,
       0x96d0bb104cc6e8e4ULL},
      {17, 4, CostAlphabet::ZeroOrTwo, Request::All,
       0x4f22f561a197b9e8ULL},
      {17, 5, CostAlphabet::ZeroToThree, Request::Part,
       0x484932a56c92eb1bULL},
      {17, 6, CostAlphabet::ZeroToForty, Request::TooMuch,
       0xd77e243a1c173f98ULL},
      {64, 7, CostAlphabet::ZeroToThree, Request::All,
       0x7cd9ebd561dd651dULL},
      {64, 8, CostAlphabet::ZeroToForty, Request::Part,
       0xf36424100013e9e8ULL},
      {64, 9, CostAlphabet::NearTwoTo40, Request::All,
       0xec3e0e5f2075efb6ULL},
      {130, 10, CostAlphabet::ZeroOrTwo, Request::Part,
       0x3db77b5fd0d079c6ULL},
      {130, 11, CostAlphabet::ZeroToThree, Request::TooMuch,
       0xf9565c42c1bd7855ULL},
      {130, 12, CostAlphabet::ZeroToForty, Request::All,
       0xc0c1553971642b59ULL},
  };
  for (const TieCase &Case : Cases) {
    SCOPED_TRACE(Case.Seed);
    const size_t N = Case.N;
    RNG Rng(0x7E5 + Case.Seed);
    auto Capacity = [&] {
      return Rng.bernoulli(0.2) ? 0
                                : 1 + static_cast<int64_t>(Rng.uniformInt(500));
    };
    std::vector<int64_t> Supply(N), Demand(N);
    for (int64_t &C : Supply)
      C = Capacity();
    for (int64_t &C : Demand)
      C = Capacity();
    std::vector<int64_t> Cost = zeroCosts(N);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J) {
        int64_t &C = Cost[I * N + J];
        switch (Case.Costs) {
        case CostAlphabet::ZeroOrTwo:
          C = 2 * static_cast<int64_t>(Rng.uniformInt(2));
          break;
        case CostAlphabet::ZeroToThree:
          C = static_cast<int64_t>(Rng.uniformInt(4));
          break;
        case CostAlphabet::ZeroToForty:
          C = static_cast<int64_t>(Rng.uniformInt(41));
          break;
        case CostAlphabet::NearTwoTo40:
          C = Rng.bernoulli(0.3) ? 0
                                 : (int64_t(1) << 40) +
                                       static_cast<int64_t>(Rng.uniformInt(4));
          break;
        }
      }
    int64_t SupplyTotal = 0, DemandTotal = 0;
    for (size_t I = 0; I < N; ++I) {
      SupplyTotal += Supply[I];
      DemandTotal += Demand[I];
    }
    const int64_t M = std::min(SupplyTotal, DemandTotal);
    const int64_t Amount = Case.Amount == Request::All    ? M
                           : Case.Amount == Request::Part ? M / 3
                                                          : M + 1;
    onEveryTier([&] {
      TransportFlow Net(N, Cost.data());
      auto R = Net.solve(Supply, Demand, Amount);
      if (Case.Amount == Request::TooMuch) {
        EXPECT_FALSE(R.Feasible);
      }
      EXPECT_EQ(R.Feasible, R.FlowSent == Amount);
      EXPECT_EQ(flowBitsHash(Net, N, R), Case.Hash)
          << std::hex << "0x" << flowBitsHash(Net, N, R);
    });
  }
}

TEST(TransportFlowGoldenTest, MillionUnitBipartiteFlowIsFeasibleAndFrozen) {
  // Shape of the MarQSim MCFP: complete bipartite, small integer costs,
  // the whole scale routed.
  RNG Rng(62);
  const size_t N = 120;
  const int64_t Scale = 1'000'000;
  std::vector<int64_t> Units(N, Scale / static_cast<int64_t>(N));
  Units[0] += Scale % static_cast<int64_t>(N);
  std::vector<int64_t> Cost = zeroCosts(N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J)
        Cost[I * N + J] = static_cast<int64_t>(Rng.uniformInt(40));
  onEveryTier([&] {
    TransportFlow Net(N, Cost.data());
    auto R = Net.solve(Units, Units, Scale);
    EXPECT_TRUE(R.Feasible);
    EXPECT_EQ(flowBitsHash(Net, N, R), 0x1e9a5dc5059a9a73ULL)
        << std::hex << "0x" << flowBitsHash(Net, N, R);
  });
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

TEST(TransportFlowTest, RandomInstancesSatisfyOptimalityConditions) {
  // Checks the solver against the optimality certificate rather than a
  // known answer, so the test holds for any tie-breaking: capacities,
  // conservation, reported cost, a maximum flow when short, and no
  // negative residual cycle in the full S -> supplies -> demands -> T
  // network, rebuilt here as a plain edge list.
  RNG Rng(0xF10);
  for (int Trial = 0; Trial < 60; ++Trial) {
    SCOPED_TRACE(Trial);
    const size_t N = 2 + Rng.uniformInt(7);
    auto Capacity = [&] {
      return Rng.bernoulli(0.15) ? 0 : static_cast<int64_t>(Rng.uniformInt(9));
    };
    std::vector<int64_t> Supply(N), Demand(N);
    for (int64_t &C : Supply)
      C = Capacity();
    for (int64_t &C : Demand)
      C = Capacity();
    std::vector<int64_t> Cost = zeroCosts(N);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        if (I != J)
          Cost[I * N + J] = static_cast<int64_t>(Rng.uniformInt(7));
    const int64_t Amount = static_cast<int64_t>(Rng.uniformInt(40));

    TransportFlow Net(N, Cost.data());
    auto R = Net.solve(Supply, Demand, Amount);

    // Node layout: 0 = S, 1..N supplies, N+1..2N demands, 2N+1 = T.
    const size_t NumNodes = 2 * N + 2, Source = 0, Sink = 2 * N + 1;
    const int64_t Uncapacitated = int64_t(1) << 40;
    std::vector<TestEdge> Edges;
    std::vector<int64_t> Flow;
    std::vector<int64_t> RowSum(N, 0), ColSum(N, 0);
    int64_t TotalCost = 0;
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J) {
        const int64_t F = Net.flow(I, J);
        ASSERT_GE(F, 0);
        if (I == J) {
          EXPECT_EQ(F, 0) << "flow on the excluded diagonal";
          continue;
        }
        Edges.push_back({1 + I, 1 + N + J, Uncapacitated, Cost[I * N + J]});
        Flow.push_back(F);
        RowSum[I] += F;
        ColSum[J] += F;
        TotalCost += F * Cost[I * N + J];
      }
    int64_t Sent = 0;
    for (size_t I = 0; I < N; ++I) {
      EXPECT_LE(RowSum[I], Supply[I]);
      Edges.push_back({Source, 1 + I, Supply[I], 0});
      Flow.push_back(RowSum[I]);
      Sent += RowSum[I];
    }
    for (size_t J = 0; J < N; ++J) {
      EXPECT_LE(ColSum[J], Demand[J]);
      Edges.push_back({1 + N + J, Sink, Demand[J], 0});
      Flow.push_back(ColSum[J]);
    }
    EXPECT_EQ(Sent, R.FlowSent);
    EXPECT_LE(R.FlowSent, Amount);
    EXPECT_EQ(R.Feasible, R.FlowSent == Amount);
    // A short flow must be a maximum flow: no augmenting path remains.
    if (!R.Feasible) {
      EXPECT_FALSE(residualReaches(NumNodes, Edges, Flow, Source, Sink));
    }
    EXPECT_EQ(R.TotalCost, TotalCost);
    EXPECT_FALSE(residualHasNegativeCycle(NumNodes, Edges, Flow));
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
  // the solver's storage and the builders' cost tables may change, the
  // flows may not (cached .mat components depend on it), on any tier.
  Hamiltonian H =
      SimulationService::prepare(makeBenchmark(*findBenchmark("OH-")));
  onEveryTier([&] {
    TransitionMatrix Pgc = buildGateCancellation(H);
    RNG Rng(0x5EED);
    TransitionMatrix Prp = buildRandomPerturbation(H, 2, Rng);
    EXPECT_EQ(matrixBitsHash(Pgc), 0x98376d3c1ed176e3ULL);
    EXPECT_EQ(matrixBitsHash(Prp), 0xb37f6c52baa657a2ULL);
  });
}

TEST(FlowMatrixGoldenTest, LiHPgcAndPrpBitsAreFrozenAtEveryJobs) {
  // compile-lih's matrices, frozen from the arc-list solver this one
  // replaced. Prp(8) must not depend on how many rounds run at once, and
  // the caller's RNG must end where the serial path leaves it.
  Hamiltonian H =
      SimulationService::prepare(makeBenchmark(*findBenchmark("LiH")));
  EXPECT_EQ(matrixBitsHash(buildGateCancellation(H)), 0xa2a7e423091f9b27ULL);
  for (unsigned Jobs : {1u, 0u, 2u, 3u, 4u}) {
    SCOPED_TRACE(Jobs);
    RNG Rng(0x5EED);
    TransitionMatrix Prp = buildRandomPerturbation(H, 8, Rng, {}, Jobs);
    EXPECT_EQ(matrixBitsHash(Prp), 0x38adda5e2d05f6dfULL);
    EXPECT_EQ(Rng.next(), 0x9e1d9465a86a1fdcULL);
  }
}

TEST(FlowMatrixGoldenTest, LiHPgcAndPrpBitsAreFrozenOnEveryTier) {
  // The same LiH goldens with the row prefilter pinned to each tier, the
  // rounds spread over pool threads, which dispatch to the pinned tier too.
  Hamiltonian H =
      SimulationService::prepare(makeBenchmark(*findBenchmark("LiH")));
  onEveryTier([&] {
    EXPECT_EQ(matrixBitsHash(buildGateCancellation(H)),
              0xa2a7e423091f9b27ULL);
    RNG Rng(0x5EED);
    TransitionMatrix Prp = buildRandomPerturbation(H, 8, Rng, {}, 4);
    EXPECT_EQ(matrixBitsHash(Prp), 0x38adda5e2d05f6dfULL);
    EXPECT_EQ(Rng.next(), 0x9e1d9465a86a1fdcULL);
  });
}

namespace {

/// Prp as it was built before the cost view: per round, the same draws
/// from \p Rng, a materialized table CostScale * (CNOT count + bit), a
/// full Algorithm 2 solve of it (buildFromCostTable), and the dense round
/// added entry by entry in round order; then one division.
TransitionMatrix materializedPerturbation(const Hamiltonian &H,
                                          unsigned Rounds, RNG &Rng,
                                          const MCFPOptions &Opts) {
  const size_t N = H.numTerms();
  const std::vector<std::vector<unsigned>> Cnots = cnotCostTable(H);
  std::vector<std::vector<uint64_t>> Bits(
      Rounds, std::vector<uint64_t>((N * N + 63) / 64));
  for (std::vector<uint64_t> &Round : Bits)
    Rng.coinFlips(Round.data(), N * N);
  TransitionMatrix Sum(N);
  for (const std::vector<uint64_t> &Draws : Bits) {
    std::vector<std::vector<int64_t>> Cost(N, std::vector<int64_t>(N));
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J) {
        const size_t K = I * N + J;
        Cost[I][J] = Opts.CostScale * static_cast<int64_t>(Cnots[I][J]) +
                     ((Draws[K / 64] >> (K % 64)) & 1 ? Opts.CostScale : 0);
      }
    const TransitionMatrix P = buildFromCostTable(H, Cost, Opts);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        Sum.at(I, J) += P.at(I, J);
  }
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      Sum.at(I, J) /= Rounds;
  return Sum;
}

} // namespace

TEST(FlowMatrixGoldenTest, PerturbationEqualsMaterializedRoundsAtEveryJobs) {
  // buildRandomPerturbation solves every round over the cost view and sums
  // the rounds' bitset-ordered entries; the reference materializes each
  // round's table and adds every dense entry. Every bit of the average and
  // the caller's RNG state must agree, with fewer, as many and more
  // threads than rounds, on every tier.
  for (const char *Model : {"Na+", "OH-"}) {
    SCOPED_TRACE(Model);
    Hamiltonian H =
        SimulationService::prepare(makeBenchmark(*findBenchmark(Model)));
    const MCFPOptions Opts;
    RNG RefRng(0xD2A5);
    const TransitionMatrix Reference =
        materializedPerturbation(H, 5, RefRng, Opts);
    const uint64_t RefNext = RefRng.next();
    onEveryTier([&] {
      for (unsigned Jobs : {1u, 3u, 8u}) {
        SCOPED_TRACE(Jobs);
        RNG Rng(0xD2A5);
        const TransitionMatrix Prp =
            buildRandomPerturbation(H, 5, Rng, Opts, Jobs);
        EXPECT_EQ(matrixBitsHash(Prp), matrixBitsHash(Reference));
        EXPECT_EQ(Rng.next(), RefNext);
      }
    });
  }
}
