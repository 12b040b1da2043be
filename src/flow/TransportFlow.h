//===- flow/TransportFlow.h - Min-cost transportation solver ----*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact minimum-cost flow solver for the one network MarQSim builds.
///
/// MarQSim turns transition-matrix tuning into a Min-Cost Flow Problem
/// (paper Section 5); this solver is the engine behind Algorithm 2. The
/// network is a transportation problem: a source S feeds N supply nodes
/// (capacity Supply[I]), every supply I ships to every demand J != I over
/// an uncapacitated arc of cost Cost[I][J], and each demand J drains into
/// the sink T (capacity Demand[J]).
///
/// The algorithm is primal-dual: repeated Dijkstra with Johnson potentials
/// finds the current shortest-path distance, then a Dinic-style blocking
/// flow (BFS levels on the zero-reduced-cost admissible subgraph, DFS with
/// a current-arc pointer per node) saturates that subgraph at once. With
/// small integer costs the number of phases is bounded by the number of
/// distinct path costs, which keeps 1000-term instances fast.
///
/// Storage. The N x N cost table is the caller's, row-major and read in
/// place (the diagonal is ignored). The middle flows are one column-major
/// N x N int64 table, so the residual arcs of a demand node are one
/// contiguous column. Arcs are implicit: a solve holds the flow table plus
/// O(N) vectors, and the uncapacitated middle arcs are never read for a
/// residual.
///
/// Arc order. Each node scans its residual arcs in one fixed order, and the
/// blocking flow's tie-breaking, so every bit of the flows, follows it:
///   - S: supplies 0..N-1;
///   - supply I: the reverse arc to S, then demands J != I ascending;
///   - demand J: reverse arcs to supplies I != J ascending, then T;
///   - T: reverse arcs to demands ascending.
/// The frozen Pgc/Prp goldens were produced in exactly this order.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_FLOW_TRANSPORTFLOW_H
#define MARQSIM_FLOW_TRANSPORTFLOW_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace marqsim {

/// The transportation network S -> supplies -> demands (J != I) -> T.
class TransportFlow {
public:
  /// Wraps the row-major \p N x \p N table \p Cost, which must outlive the
  /// solver. Throws std::invalid_argument naming the first negative
  /// off-diagonal entry, if any.
  TransportFlow(size_t N, const int64_t *Cost);

  /// Outcome of a solve() call.
  struct Result {
    /// Amount of flow actually routed (== requested iff Feasible).
    int64_t FlowSent = 0;
    /// Total cost sum f_ij * Cost[i][j] of the routed flow.
    int64_t TotalCost = 0;
    /// True if the full requested amount was routed.
    bool Feasible = false;
  };

  /// Routes up to \p Amount units from S to T at minimum cost, with at
  /// most Supply[I] units leaving supply I and at most Demand[J] entering
  /// demand J (all >= 0).
  Result solve(const std::vector<int64_t> &Supply,
               const std::vector<int64_t> &Demand, int64_t Amount);

  /// Flow shipped from supply \p I to demand \p J (valid after solve()).
  int64_t flow(size_t I, size_t J) const { return Flow[J * N + I]; }

private:
  // Node numbering: 0 = S, 1..N = supplies, N+1..2N = demands, 2N+1 = T.
  uint32_t supplyNode(size_t I) const { return static_cast<uint32_t>(1 + I); }
  uint32_t demandNode(size_t J) const {
    return static_cast<uint32_t>(1 + N + J);
  }
  uint32_t sinkNode() const { return static_cast<uint32_t>(2 * N + 1); }

  bool dijkstra();
  int64_t blockingFlow(int64_t Limit);
  int64_t dfsPush(uint32_t V, int64_t Limit);

  size_t N;
  const int64_t *Cost;
  std::vector<int64_t> Flow; // column-major: Flow[J * N + I] ships I -> J
  std::vector<int64_t> SupplyCap, SupplyFlow; // arcs S -> I
  std::vector<int64_t> DemandCap, DemandFlow; // arcs J -> T

  std::vector<int64_t> Potential; // per node
  std::vector<int64_t> Dist;
  std::vector<std::pair<int64_t, uint32_t>> Heap;
  std::vector<int32_t> Level;
  std::vector<uint32_t> Queue;
  // Next arc to try per node: the supply index for S, the demand index for
  // a supply, the supply index (N = the arc to T) for a demand.
  std::vector<uint32_t> CurrentArc;
};

} // namespace marqsim

#endif // MARQSIM_FLOW_TRANSPORTFLOW_H
