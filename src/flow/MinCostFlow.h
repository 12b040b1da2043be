//===- flow/MinCostFlow.h - Minimum-cost flow solver ------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact minimum-cost flow solver over integer capacities and costs.
///
/// MarQSim turns transition-matrix tuning into a Min-Cost Flow Problem
/// (paper Section 5); this solver is the engine behind Algorithm 2. The
/// algorithm is primal-dual: repeated Dijkstra with Johnson potentials
/// finds the current shortest-path distance, then a Dinic-style blocking
/// flow saturates the entire zero-reduced-cost admissible subgraph at once.
/// For the paper's transportation-shaped networks (complete bipartite with
/// small integer costs) the number of phases is bounded by the number of
/// distinct cost values, which keeps 1000-term instances fast.
///
/// Capacities and costs are int64; callers quantize probabilities
/// (see core/TransitionBuilders) so feasibility and optimality are exact.
///
/// Arc layout. addEdge() only records the edge; solve() then lays the
/// residual arcs out contiguously per node (CSR style: ArcBegin offsets
/// into parallel ArcTo / ArcCost / ArcResidual / ArcPartner arrays). Edge k
/// gives its forward arc to its tail and its reverse arc to its head, in
/// insertion order, so each node scans its arcs in the order the edges
/// were added. Every Dijkstra, BFS and DFS pass is a scan over one node's
/// arcs; with the arcs adjacent in memory those scans stream, where an
/// interleaved forward/reverse edge list made a node with many incoming
/// edges (a Next node of the MarQSim network) miss the cache on every arc.
/// The reverse arc's residual starts at zero and always equals the flow on
/// its edge, which is what flowOnEdge() reads.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_FLOW_MINCOSTFLOW_H
#define MARQSIM_FLOW_MINCOSTFLOW_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace marqsim {

/// A directed flow network with integer capacities and costs.
class MinCostFlow {
public:
  /// Effectively unbounded capacity for edges without a cap.
  static constexpr int64_t kInfiniteCapacity = int64_t(1) << 60;

  explicit MinCostFlow(size_t NumNodes);

  size_t numNodes() const { return NumNodes; }
  size_t numEdges() const { return NumEdges; }

  /// Adds a directed edge and returns its id (for flowOnEdge).
  /// Requires Capacity >= 0.
  size_t addEdge(size_t From, size_t To, int64_t Capacity, int64_t Cost);

  /// Outcome of a solve() call.
  struct Result {
    /// Amount of flow actually routed (== requested iff Feasible).
    int64_t FlowSent = 0;
    /// Total cost sum f(e) * w(e) of the routed flow.
    int64_t TotalCost = 0;
    /// True if the full requested amount was routed.
    bool Feasible = false;
  };

  /// Routes up to \p Amount units from \p Source to \p Sink at minimum
  /// cost. May be called once per network instance.
  Result solve(size_t Source, size_t Sink, int64_t Amount);

  /// Flow routed through edge \p EdgeId (valid after solve()).
  int64_t flowOnEdge(size_t EdgeId) const;

private:
  /// An edge recorded by addEdge() and not yet laid out as arcs.
  struct PendingEdge {
    uint32_t From;
    uint32_t To;
    int64_t Capacity;
    int64_t Cost;
  };

  void buildArcs();
  bool dijkstra(size_t Source, size_t Sink);
  int64_t blockingFlow(size_t Source, size_t Sink, int64_t Limit);
  int64_t dfsPush(size_t V, size_t Sink, int64_t Limit);

  size_t NumNodes;
  size_t NumEdges = 0;
  std::vector<PendingEdge> Pending; // freed by buildArcs()

  // Residual arcs of node V: indices ArcBegin[V] .. ArcBegin[V + 1].
  std::vector<uint32_t> ArcBegin;
  std::vector<uint32_t> ArcTo;
  std::vector<int64_t> ArcCost;
  std::vector<int64_t> ArcResidual;
  std::vector<uint32_t> ArcPartner; // the opposite arc of the same edge
  std::vector<uint32_t> ReverseArc; // per edge id

  std::vector<int64_t> Potential;
  std::vector<int64_t> Dist;
  std::vector<int32_t> Level;
  std::vector<uint32_t> CurrentArc;
  bool Solved = false;
};

} // namespace marqsim

#endif // MARQSIM_FLOW_MINCOSTFLOW_H
