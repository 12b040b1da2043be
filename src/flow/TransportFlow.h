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
/// Algorithm. Primal-dual: each phase runs Dijkstra with Johnson
/// potentials to find the shortest S -> T distance, then a Dinic-style
/// blocking flow (BFS levels on the zero-reduced-cost admissible subgraph,
/// DFS with a current-arc position per node) saturates that subgraph at
/// once. With small integer costs the number of phases is bounded by the
/// number of distinct path costs. Each phase touches only what can matter:
///   - Dijkstra pops from a radix heap (monotone, no bound on key size)
///     and stops at the first key above Dist[T], so every tie at Dist[T]
///     is still settled. Every node then moves its potential by
///     min(Dist[V], Dist[T]).
///   - A settled supply I scans its row in two passes. A vector prefilter
///     (kernels::Ops::RowCandidatesI64, dispatched by CPU tier, scalar
///     under MARQSIM_KERNEL_TIER=scalar) compares each demand J's
///     candidate distance over the cost view (below; Scale added under
///     J's draw bit) with Dist[J], a block of lanes at a time, and
///     sets J's bit in a row mask when it is <= Dist[J]. The scalar body
///     then walks the set bits, J != I, in ascending J: it relaxes J
///     (Dist[J] and a heap push when strictly shorter) and records J in a
///     flat per-phase list (TightBegin/TightEnd[I]). The BFS and the DFS
///     walk only that list and recheck the exact zero-reduced-cost
///     condition.
///   - Why the prefilter keeps the arc order. The scan of row I writes
///     only Dist[J] while at J, so the Dist[J] the prefilter read before
///     the scan is the one a one-pass scan would meet at J. The mask is
///     therefore exactly the set of J the one-pass scan relaxes or
///     records, and the bit walk visits it in the same ascending order:
///     the heap receives the same pushes, the list the same entries. The
///     test is 64-bit integer arithmetic, so every tier sets the same bits.
///   - Each demand keeps the list of its positive inflows (below); the
///     reverse-arc scans walk that list.
///
/// Why the flows equal a full scan's. Settled nodes end with potential =
/// true distance, as a Dijkstra run to exhaustion gives them. A node
/// farther than T gets Dist[T] in place of its distance, so an arc into it
/// has positive reduced cost. With its true distance the node could be
/// admissible, but distances never fall along an admissible path, so it
/// cannot reach T and would be a dead end for the DFS. Every S -> T
/// shortest path, its arcs and its BFS levels are the same either way.
/// The final Dist of a demand only falls after a supply's scan, so the
/// supply's list is a superset of its admissible arcs, kept in ascending
/// J; each demand's inflow list holds exactly its arcs with flow > 0, in
/// ascending I. The BFS and the DFS therefore meet the same admissible
/// arcs in the same order. Which of equal keys the heap pops first
/// changes nothing: the distances are exact, and the lists only need to
/// be supersets.
///
/// Costs. A solve reads every arc cost through one view, cost(I, J) =
/// Base[I * N + J] + bit(I * N + J) * Scale: \p Base is the caller's
/// row-major N x N table, read in place (the diagonal is ignored), and
/// bit K is bit K % 64 of the caller's draw word K / 64. A random-
/// perturbation round (core/TransitionBuilders.h) passes the shared
/// CNOT table and its own draws, so no caller writes a perturbed table
/// per round; an unperturbed solve passes no draws and reads Base as is
/// (the view then runs with Scale 0, so its bits are never used, and
/// takes them from Base's own words rather than allocating a zero set).
/// The constructor checks that every off-diagonal cost of the view fits
/// an int64, so a solve over the view reads exactly the costs of the
/// materialized table Base + bit * Scale and gives its flow bits.
///
/// Storage. An optimal transportation flow has at most about 2N positive
/// middle arcs, so the flows are sparse: each demand J keeps one list of
/// (supply I, flow) pairs with flow > 0, sorted by I. An arc that drains
/// to zero leaves its list and re-enters it, in place, if flow returns.
/// flow(I, J), forEachFlow() and the reverse-arc scans all read these
/// lists. Arcs are implicit: besides the borrowed cost view a solve holds
/// the lists, the per-phase arc list (at most N x N uint32 entries; on
/// LiH about 24 of 614 per supply) and O(N) vectors; no N x N table is
/// allocated, and the uncapacitated middle arcs are never read for a
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
  /// Wraps the cost view Base[I * N + J] + bit(I * N + J) * \p Scale over
  /// the row-major \p N x \p N table \p Base and the ceil(N * N / 64)
  /// words \p Draws (null: no bit is set), both of which must outlive the
  /// solver. Throws std::invalid_argument for a negative \p Scale, naming
  /// the first negative off-diagonal entry of \p Base, or when an
  /// off-diagonal cost plus \p Scale overflows int64.
  TransportFlow(size_t N, const int64_t *Base,
                const uint64_t *Draws = nullptr, int64_t Scale = 0);

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
  int64_t flow(size_t I, size_t J) const;

  /// Calls Visit(I, J, flow(I, J)) for every positive flow, demand J
  /// ascending and supply I ascending within it (valid after solve()).
  template <class VisitFn> void forEachFlow(VisitFn &&Visit) const {
    for (size_t J = 0; J < N; ++J)
      for (const Inflow &E : Inflows[J])
        Visit(static_cast<size_t>(E.Supply), J, E.Flow);
  }

private:
  // Node numbering: 0 = S, 1..N = supplies, N+1..2N = demands, 2N+1 = T.
  uint32_t supplyNode(size_t I) const { return static_cast<uint32_t>(1 + I); }
  uint32_t demandNode(size_t J) const {
    return static_cast<uint32_t>(1 + N + J);
  }
  uint32_t sinkNode() const { return static_cast<uint32_t>(2 * N + 1); }

  /// The arc cost of the view (see the file comment).
  int64_t cost(size_t I, size_t J) const {
    const size_t K = I * N + J;
    const uint64_t Drawn = (Draws[K / 64] >> (K % 64)) & 1;
    return static_cast<int64_t>(static_cast<uint64_t>(BaseCost[K]) +
                                (static_cast<uint64_t>(Scale) & -Drawn));
  }

  /// A positive flow into a demand from supply Supply.
  struct Inflow {
    uint32_t Supply;
    int64_t Flow;
  };
  using InflowList = std::vector<Inflow>;

  bool dijkstra();
  int64_t blockingFlow(int64_t Limit);
  int64_t dfsPush(uint32_t V, int64_t Limit);
  /// The position of the first entry of \p List whose supply is >= \p From
  /// (List.size() if none).
  static size_t firstFrom(const InflowList &List, uint32_t From);
  /// The first supply I >= From with positive flow into demand J, or N.
  uint32_t nextPositiveFlow(size_t J, uint32_t From) const;

  /// Monotone min-queue of (distance, node): every push is >= the last
  /// pop. Bucket 0 holds keys equal to Last, bucket B > 0 keys whose
  /// highest bit differing from Last is bit B - 1.
  class RadixHeap {
  public:
    void clear();
    bool empty() const { return Size == 0; }
    void push(uint64_t Key, uint32_t Node);
    /// Removes and returns an entry of minimum key.
    std::pair<uint64_t, uint32_t> pop();

  private:
    size_t bucketOf(uint64_t Key) const;
    uint64_t Last = 0;
    size_t Size = 0;
    std::vector<std::pair<uint64_t, uint32_t>> Buckets[65];
  };

  size_t N;
  const int64_t *BaseCost;
  const uint64_t *Draws;
  int64_t Scale;
  size_t RowWords;                 // 64-bit words per N-bit row mask
  std::vector<InflowList> Inflows; // per demand: positive flows, by supply
  std::vector<int64_t> SupplyCap, SupplyFlow; // arcs S -> I
  std::vector<int64_t> DemandCap, DemandFlow; // arcs J -> T

  std::vector<int64_t> Potential; // per node
  std::vector<int64_t> Dist;
  RadixHeap Heap;
  std::vector<uint64_t> RowMask; // the settled supply's prefilter bits
  // This phase's candidate admissible arcs: supply I's demands are
  // Tight[TightBegin[I] .. TightEnd[I]), ascending.
  std::vector<uint32_t> Tight, TightBegin, TightEnd;
  std::vector<int32_t> Level;
  std::vector<uint32_t> Queue;
  // Next arc to try per node: the supply index for S, the position in
  // Tight for a supply, the supply index (N = the arc to T) for a demand.
  std::vector<uint32_t> CurrentArc;
};

} // namespace marqsim

#endif // MARQSIM_FLOW_TRANSPORTFLOW_H
