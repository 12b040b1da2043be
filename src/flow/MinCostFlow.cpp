//===- flow/MinCostFlow.cpp - Minimum-cost flow solver ----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "flow/MinCostFlow.h"

#include <cassert>
#include <limits>
#include <queue>

using namespace marqsim;

static constexpr int64_t kInfDist = std::numeric_limits<int64_t>::max() / 4;

MinCostFlow::MinCostFlow(size_t NumNodes) : NumNodes(NumNodes) {}

size_t MinCostFlow::addEdge(size_t From, size_t To, int64_t Capacity,
                            int64_t Cost) {
  assert(From < NumNodes && To < NumNodes && "edge endpoint out of range");
  assert(Capacity >= 0 && "negative capacity");
  assert(!Solved && "network already solved");
  Pending.push_back({static_cast<uint32_t>(From), static_cast<uint32_t>(To),
                     Capacity, Cost});
  return NumEdges++;
}

void MinCostFlow::buildArcs() {
  assert(2 * NumEdges <= std::numeric_limits<uint32_t>::max() &&
         "too many arcs for 32-bit arc indices");
  // Counting pass: every edge owns one arc at each endpoint.
  ArcBegin.assign(NumNodes + 1, 0);
  for (const PendingEdge &E : Pending) {
    ++ArcBegin[E.From + 1];
    ++ArcBegin[E.To + 1];
  }
  for (size_t V = 0; V < NumNodes; ++V)
    ArcBegin[V + 1] += ArcBegin[V];

  const size_t NumArcs = 2 * NumEdges;
  ArcTo.resize(NumArcs);
  ArcCost.resize(NumArcs);
  ArcResidual.resize(NumArcs);
  ArcPartner.resize(NumArcs);
  ReverseArc.resize(NumEdges);
  // Placing edges in insertion order keeps each node's arcs in the order
  // the edges were added (a self-loop's forward arc precedes its reverse).
  std::vector<uint32_t> Cursor(ArcBegin.begin(), ArcBegin.end() - 1);
  for (size_t K = 0; K < NumEdges; ++K) {
    const PendingEdge &E = Pending[K];
    uint32_t Fwd = Cursor[E.From]++;
    uint32_t Rev = Cursor[E.To]++;
    ArcTo[Fwd] = E.To;
    ArcCost[Fwd] = E.Cost;
    ArcResidual[Fwd] = E.Capacity;
    ArcPartner[Fwd] = Rev;
    ArcTo[Rev] = E.From;
    ArcCost[Rev] = -E.Cost;
    ArcResidual[Rev] = 0;
    ArcPartner[Rev] = Fwd;
    ReverseArc[K] = Rev;
  }
  Pending = {};
}

bool MinCostFlow::dijkstra(size_t Source, size_t Sink) {
  Dist.assign(NumNodes, kInfDist);
  Dist[Source] = 0;
  using Item = std::pair<int64_t, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> Queue;
  Queue.push({0, static_cast<uint32_t>(Source)});
  while (!Queue.empty()) {
    auto [D, V] = Queue.top();
    Queue.pop();
    if (D > Dist[V])
      continue;
    for (uint32_t A = ArcBegin[V], End = ArcBegin[V + 1]; A < End; ++A) {
      if (ArcResidual[A] <= 0)
        continue;
      uint32_t To = ArcTo[A];
      int64_t Reduced = ArcCost[A] + Potential[V] - Potential[To];
      assert(Reduced >= 0 && "negative reduced cost in Dijkstra");
      int64_t Cand = D + Reduced;
      if (Cand < Dist[To]) {
        Dist[To] = Cand;
        Queue.push({Cand, To});
      }
    }
  }
  if (Dist[Sink] >= kInfDist)
    return false;
  // Fold distances into the potentials; unreachable nodes move by the sink
  // distance so future reduced costs stay non-negative.
  for (size_t V = 0; V < NumNodes; ++V)
    Potential[V] += Dist[V] < kInfDist ? Dist[V] : Dist[Sink];
  return true;
}

int64_t MinCostFlow::dfsPush(size_t V, size_t Sink, int64_t Limit) {
  if (V == Sink || Limit == 0)
    return Limit;
  int64_t Pushed = 0;
  const uint32_t End = ArcBegin[V + 1];
  for (uint32_t &A = CurrentArc[V]; A < End; ++A) {
    if (ArcResidual[A] <= 0)
      continue;
    uint32_t To = ArcTo[A];
    if (Level[To] != Level[V] + 1)
      continue;
    if (ArcCost[A] + Potential[V] - Potential[To] != 0)
      continue;
    int64_t Sub = dfsPush(To, Sink, std::min(Limit - Pushed, ArcResidual[A]));
    if (Sub > 0) {
      ArcResidual[A] -= Sub;
      ArcResidual[ArcPartner[A]] += Sub;
      Pushed += Sub;
      if (Pushed == Limit)
        return Pushed;
    }
  }
  // Dead end: prevent revisiting this vertex within the phase.
  Level[V] = -1;
  return Pushed;
}

int64_t MinCostFlow::blockingFlow(size_t Source, size_t Sink, int64_t Limit) {
  // BFS levels restricted to the admissible (zero-reduced-cost) subgraph,
  // which prevents the DFS from walking zero-cost residual cycles.
  Level.assign(NumNodes, -1);
  std::queue<uint32_t> Queue;
  Level[Source] = 0;
  Queue.push(static_cast<uint32_t>(Source));
  while (!Queue.empty()) {
    uint32_t V = Queue.front();
    Queue.pop();
    for (uint32_t A = ArcBegin[V], End = ArcBegin[V + 1]; A < End; ++A) {
      if (ArcResidual[A] <= 0)
        continue;
      uint32_t To = ArcTo[A];
      if (Level[To] >= 0)
        continue;
      if (ArcCost[A] + Potential[V] - Potential[To] != 0)
        continue;
      Level[To] = Level[V] + 1;
      Queue.push(To);
    }
  }
  if (Level[Sink] < 0)
    return 0;
  CurrentArc.assign(ArcBegin.begin(), ArcBegin.end() - 1);
  return dfsPush(Source, Sink, Limit);
}

MinCostFlow::Result MinCostFlow::solve(size_t Source, size_t Sink,
                                       int64_t Amount) {
  assert(Source < NumNodes && Sink < NumNodes && "terminal out of range");
  assert(Source != Sink && "source equals sink");
  assert(Amount >= 0 && "negative flow request");
  assert(!Solved && "network already solved");
  Solved = true;
  buildArcs();

  Potential.assign(NumNodes, 0);
  // Bellman-Ford initialization is only needed when negative costs exist.
  bool HasNegative = false;
  for (size_t A = 0; A < ArcCost.size(); ++A)
    if (ArcCost[A] < 0 && ArcResidual[A] > 0)
      HasNegative = true;
  if (HasNegative) {
    for (size_t Iter = 0; Iter + 1 < NumNodes; ++Iter) {
      bool Any = false;
      for (size_t V = 0; V < NumNodes; ++V) {
        if (Potential[V] >= kInfDist)
          continue;
        for (uint32_t A = ArcBegin[V], End = ArcBegin[V + 1]; A < End; ++A) {
          if (ArcResidual[A] <= 0)
            continue;
          if (Potential[V] + ArcCost[A] < Potential[ArcTo[A]]) {
            Potential[ArcTo[A]] = Potential[V] + ArcCost[A];
            Any = true;
          }
        }
      }
      if (!Any)
        break;
    }
  }

  Result R;
  while (R.FlowSent < Amount) {
    if (!dijkstra(Source, Sink))
      break;
    int64_t Pushed = blockingFlow(Source, Sink, Amount - R.FlowSent);
    if (Pushed == 0)
      break;
    R.FlowSent += Pushed;
  }
  R.Feasible = R.FlowSent == Amount;

  // Total cost from the flow on each edge; its reverse arc costs -w(e).
  for (uint32_t Rev : ReverseArc)
    R.TotalCost -= ArcResidual[Rev] * ArcCost[Rev];
  return R;
}

int64_t MinCostFlow::flowOnEdge(size_t EdgeId) const {
  assert(Solved && "flow read before solve()");
  assert(EdgeId < NumEdges && "edge id out of range");
  return ArcResidual[ReverseArc[EdgeId]];
}
