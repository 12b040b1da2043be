//===- flow/TransportFlow.cpp - Min-cost transportation solver -------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "flow/TransportFlow.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

using namespace marqsim;

static constexpr int64_t kInfDist = std::numeric_limits<int64_t>::max() / 4;

TransportFlow::TransportFlow(size_t N, const int64_t *Cost)
    : N(N), Cost(Cost) {
  assert(2 * N + 2 <= std::numeric_limits<uint32_t>::max() &&
         "too many nodes for 32-bit node indices");
  // Zero start potentials are valid only for non-negative costs.
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J && Cost[I * N + J] < 0)
        throw std::invalid_argument(
            "transport flow: negative cost " +
            std::to_string(Cost[I * N + J]) + " on arc " + std::to_string(I) +
            " -> " + std::to_string(J));
}

// Every scan below visits a node's residual arcs in the order the header
// fixes. The reverse arc supply I -> S is left out of all three: S is the
// source, so Dijkstra cannot shorten Dist[S] = 0, BFS has already levelled
// it, and the DFS never steps back to level 0.

bool TransportFlow::dijkstra() {
  const uint32_t T = sinkNode();
  Dist.assign(Potential.size(), kInfDist);
  Dist[0] = 0;
  Heap.clear();
  Heap.push_back({0, 0});
  using Item = std::pair<int64_t, uint32_t>;
  auto Relax = [&](uint32_t To, int64_t Cand) {
    if (Cand < Dist[To]) {
      Dist[To] = Cand;
      Heap.push_back({Cand, To});
      std::push_heap(Heap.begin(), Heap.end(), std::greater<Item>());
    }
  };
  // Each candidate is D + (arc cost + Potential[V] - Potential[To]), the
  // arc's non-negative reduced cost added to V's distance.
  while (!Heap.empty()) {
    std::pop_heap(Heap.begin(), Heap.end(), std::greater<Item>());
    const auto [D, V] = Heap.back();
    Heap.pop_back();
    if (D > Dist[V])
      continue;
    const int64_t Base = D + Potential[V];
    if (V == 0) {
      for (size_t I = 0; I < N; ++I)
        if (SupplyCap[I] > SupplyFlow[I])
          Relax(supplyNode(I), Base - Potential[supplyNode(I)]);
    } else if (V <= N) {
      const size_t I = V - 1;
      const int64_t *Row = Cost + I * N;
      const int64_t *DemandPot = &Potential[demandNode(0)];
      for (size_t J = 0; J < N; ++J)
        if (J != I)
          Relax(demandNode(J), Base + Row[J] - DemandPot[J]);
    } else if (V < T) {
      const size_t J = V - 1 - N;
      const int64_t *Col = &Flow[J * N];
      for (size_t I = 0; I < N; ++I)
        if (Col[I] > 0)
          Relax(supplyNode(I),
                Base - Cost[I * N + J] - Potential[supplyNode(I)]);
      if (DemandCap[J] > DemandFlow[J])
        Relax(T, Base - Potential[T]);
    } else {
      for (size_t J = 0; J < N; ++J)
        if (DemandFlow[J] > 0)
          Relax(demandNode(J), Base - Potential[demandNode(J)]);
    }
  }
  if (Dist[T] >= kInfDist)
    return false;
  // Fold distances into the potentials; unreachable nodes move by the sink
  // distance so future reduced costs stay non-negative.
  for (size_t V = 0; V < Potential.size(); ++V)
    Potential[V] += Dist[V] < kInfDist ? Dist[V] : Dist[T];
  return true;
}

int64_t TransportFlow::dfsPush(uint32_t V, int64_t Limit) {
  const uint32_t T = sinkNode();
  if (V == T || Limit == 0)
    return Limit;
  const int32_t Next = Level[V] + 1;
  int64_t Pushed = 0;
  // An arc is admissible when it has residual, climbs one level, and has
  // zero reduced cost.
  auto Admissible = [&](uint32_t To, int64_t ArcCost) {
    return Level[To] == Next && ArcCost + Potential[V] - Potential[To] == 0;
  };
  if (V == 0) {
    for (uint32_t &I = CurrentArc[V]; I < N; ++I) {
      const int64_t Residual = SupplyCap[I] - SupplyFlow[I];
      if (Residual <= 0 || !Admissible(supplyNode(I), 0))
        continue;
      int64_t Sub = dfsPush(supplyNode(I), std::min(Limit - Pushed, Residual));
      if (Sub > 0) {
        SupplyFlow[I] += Sub;
        Pushed += Sub;
        if (Pushed == Limit)
          return Pushed;
      }
    }
  } else if (V <= N) {
    const size_t I = V - 1;
    const int64_t *Row = Cost + I * N;
    for (uint32_t &J = CurrentArc[V]; J < N; ++J) {
      if (J == I || !Admissible(demandNode(J), Row[J]))
        continue;
      int64_t Sub = dfsPush(demandNode(J), Limit - Pushed); // uncapacitated
      if (Sub > 0) {
        Flow[J * N + I] += Sub;
        Pushed += Sub;
        if (Pushed == Limit)
          return Pushed;
      }
    }
  } else {
    const size_t J = V - 1 - N;
    for (uint32_t &A = CurrentArc[V]; A <= N; ++A) {
      if (A < N) { // reverse arc to supply A
        const int64_t Residual = Flow[J * N + A];
        if (Residual <= 0 || !Admissible(supplyNode(A), -Cost[A * N + J]))
          continue;
        int64_t Sub =
            dfsPush(supplyNode(A), std::min(Limit - Pushed, Residual));
        if (Sub > 0) {
          Flow[J * N + A] -= Sub;
          Pushed += Sub;
          if (Pushed == Limit)
            return Pushed;
        }
      } else { // the arc to T
        const int64_t Residual = DemandCap[J] - DemandFlow[J];
        if (Residual <= 0 || !Admissible(T, 0))
          continue;
        int64_t Sub = dfsPush(T, std::min(Limit - Pushed, Residual));
        if (Sub > 0) {
          DemandFlow[J] += Sub;
          Pushed += Sub;
          if (Pushed == Limit)
            return Pushed;
        }
      }
    }
  }
  // Dead end: prevent revisiting this vertex within the phase.
  Level[V] = -1;
  return Pushed;
}

int64_t TransportFlow::blockingFlow(int64_t Limit) {
  // BFS levels restricted to the admissible (zero-reduced-cost) subgraph,
  // which prevents the DFS from walking zero-cost residual cycles. The
  // search stops once T has a level L: every node below L is levelled by
  // then, and a node at level L or beyond cannot reach T in the DFS, so
  // leaving it unlevelled changes no flow, only the dead ends visited.
  const uint32_t T = sinkNode();
  Level.assign(Potential.size(), -1);
  Queue.clear();
  Level[0] = 0;
  Queue.push_back(0);
  for (size_t Head = 0; Head < Queue.size() && Level[T] < 0; ++Head) {
    const uint32_t V = Queue[Head];
    auto Visit = [&](uint32_t To, int64_t ArcCost) {
      if (Level[To] < 0 && ArcCost + Potential[V] - Potential[To] == 0) {
        Level[To] = Level[V] + 1;
        Queue.push_back(To);
      }
    };
    if (V == 0) {
      for (size_t I = 0; I < N; ++I)
        if (SupplyCap[I] > SupplyFlow[I])
          Visit(supplyNode(I), 0);
    } else if (V <= N) {
      const size_t I = V - 1;
      const int64_t *Row = Cost + I * N;
      for (size_t J = 0; J < N; ++J)
        if (J != I)
          Visit(demandNode(J), Row[J]);
    } else { // a demand node: T ends the search before it is dequeued
      const size_t J = V - 1 - N;
      const int64_t *Col = &Flow[J * N];
      for (size_t I = 0; I < N; ++I)
        if (Col[I] > 0)
          Visit(supplyNode(I), -Cost[I * N + J]);
      if (DemandCap[J] > DemandFlow[J])
        Visit(T, 0);
    }
  }
  if (Level[T] < 0)
    return 0;
  std::fill(CurrentArc.begin(), CurrentArc.end(), 0);
  return dfsPush(0, Limit);
}

TransportFlow::Result TransportFlow::solve(const std::vector<int64_t> &Supply,
                                           const std::vector<int64_t> &Demand,
                                           int64_t Amount) {
  assert(Supply.size() == N && Demand.size() == N && "capacity size");
  assert(Amount >= 0 && "negative flow request");
  SupplyCap = Supply;
  DemandCap = Demand;
  assert(std::all_of(Supply.begin(), Supply.end(),
                     [](int64_t C) { return C >= 0; }) &&
         std::all_of(Demand.begin(), Demand.end(),
                     [](int64_t C) { return C >= 0; }) &&
         "negative capacity");
  SupplyFlow.assign(N, 0);
  DemandFlow.assign(N, 0);
  Flow.assign(N * N, 0);
  Potential.assign(2 * N + 2, 0);
  CurrentArc.assign(2 * N + 2, 0);

  Result R;
  while (R.FlowSent < Amount) {
    if (!dijkstra())
      break;
    int64_t Pushed = blockingFlow(Amount - R.FlowSent);
    if (Pushed == 0)
      break;
    R.FlowSent += Pushed;
  }
  R.Feasible = R.FlowSent == Amount;
  for (size_t J = 0; J < N; ++J)
    for (size_t I = 0; I < N; ++I)
      R.TotalCost += Flow[J * N + I] * Cost[I * N + J];
  return R;
}
