//===- flow/TransportFlow.cpp - Min-cost transportation solver -------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "flow/TransportFlow.h"

#include "sim/Kernels.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

using namespace marqsim;

static constexpr int64_t kInfDist = std::numeric_limits<int64_t>::max() / 4;

TransportFlow::TransportFlow(size_t N, const int64_t *Base,
                             const uint64_t *Draws, int64_t Scale)
    // With no draws the view adds nothing: Scale 0 masks every bit, so the
    // bits may come from any ceil(N * N / 64) readable words. Base has
    // N * N of them, and uint64_t may alias its int64_t entries.
    : N(N), BaseCost(Base),
      Draws(Draws ? Draws : reinterpret_cast<const uint64_t *>(Base)),
      Scale(Draws ? Scale : 0), RowWords((N + 63) / 64), Inflows(N) {
  assert(2 * N + 2 <= std::numeric_limits<uint32_t>::max() &&
         "too many nodes for 32-bit node indices");
  assert(N * N <= std::numeric_limits<uint32_t>::max() &&
         "too many arcs for 32-bit arc-list offsets");
  if (Scale < 0)
    throw std::invalid_argument("transport flow: negative perturbation " +
                                std::to_string(Scale));
  // Zero start potentials are valid only for non-negative costs, and every
  // cost of the view must be an int64.
  const int64_t MaxBase = std::numeric_limits<int64_t>::max() - Scale;
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      const int64_t C = Base[I * N + J];
      if (I == J || (C >= 0 && C <= MaxBase))
        continue;
      throw std::invalid_argument(
          "transport flow: " +
          std::string(C < 0 ? "negative cost " : "cost overflow at ") +
          std::to_string(C) + " on arc " + std::to_string(I) + " -> " +
          std::to_string(J));
    }
}

void TransportFlow::RadixHeap::clear() {
  for (auto &Bucket : Buckets)
    Bucket.clear();
  Last = 0;
  Size = 0;
}

size_t TransportFlow::RadixHeap::bucketOf(uint64_t Key) const {
  return Key == Last ? 0
                     : 64 - static_cast<size_t>(__builtin_clzll(Key ^ Last));
}

void TransportFlow::RadixHeap::push(uint64_t Key, uint32_t Node) {
  assert(Key >= Last && "radix heap keys must not fall below the last pop");
  Buckets[bucketOf(Key)].push_back({Key, Node});
  ++Size;
}

std::pair<uint64_t, uint32_t> TransportFlow::RadixHeap::pop() {
  assert(Size > 0 && "pop from an empty radix heap");
  if (Buckets[0].empty()) {
    // Move the first non-empty bucket's minimum to Last; every entry of
    // that bucket then differs from Last in a lower bit, so it lands in a
    // lower bucket, the minimum itself in bucket 0.
    size_t B = 1;
    while (Buckets[B].empty())
      ++B;
    Last = std::min_element(Buckets[B].begin(), Buckets[B].end())->first;
    for (const auto &Entry : Buckets[B])
      Buckets[bucketOf(Entry.first)].push_back(Entry);
    Buckets[B].clear();
  }
  const std::pair<uint64_t, uint32_t> Top = Buckets[0].back();
  Buckets[0].pop_back();
  --Size;
  return Top;
}

size_t TransportFlow::firstFrom(const InflowList &List, uint32_t From) {
  auto Below = [](const Inflow &E, uint32_t S) { return E.Supply < S; };
  return static_cast<size_t>(
      std::lower_bound(List.begin(), List.end(), From, Below) - List.begin());
}

uint32_t TransportFlow::nextPositiveFlow(size_t J, uint32_t From) const {
  const InflowList &List = Inflows[J];
  const size_t P = firstFrom(List, From);
  return P == List.size() ? static_cast<uint32_t>(N) : List[P].Supply;
}

int64_t TransportFlow::flow(size_t I, size_t J) const {
  const InflowList &List = Inflows[J];
  const size_t P = firstFrom(List, static_cast<uint32_t>(I));
  return P < List.size() && List[P].Supply == I ? List[P].Flow : 0;
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
  Heap.push(0, 0);
  Tight.clear();
  TightBegin.assign(N, 0);
  TightEnd.assign(N, 0);
  const auto RowCandidates = kernels::active().RowCandidatesI64;
  auto Relax = [&](uint32_t To, int64_t Cand) {
    if (Cand < Dist[To]) {
      Dist[To] = Cand;
      Heap.push(static_cast<uint64_t>(Cand), To);
    }
  };
  // Each candidate is D + (arc cost + Potential[V] - Potential[To]), the
  // arc's non-negative reduced cost added to V's distance. Keys past
  // Dist[T] cannot be on a shortest S -> T path; every tie at Dist[T] is
  // still settled.
  while (!Heap.empty()) {
    const auto [Key, V] = Heap.pop();
    const int64_t D = static_cast<int64_t>(Key);
    if (D > Dist[T])
      break;
    if (D > Dist[V])
      continue;
    const int64_t Base = D + Potential[V];
    if (V == 0) {
      for (size_t I = 0; I < N; ++I)
        if (SupplyCap[I] > SupplyFlow[I])
          Relax(supplyNode(I), Base - Potential[supplyNode(I)]);
    } else if (V <= N) {
      // Settled once: record the demands this supply may reach at zero
      // reduced cost once the potentials fold. The dispatched prefilter
      // marks every J with candidate <= Dist[J]; the loop below relaxes
      // only those, in ascending J (see the header).
      const size_t I = V - 1;
      const int64_t *DemandPot = &Potential[demandNode(0)];
      int64_t *DemandDist = &Dist[demandNode(0)];
      RowCandidates(BaseCost + I * N, Draws + I * N / 64, I * N % 64, Scale,
                    DemandPot, DemandDist, Base, N, RowMask.data());
      RowMask[I / 64] &= ~(uint64_t(1) << (I % 64));
      TightBegin[I] = static_cast<uint32_t>(Tight.size());
      for (size_t W = 0; W < RowWords; ++W)
        for (uint64_t Bits = RowMask[W]; Bits != 0; Bits &= Bits - 1) {
          const size_t J = W * 64 + static_cast<size_t>(__builtin_ctzll(Bits));
          const int64_t Cand = Base + cost(I, J) - DemandPot[J];
          if (Cand < DemandDist[J]) {
            DemandDist[J] = Cand;
            Heap.push(static_cast<uint64_t>(Cand), demandNode(J));
          }
          Tight.push_back(static_cast<uint32_t>(J));
        }
      TightEnd[I] = static_cast<uint32_t>(Tight.size());
    } else if (V < T) {
      const size_t J = V - 1 - N;
      for (const Inflow &E : Inflows[J])
        Relax(supplyNode(E.Supply),
              Base - cost(E.Supply, J) - Potential[supplyNode(E.Supply)]);
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
  // Fold distances into the potentials. Nodes past the sink, settled or
  // not, move by the sink distance, which keeps future reduced costs
  // non-negative.
  for (size_t V = 0; V < Potential.size(); ++V)
    Potential[V] += std::min(Dist[V], Dist[T]);
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
    for (uint32_t &P = CurrentArc[V]; P < TightEnd[I]; ++P) {
      const uint32_t J = Tight[P];
      if (!Admissible(demandNode(J), cost(I, J)))
        continue;
      int64_t Sub = dfsPush(demandNode(J), Limit - Pushed); // uncapacitated
      if (Sub > 0) {
        // The push below J may have emptied entries of J's list, so the
        // position of I is looked up after it.
        InflowList &List = Inflows[J];
        const size_t Pos = firstFrom(List, static_cast<uint32_t>(I));
        if (Pos < List.size() && List[Pos].Supply == I)
          List[Pos].Flow += Sub;
        else
          List.insert(List.begin() + static_cast<std::ptrdiff_t>(Pos),
                      Inflow{static_cast<uint32_t>(I), Sub});
        Pushed += Sub;
        if (Pushed == Limit)
          return Pushed;
      }
    }
  } else {
    const size_t J = V - 1 - N;
    uint32_t &A = CurrentArc[V];
    for (A = nextPositiveFlow(J, A); A < N; A = nextPositiveFlow(J, A + 1)) {
      // The reverse arc to supply A.
      if (!Admissible(supplyNode(A), -cost(A, J)))
        continue;
      InflowList &List = Inflows[J];
      const int64_t F = List[firstFrom(List, A)].Flow;
      int64_t Sub = dfsPush(supplyNode(A), std::min(Limit - Pushed, F));
      if (Sub > 0) {
        // A is at a deeper level than J, so the push below it never
        // reaches J; A's entry is still there, but looked up again.
        const auto Pos = List.begin() +
                         static_cast<std::ptrdiff_t>(firstFrom(List, A));
        Pos->Flow -= Sub;
        if (Pos->Flow == 0)
          List.erase(Pos);
        Pushed += Sub;
        if (Pushed == Limit)
          return Pushed;
      }
    }
    if (A == N) { // the arc to T
      const int64_t Residual = DemandCap[J] - DemandFlow[J];
      if (Residual > 0 && Admissible(T, 0)) {
        int64_t Sub = dfsPush(T, std::min(Limit - Pushed, Residual));
        if (Sub > 0) {
          DemandFlow[J] += Sub;
          Pushed += Sub;
          if (Pushed == Limit)
            return Pushed;
        }
      }
      ++A;
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
      for (uint32_t P = TightBegin[I]; P < TightEnd[I]; ++P)
        Visit(demandNode(Tight[P]), cost(I, Tight[P]));
    } else { // a demand node: T ends the search before it is dequeued
      const size_t J = V - 1 - N;
      for (const Inflow &E : Inflows[J])
        Visit(supplyNode(E.Supply), -cost(E.Supply, J));
      if (DemandCap[J] > DemandFlow[J])
        Visit(T, 0);
    }
  }
  if (Level[T] < 0)
    return 0;
  std::fill(CurrentArc.begin(), CurrentArc.end(), 0);
  for (size_t I = 0; I < N; ++I)
    CurrentArc[supplyNode(I)] = TightBegin[I];
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
  for (InflowList &List : Inflows)
    List.clear();
  RowMask.assign(RowWords, 0);
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
  forEachFlow([&](size_t I, size_t J, int64_t F) {
    R.TotalCost += F * cost(I, J);
  });
  return R;
}
