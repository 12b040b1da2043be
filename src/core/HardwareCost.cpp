//===- core/HardwareCost.cpp - Topology-aware cost objectives ----------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/HardwareCost.h"

#include <queue>

using namespace marqsim;

DeviceTopology::DeviceTopology(
    unsigned NumQubits, std::vector<std::pair<unsigned, unsigned>> Edges)
    : N(NumQubits), Dist(size_t(NumQubits) * NumQubits, ~0u) {
  assert(N > 0 && "empty topology");
  std::vector<std::vector<unsigned>> Adj(N);
  for (auto [A, B] : Edges) {
    assert(A < N && B < N && A != B && "bad coupling edge");
    Adj[A].push_back(B);
    Adj[B].push_back(A);
  }
  // BFS from every qubit.
  for (unsigned S = 0; S < N; ++S) {
    unsigned *Row = &Dist[size_t(S) * N];
    Row[S] = 0;
    std::queue<unsigned> Queue;
    Queue.push(S);
    while (!Queue.empty()) {
      unsigned V = Queue.front();
      Queue.pop();
      for (unsigned W : Adj[V]) {
        if (Row[W] != ~0u)
          continue;
        Row[W] = Row[V] + 1;
        Queue.push(W);
      }
    }
    for (unsigned W = 0; W < N; ++W)
      assert(Row[W] != ~0u && "coupling graph must be connected");
  }
}

DeviceTopology DeviceTopology::fullyConnected(unsigned NumQubits) {
  std::vector<std::pair<unsigned, unsigned>> Edges;
  for (unsigned A = 0; A < NumQubits; ++A)
    for (unsigned B = A + 1; B < NumQubits; ++B)
      Edges.push_back({A, B});
  return DeviceTopology(NumQubits, std::move(Edges));
}

DeviceTopology DeviceTopology::line(unsigned NumQubits) {
  std::vector<std::pair<unsigned, unsigned>> Edges;
  for (unsigned Q = 0; Q + 1 < NumQubits; ++Q)
    Edges.push_back({Q, Q + 1});
  return DeviceTopology(NumQubits, std::move(Edges));
}

/// Shared with the plain oracle: the matched mask and root placement of
/// cnotCountBetween, but each surviving CNOT priced by routing distance.
unsigned marqsim::hardwareCNOTCostBetween(const PauliString &Prev,
                                          const PauliString &Next,
                                          const DeviceTopology &Topo) {
  if (Prev == Next)
    return 0;
  uint64_t SameX = ~(Prev.xMask() ^ Next.xMask());
  uint64_t SameZ = ~(Prev.zMask() ^ Next.zMask());
  uint64_t Matched =
      SameX & SameZ & Prev.supportMask() & Next.supportMask();

  auto HighestBit = [](uint64_t Mask) -> unsigned {
    return 63 - __builtin_clzll(Mask);
  };
  auto SideCost = [&](const PauliString &P, unsigned Root,
                      uint64_t Cancelled) {
    unsigned Cost = 0;
    uint64_t Support = P.supportMask();
    for (unsigned Q = 0; Q < Topo.numQubits(); ++Q) {
      if (Q == Root || !((Support >> Q) & 1))
        continue;
      if ((Cancelled >> Q) & 1)
        continue;
      Cost += Topo.routedCNOTCost(Q, Root);
    }
    return Cost;
  };

  if (Matched == 0) {
    // No shared root possible; each snippet uses its own default root.
    unsigned RootPrev =
        Prev.isIdentity() ? 0 : HighestBit(Prev.supportMask());
    unsigned RootNext =
        Next.isIdentity() ? 0 : HighestBit(Next.supportMask());
    return SideCost(Prev, RootPrev, 0) + SideCost(Next, RootNext, 0);
  }
  unsigned Root = HighestBit(Matched);
  uint64_t CancelMask = Matched & ~(1ULL << Root);
  return SideCost(Prev, Root, CancelMask) + SideCost(Next, Root, CancelMask);
}

TransitionMatrix marqsim::buildHardwareAwareGC(const Hamiltonian &H,
                                               const DeviceTopology &Topo,
                                               const MCFPOptions &Opts) {
  assert(Topo.numQubits() >= H.numQubits() &&
         "topology smaller than the register");
  const size_t N = H.numTerms();
  std::vector<std::vector<int64_t>> Cost(N, std::vector<int64_t>(N, 0));
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      Cost[I][J] = Opts.CostScale *
                   static_cast<int64_t>(hardwareCNOTCostBetween(
                       H.term(I).String, H.term(J).String, Topo));
  return buildFromCostTable(H, Cost, Opts);
}

double marqsim::expectedHardwareCNOTs(const Hamiltonian &H,
                                      const TransitionMatrix &P,
                                      const std::vector<double> &Pi,
                                      const DeviceTopology &Topo) {
  assert(P.size() == H.numTerms() && Pi.size() == H.numTerms() &&
         "size mismatch");
  double Acc = 0.0;
  for (size_t I = 0; I < P.size(); ++I) {
    if (Pi[I] == 0.0)
      continue;
    for (size_t J = 0; J < P.size(); ++J) {
      double PIJ = P.at(I, J);
      if (PIJ == 0.0)
        continue;
      Acc += Pi[I] * PIJ *
             hardwareCNOTCostBetween(H.term(I).String, H.term(J).String,
                                     Topo);
    }
  }
  return Acc;
}
