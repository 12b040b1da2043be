//===- core/HardwareCost.h - Topology-aware cost objectives -----*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hardware-aware extension of the MCFP objective (paper Section 7:
/// "... or even further optimized by taking the underlying hardware
/// architecture into consideration").
///
/// Real devices restrict CNOTs to coupled qubit pairs; a logical CNOT
/// between qubits at routing distance d costs 3(d-1) + 1 physical CNOTs
/// under the standard SWAP-insertion model. DeviceTopology provides
/// all-pairs distances for common layouts; hardwareCNOTCostBetween prices
/// a snippet transition by the routed cost of its surviving ladder CNOTs,
/// and buildHardwareAwareGC drops that price into the Algorithm 2 flow
/// network — producing a transition matrix biased toward successors whose
/// cancellations save the most *physical* gates.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CORE_HARDWARECOST_H
#define MARQSIM_CORE_HARDWARECOST_H

#include "core/TransitionBuilders.h"

namespace marqsim {

/// An undirected device coupling graph with precomputed all-pairs
/// shortest-path distances.
class DeviceTopology {
public:
  /// Fully connected device (distance 1 everywhere): the paper's implicit
  /// model, under which hardware-aware costs reduce to plain CNOT counts.
  static DeviceTopology fullyConnected(unsigned NumQubits);

  /// 1-D nearest-neighbour line q0 - q1 - ... - q(n-1).
  static DeviceTopology line(unsigned NumQubits);


  unsigned numQubits() const { return N; }

  /// Shortest-path distance in coupling-graph hops (0 for Q == R).
  unsigned distance(unsigned Q, unsigned R) const {
    assert(Q < N && R < N && "qubit out of range");
    return Dist[Q * N + R];
  }

  /// Physical CNOTs for one logical CNOT between \p Q and \p R:
  /// 3 * (distance - 1) + 1 (SWAP chains in, one CNOT, SWAPs are free to
  /// leave since the next ladder CNOT re-uses the position in the best
  /// case; the constant model keeps the objective linear).
  unsigned routedCNOTCost(unsigned Q, unsigned R) const {
    unsigned D = distance(Q, R);
    assert(D > 0 && "CNOT between a qubit and itself");
    return 3 * (D - 1) + 1;
  }

private:
  DeviceTopology(unsigned N, std::vector<std::pair<unsigned, unsigned>> Edges);

  unsigned N = 0;
  std::vector<unsigned> Dist;
};

/// Routed cost of the ladder CNOTs surviving between the Rz of \p Prev and
/// the Rz of \p Next (same cancellation model as cnotCountBetween; each
/// surviving CNOT(q -> root) priced by routedCNOTCost). On a fully
/// connected topology this equals cnotCountBetween exactly.
unsigned hardwareCNOTCostBetween(const PauliString &Prev,
                                 const PauliString &Next,
                                 const DeviceTopology &Topo);

/// Algorithm 2 with the hardware-aware objective. Preserves the stationary
/// distribution like every flow-built matrix; combine with Pqd for strong
/// connectivity as usual.
TransitionMatrix buildHardwareAwareGC(const Hamiltonian &H,
                                      const DeviceTopology &Topo,
                                      const MCFPOptions &Opts = {});

/// Expected routed CNOT cost per transition under matrix \p P at
/// distribution \p Pi (the hardware analogue of expectedTransitionCNOTs).
double expectedHardwareCNOTs(const Hamiltonian &H, const TransitionMatrix &P,
                             const std::vector<double> &Pi,
                             const DeviceTopology &Topo);

} // namespace marqsim

#endif // MARQSIM_CORE_HARDWARECOST_H
