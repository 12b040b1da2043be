//===- circuit/Circuit.cpp - Quantum circuit IR -----------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "circuit/Circuit.h"


#include <algorithm>

using namespace marqsim;

const char *marqsim::gateKindName(GateKind K) {
  switch (K) {
  case GateKind::H:
    return "h";
  case GateKind::X:
    return "x";
  case GateKind::Y:
    return "y";
  case GateKind::Z:
    return "z";
  case GateKind::S:
    return "s";
  case GateKind::Sdg:
    return "sdg";
  case GateKind::Rx:
    return "rx";
  case GateKind::Ry:
    return "ry";
  case GateKind::Rz:
    return "rz";
  case GateKind::CNOT:
    return "cx";
  }
  assert(false && "invalid GateKind");
  return "?";
}

bool marqsim::isRotationGate(GateKind K) {
  return K == GateKind::Rx || K == GateKind::Ry || K == GateKind::Rz;
}

bool Gate::overlaps(const Gate &O) const {
  if (O.actsOn(Qubit0))
    return true;
  return isCNOT() && O.actsOn(Qubit1);
}

void Circuit::append(const Gate &G) {
  assert(G.Qubit0 < NQubits && "gate qubit outside register");
  assert((!G.isCNOT() || G.Qubit1 < NQubits) &&
         "CNOT target outside register");
  Gates.push_back(G);
}

GateCounts Circuit::counts() const {
  GateCounts C;
  for (const Gate &G : Gates) {
    if (G.isCNOT())
      ++C.CNOTs;
    else
      ++C.SingleQubit;
  }
  return C;
}

size_t Circuit::depth() const {
  std::vector<size_t> QubitDepth(NQubits, 0);
  for (const Gate &G : Gates) {
    size_t Layer = QubitDepth[G.Qubit0];
    if (G.isCNOT())
      Layer = std::max(Layer, QubitDepth[G.Qubit1]);
    ++Layer;
    QubitDepth[G.Qubit0] = Layer;
    if (G.isCNOT())
      QubitDepth[G.Qubit1] = Layer;
  }
  size_t Depth = 0;
  for (size_t D : QubitDepth)
    Depth = std::max(Depth, D);
  return Depth;
}

