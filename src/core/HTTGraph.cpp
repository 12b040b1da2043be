//===- core/HTTGraph.cpp - Hamiltonian Term Transition Graph IR --------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/HTTGraph.h"

#include "support/Table.h"

using namespace marqsim;

HTTGraph::HTTGraph(Hamiltonian H, TransitionMatrix Matrix)
    : Ham(std::move(H)), P(std::move(Matrix)) {
  assert(P.size() == Ham.numTerms() &&
         "transition matrix size must match the term count");
  Pi = Ham.stationaryDistribution();
}

size_t HTTGraph::numEdges(double EdgeTol) const {
  size_t Count = 0;
  for (size_t I = 0; I < P.size(); ++I)
    for (size_t J = 0; J < P.size(); ++J)
      if (P.at(I, J) > EdgeTol)
        ++Count;
  return Count;
}

std::string HTTGraph::toDot(double EdgeTol) const {
  std::string Dot = "digraph HTT {\n  rankdir=LR;\n";
  for (size_t I = 0; I < numStates(); ++I) {
    Dot += "  n" + std::to_string(I) + " [label=\"" +
           Ham.term(I).String.str(Ham.numQubits()) + "\\npi=" +
           formatDouble(Pi[I], 3) + "\"];\n";
  }
  for (size_t I = 0; I < numStates(); ++I)
    for (size_t J = 0; J < numStates(); ++J) {
      double Weight = P.at(I, J);
      if (Weight <= EdgeTol)
        continue;
      Dot += "  n" + std::to_string(I) + " -> n" + std::to_string(J) +
             " [label=\"" + formatDouble(Weight, 2) + "\"];\n";
    }
  Dot += "}\n";
  return Dot;
}
