//===- core/CNOTCountOracle.cpp - Pairwise CNOT cost oracle ------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CNOTCountOracle.h"

#include <cassert>

using namespace marqsim;

namespace {

/// Cost[I * N + J] = Scale * cnotCountBetween(Terms[I], Terms[J]).
/// Inlined into both clones below.
__attribute__((always_inline)) inline void
fillCnotCosts(const std::vector<PauliString> &Terms, int64_t Scale,
              int64_t *Cost) {
  const size_t N = Terms.size();
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      Cost[I * N + J] =
          Scale * static_cast<int64_t>(cnotCountBetween(Terms[I], Terms[J]));
}

void fillCnotCostsPortable(const std::vector<PauliString> &Terms,
                           int64_t Scale, int64_t *Cost) {
  fillCnotCosts(Terms, Scale, Cost);
}

MARQSIM_TARGET_POPCNT void
fillCnotCostsHardware(const std::vector<PauliString> &Terms, int64_t Scale,
                      int64_t *Cost) {
  fillCnotCosts(Terms, Scale, Cost);
}

} // namespace

std::vector<int64_t> marqsim::scaledCnotCosts(const Hamiltonian &H,
                                              int64_t Scale,
                                              PopcountPath Path) {
  const size_t N = H.numTerms();
  std::vector<PauliString> Terms(N);
  for (size_t I = 0; I < N; ++I)
    Terms[I] = H.term(I).String;
  std::vector<int64_t> Cost(N * N);
  if (Path == PopcountPath::Hardware) {
    assert(cpuFeatures().POPCNT && "hardware popcount on a host without it");
    fillCnotCostsHardware(Terms, Scale, Cost.data());
  } else {
    fillCnotCostsPortable(Terms, Scale, Cost.data());
  }
  return Cost;
}

std::vector<std::vector<unsigned>>
marqsim::cnotCostTable(const Hamiltonian &H) {
  const size_t N = H.numTerms();
  const std::vector<int64_t> Flat = scaledCnotCosts(H, 1);
  std::vector<std::vector<unsigned>> Table(N);
  for (size_t I = 0; I < N; ++I)
    Table[I].assign(Flat.begin() + static_cast<std::ptrdiff_t>(I * N),
                    Flat.begin() + static_cast<std::ptrdiff_t>((I + 1) * N));
  return Table;
}

double marqsim::expectedTransitionCNOTs(const Hamiltonian &H,
                                        const TransitionMatrix &P,
                                        const std::vector<double> &Pi) {
  assert(P.size() == H.numTerms() && Pi.size() == H.numTerms() &&
         "size mismatch in expected-cost computation");
  double Acc = 0.0;
  for (size_t I = 0; I < P.size(); ++I) {
    if (Pi[I] == 0.0)
      continue;
    for (size_t J = 0; J < P.size(); ++J) {
      double PIJ = P.at(I, J);
      if (PIJ == 0.0)
        continue;
      Acc += Pi[I] * PIJ *
             cnotCountBetween(H.term(I).String, H.term(J).String);
    }
  }
  return Acc;
}
