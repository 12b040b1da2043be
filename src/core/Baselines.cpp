//===- core/Baselines.cpp - Term orders of the Trotter baselines ----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fixed term orders TrotterStrategy repeats per step (paper Section
// 3.1).
//
//===----------------------------------------------------------------------===//

#include "core/Baselines.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

using namespace marqsim;

std::vector<size_t> marqsim::orderTerms(const Hamiltonian &H,
                                        TermOrderKind Kind) {
  std::vector<size_t> Order(H.numTerms());
  std::iota(Order.begin(), Order.end(), 0);
  switch (Kind) {
  case TermOrderKind::Given:
    return Order;
  case TermOrderKind::Lexicographic:
    std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return H.term(A).String < H.term(B).String;
    });
    return Order;
  case TermOrderKind::MagnitudeDescending:
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return std::fabs(H.term(A).Coeff) > std::fabs(H.term(B).Coeff);
    });
    return Order;
  case TermOrderKind::GreedyMatched: {
    // Start at the heaviest term, then repeatedly append the unused term
    // with the most matched operators against the current one (ties broken
    // lexicographically for determinism).
    const size_t N = H.numTerms();
    std::vector<char> Used(N, 0);
    size_t Current = 0;
    for (size_t I = 1; I < N; ++I)
      if (std::fabs(H.term(I).Coeff) > std::fabs(H.term(Current).Coeff))
        Current = I;
    std::vector<size_t> Chain;
    Chain.reserve(N);
    Chain.push_back(Current);
    Used[Current] = 1;
    for (size_t Step = 1; Step < N; ++Step) {
      size_t Best = N;
      unsigned BestMatch = 0;
      for (size_t Cand = 0; Cand < N; ++Cand) {
        if (Used[Cand])
          continue;
        unsigned Match =
            H.term(Current).String.matchedOps(H.term(Cand).String);
        if (Best == N || Match > BestMatch ||
            (Match == BestMatch &&
             H.term(Cand).String < H.term(Best).String)) {
          Best = Cand;
          BestMatch = Match;
        }
      }
      Chain.push_back(Best);
      Used[Best] = 1;
      Current = Best;
    }
    return Chain;
  }
  }
  assert(false && "invalid TermOrderKind");
  return Order;
}
