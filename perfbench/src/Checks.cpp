//===- perfbench/src/Checks.cpp - Output checkers -------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include <cmath>
#include <cstring>
#include <limits>

using namespace perfbench;

namespace {

/// Every node reaches every other along positive entries: one forward and
/// one backward search from node 0.
bool stronglyConnected(const std::vector<double> &P, size_t N) {
  if (N == 0)
    return false;
  for (bool Forward : {true, false}) {
    std::vector<char> Seen(N, 0);
    std::vector<size_t> Stack{0};
    Seen[0] = 1;
    size_t Reached = 1;
    while (!Stack.empty()) {
      size_t I = Stack.back();
      Stack.pop_back();
      for (size_t J = 0; J < N; ++J) {
        double W = Forward ? P[I * N + J] : P[J * N + I];
        if (W > 0.0 && !Seen[J]) {
          Seen[J] = 1;
          ++Reached;
          Stack.push_back(J);
        }
      }
    }
    if (Reached != N)
      return false;
  }
  return true;
}

} // namespace

Theorem41Report perfbench::checkTheorem41(const std::vector<double> &P,
                                          size_t N,
                                          const std::vector<double> &Coeffs,
                                          double RowTol,
                                          double StationaryTol) {
  Theorem41Report R;
  if (N == 0 || P.size() != N * N || Coeffs.size() != N)
    return R;
  long double Lambda = 0.0L;
  for (double H : Coeffs)
    Lambda += std::fabs(static_cast<long double>(H));
  if (Lambda <= 0.0L)
    return R;
  std::vector<long double> Pi(N);
  for (size_t J = 0; J < N; ++J)
    Pi[J] = std::fabs(static_cast<long double>(Coeffs[J])) / Lambda;

  // Long-double accumulation: the check's own rounding stays far below
  // the tolerances it enforces.
  std::vector<long double> PiP(N, 0.0L);
  R.MinEntry = std::numeric_limits<double>::infinity();
  for (size_t I = 0; I < N; ++I) {
    long double Row = 0.0L;
    for (size_t J = 0; J < N; ++J) {
      const long double V = P[I * N + J];
      Row += V;
      PiP[J] += Pi[I] * V;
      R.MinEntry = std::min(R.MinEntry, static_cast<double>(V));
    }
    R.MaxRowDeviation = std::max(
        R.MaxRowDeviation, static_cast<double>(std::fabs(Row - 1.0L)));
  }
  for (size_t J = 0; J < N; ++J)
    R.MaxStationaryDeviation =
        std::max(R.MaxStationaryDeviation,
                 static_cast<double>(std::fabs(PiP[J] - Pi[J])));
  R.StronglyConnected = stronglyConnected(P, N);
  R.Ok = R.MinEntry >= 0.0 && R.MaxRowDeviation <= RowTol &&
         R.MaxStationaryDeviation <= StationaryTol && R.StronglyConnected;
  return R;
}

double perfbench::maxDeviation(const std::vector<marqsim::CVector> &A,
                               const std::vector<marqsim::CVector> &B) {
  const double Inf = std::numeric_limits<double>::infinity();
  if (A.size() != B.size())
    return Inf;
  double Max = 0.0;
  for (size_t K = 0; K < A.size(); ++K) {
    if (A[K].size() != B[K].size())
      return Inf;
    for (size_t I = 0; I < A[K].size(); ++I)
      Max = std::max(Max, std::abs(A[K][I] - B[K][I]));
  }
  return Max;
}

bool perfbench::sameBits(const std::vector<double> &A,
                         const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}
