//===- markov/TransitionMatrix.cpp - Markov transition matrices -------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "markov/TransitionMatrix.h"

#include "linalg/Eigen.h"

#include <algorithm>
#include <cmath>

using namespace marqsim;

TransitionMatrix
TransitionMatrix::fromRows(const std::vector<std::vector<double>> &Rows) {
  TransitionMatrix M(Rows.size());
  for (size_t I = 0; I < Rows.size(); ++I) {
    assert(Rows[I].size() == Rows.size() && "transition matrix not square");
    for (size_t J = 0; J < Rows.size(); ++J)
      M.at(I, J) = Rows[I][J];
  }
  return M;
}

TransitionMatrix
TransitionMatrix::fromStationary(const std::vector<double> &Pi) {
  TransitionMatrix M(Pi.size());
  for (size_t I = 0; I < Pi.size(); ++I)
    for (size_t J = 0; J < Pi.size(); ++J)
      M.at(I, J) = Pi[J];
  return M;
}

bool TransitionMatrix::isRowStochastic(double Tol) const {
  for (size_t I = 0; I < N; ++I) {
    double Sum = 0.0;
    for (size_t J = 0; J < N; ++J) {
      double V = at(I, J);
      if (V < -Tol || V > 1.0 + Tol)
        return false;
      Sum += V;
    }
    if (std::fabs(Sum - 1.0) > Tol)
      return false;
  }
  return true;
}

bool TransitionMatrix::preservesDistribution(const std::vector<double> &Pi,
                                             double Tol) const {
  assert(Pi.size() == N && "distribution size mismatch");
  std::vector<double> Next = leftApply(Pi);
  for (size_t J = 0; J < N; ++J)
    if (std::fabs(Next[J] - Pi[J]) > Tol)
      return false;
  return true;
}

std::vector<double>
TransitionMatrix::leftApply(const std::vector<double> &Pi) const {
  assert(Pi.size() == N && "distribution size mismatch");
  std::vector<double> Next(N, 0.0);
  for (size_t I = 0; I < N; ++I) {
    double PiI = Pi[I];
    if (PiI == 0.0)
      continue;
    const double *Row = row(I);
    for (size_t J = 0; J < N; ++J)
      Next[J] += PiI * Row[J];
  }
  return Next;
}

bool TransitionMatrix::isStronglyConnected(double EdgeTol) const {
  if (N == 0)
    return false;
  if (N == 1)
    return true;
  // A directed graph is strongly connected iff every vertex is reachable
  // from vertex 0 and vertex 0 is reachable from every vertex; check with a
  // forward and a backward traversal.
  auto Reaches = [&](bool Forward) {
    std::vector<char> Seen(N, 0);
    std::vector<size_t> Stack = {0};
    Seen[0] = 1;
    size_t Count = 1;
    while (!Stack.empty()) {
      size_t V = Stack.back();
      Stack.pop_back();
      for (size_t W = 0; W < N; ++W) {
        if (Seen[W])
          continue;
        double Edge = Forward ? at(V, W) : at(W, V);
        if (Edge > EdgeTol) {
          Seen[W] = 1;
          ++Count;
          Stack.push_back(W);
        }
      }
    }
    return Count == N;
  };
  return Reaches(true) && Reaches(false);
}

std::vector<double> TransitionMatrix::stationaryDistribution() const {
  assert(N > 0 && "stationary distribution of an empty chain");
  // Solve pi (P - I) = 0 together with sum(pi) = 1: build the N x N system
  // A x = b with A = (P - I)^T, then replace the last equation by the
  // normalization row. Plain Gaussian elimination with partial pivoting.
  std::vector<double> A(N * N);
  std::vector<double> B(N, 0.0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      A[I * N + J] = at(J, I) - (I == J ? 1.0 : 0.0);
  for (size_t J = 0; J < N; ++J)
    A[(N - 1) * N + J] = 1.0;
  B[N - 1] = 1.0;

  std::vector<size_t> Perm(N);
  for (size_t I = 0; I < N; ++I)
    Perm[I] = I;
  for (size_t K = 0; K < N; ++K) {
    size_t Pivot = K;
    for (size_t I = K + 1; I < N; ++I)
      if (std::fabs(A[Perm[I] * N + K]) > std::fabs(A[Perm[Pivot] * N + K]))
        Pivot = I;
    std::swap(Perm[K], Perm[Pivot]);
    double Diag = A[Perm[K] * N + K];
    assert(std::fabs(Diag) > 1e-14 &&
           "singular system: chain has multiple recurrence classes");
    for (size_t I = K + 1; I < N; ++I) {
      double F = A[Perm[I] * N + K] / Diag;
      if (F == 0.0)
        continue;
      for (size_t J = K; J < N; ++J)
        A[Perm[I] * N + J] -= F * A[Perm[K] * N + J];
      B[Perm[I]] -= F * B[Perm[K]];
    }
  }
  std::vector<double> Pi(N);
  for (size_t K = N; K-- > 0;) {
    double Acc = B[Perm[K]];
    for (size_t J = K + 1; J < N; ++J)
      Acc -= A[Perm[K] * N + J] * Pi[J];
    Pi[K] = Acc / A[Perm[K] * N + K];
  }
  return Pi;
}

void TransitionMatrix::addWeighted(
    const std::vector<const TransitionMatrix *> &Ms,
    const std::vector<double> &Weights, double Sum) {
  assert(Ms.size() == Weights.size() &&
         "combine needs matching matrices and weights");
  for (double W : Weights) {
    assert(W >= 0.0 && "combination weights must be non-negative");
    Sum += W;
  }
  assert(std::fabs(Sum - 1.0) <= 1e-9 && "combination weights must sum to 1");
  for (size_t K = 0; K < Ms.size(); ++K) {
    assert(Ms[K]->size() == N && "combining differently sized matrices");
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        at(I, J) += Weights[K] * Ms[K]->at(I, J);
  }
}

TransitionMatrix
TransitionMatrix::combine(const std::vector<const TransitionMatrix *> &Ms,
                          const std::vector<double> &Weights) {
  assert(!Ms.empty() && "combine needs at least one matrix");
  TransitionMatrix R(Ms.front()->size());
  R.addWeighted(Ms, Weights, 0.0);
  return R;
}

TransitionMatrix
TransitionMatrix::combine(const std::vector<double> &Pi, double WPi,
                          const std::vector<const TransitionMatrix *> &Ms,
                          const std::vector<double> &Weights) {
  assert(WPi >= 0.0 && "combination weights must be non-negative");
  const size_t N = Pi.size();
  // Every row of the rank-1 part is 0 + WPi * Pi[J], as combine() adds it.
  std::vector<double> Row(N, 0.0);
  for (size_t J = 0; J < N; ++J)
    Row[J] += WPi * Pi[J];
  TransitionMatrix R(N);
  for (size_t I = 0; I < N; ++I)
    std::copy(Row.begin(), Row.end(),
              R.P.begin() + static_cast<std::ptrdiff_t>(I * N));
  R.addWeighted(Ms, Weights, WPi);
  return R;
}

std::vector<std::complex<double>> TransitionMatrix::spectrum() const {
  return realEigenvalues(P, N);
}

double TransitionMatrix::secondEigenvalueMagnitude() const {
  if (N < 2)
    return 0.0;
  std::vector<std::complex<double>> Eigs = spectrum();
  return std::abs(Eigs[1]);
}
