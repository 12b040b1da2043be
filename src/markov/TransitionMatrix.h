//===- markov/TransitionMatrix.h - Markov transition matrices ---*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Row-stochastic transition matrices of finite homogeneous Markov chains.
///
/// This is the tunable object at the heart of MarQSim: Theorem 4.1 accepts
/// any matrix that (1) induces a strongly connected state transition graph
/// and (2) preserves the stationary distribution pi_i = |h_i| / lambda.
/// The class provides exactly the checks, algebra (convex combination,
/// Theorem 5.2), and analysis (stationary solve, spectrum, Sections
/// 5.4-5.5) the compiler and the experiments need.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_MARKOV_TRANSITIONMATRIX_H
#define MARQSIM_MARKOV_TRANSITIONMATRIX_H

#include <cassert>
#include <complex>
#include <cstddef>
#include <vector>

namespace marqsim {

/// A dense row-stochastic matrix P where P(i,j) = Pr[next = j | current = i].
class TransitionMatrix {
public:
  TransitionMatrix() : N(0) {}

  /// Creates an N x N zero matrix (fill rows before use).
  explicit TransitionMatrix(size_t N) : N(N), P(N * N, 0.0) {}

  /// Builds from explicit row data (asserts squareness).
  static TransitionMatrix fromRows(
      const std::vector<std::vector<double>> &Rows);

  /// The rank-1 matrix whose every row is \p Pi — i.i.d. sampling from Pi.
  /// With Pi the stationary distribution this is exactly the qDrift matrix
  /// Pqd of Corollary 4.1.
  static TransitionMatrix fromStationary(const std::vector<double> &Pi);

  size_t size() const { return N; }

  double &at(size_t I, size_t J) {
    assert(I < N && J < N && "transition matrix index out of range");
    return P[I * N + J];
  }
  double at(size_t I, size_t J) const {
    assert(I < N && J < N && "transition matrix index out of range");
    return P[I * N + J];
  }

  /// Pointer to row \p I (N contiguous doubles).
  const double *row(size_t I) const {
    assert(I < N && "row index out of range");
    return &P[I * N];
  }

  /// Raw row-major data.
  const std::vector<double> &data() const { return P; }

  /// True if every entry is in [-Tol, 1+Tol] and every row sums to 1
  /// within Tol.
  bool isRowStochastic(double Tol = 1e-9) const;

  /// True if pi P == pi within Tol (Theorem 4.1 condition 2).
  bool preservesDistribution(const std::vector<double> &Pi,
                             double Tol = 1e-9) const;

  /// True if the state transition graph (edges where p_ij > EdgeTol) is
  /// strongly connected (Theorem 4.1 condition 1).
  bool isStronglyConnected(double EdgeTol = 0.0) const;

  /// Left action pi^T P.
  std::vector<double> leftApply(const std::vector<double> &Pi) const;

  /// Solves for the stationary distribution (unique when the chain is
  /// strongly connected) by direct linear solve of pi (P - I) = 0 with the
  /// normalization sum(pi) = 1.
  std::vector<double> stationaryDistribution() const;

  /// Convex combination sum_k Theta_k * P_k (Theorem 5.2). Weights must be
  /// non-negative and sum to 1 within 1e-9.
  static TransitionMatrix
  combine(const std::vector<const TransitionMatrix *> &Matrices,
          const std::vector<double> &Weights);

  /// combine() with the rank-1 part fromStationary(\p Pi) of weight \p WPi
  /// in front of \p Matrices (which may be empty), read from Pi instead of
  /// formed as an N x N matrix. Every entry takes the same sums in the same
  /// order, starting from 0, so the result has the bits of combine() over
  /// {&fromStationary(Pi), Matrices...} and {WPi, Weights...}.
  static TransitionMatrix
  combine(const std::vector<double> &Pi, double WPi,
          const std::vector<const TransitionMatrix *> &Matrices,
          const std::vector<double> &Weights);

  /// All eigenvalues, sorted by descending magnitude. For a valid matrix
  /// the leading eigenvalue is 1.
  std::vector<std::complex<double>> spectrum() const;

  /// |lambda_2|: the magnitude of the second-largest eigenvalue, governing
  /// convergence speed (Section 5.4). Returns 0 for rank-1 matrices.
  double secondEigenvalueMagnitude() const;

private:
  /// Adds Weights[k] * Matrices[k] to every entry, k ascending; asserts
  /// that \p Sum (the weight already in the matrix) plus Weights is 1.
  void addWeighted(const std::vector<const TransitionMatrix *> &Matrices,
                   const std::vector<double> &Weights, double Sum);

  size_t N;
  std::vector<double> P;
};

} // namespace marqsim

#endif // MARQSIM_MARKOV_TRANSITIONMATRIX_H
