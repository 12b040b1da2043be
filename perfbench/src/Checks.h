//===- perfbench/src/Checks.h - Output checkers -----------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness checks, written with the benchmark's own
/// arithmetic rather than the library's validators, so a bug in a
/// validator cannot hide a bug in what it validates.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "linalg/Matrix.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// Theorem 4.1 on a row-major N x N transition matrix: every row sums to 1,
/// pi_j = |h_j| / lambda is stationary (pi P = pi), and the graph of
/// positive entries is strongly connected.
struct Theorem41Report {
  double MaxRowDeviation = 0.0;        ///< max_i |sum_j P_ij - 1|
  double MaxStationaryDeviation = 0.0; ///< max_j |(pi P)_j - pi_j|
  double MinEntry = 0.0;
  bool StronglyConnected = false;
  bool Ok = false;
};

Theorem41Report checkTheorem41(const std::vector<double> &RowMajor, size_t N,
                               const std::vector<double> &Coeffs,
                               double RowTol, double StationaryTol);

/// Max |A_k[b] - B_k[b]| over every column k and amplitude b: the distance
/// between evolved target columns and their dense reference. Returns +inf
/// on a shape mismatch.
double maxDeviation(const std::vector<marqsim::CVector> &A,
                    const std::vector<marqsim::CVector> &B);

/// True when the two sequences are equal bit for bit.
bool sameBits(const std::vector<double> &A, const std::vector<double> &B);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
