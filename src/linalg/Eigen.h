//===- linalg/Eigen.h - Eigenvalues of real matrices ------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Eigenvalues of general (nonsymmetric) real square matrices.
///
/// The algorithm is the classic pair used by EISPACK: reduction to upper
/// Hessenberg form by stabilized elementary similarity transformations,
/// followed by the Francis double-shift QR iteration with aggressive
/// deflation. This powers the transition-matrix spectra analysis of
/// MarQSim Sections 5.4-5.5 (Figures 11 and 15 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_LINALG_EIGEN_H
#define MARQSIM_LINALG_EIGEN_H

#include <complex>
#include <cstddef>
#include <vector>

namespace marqsim {

/// Computes all eigenvalues of the N x N real matrix \p A (row-major).
///
/// \returns eigenvalues sorted by descending magnitude (ties broken by real
/// part, then imaginary part, so output is deterministic).
/// Asserts on convergence failure (more than 60 QR sweeps for one
/// eigenvalue), which does not occur for the well-conditioned stochastic
/// matrices this project feeds in.
std::vector<std::complex<double>>
realEigenvalues(const std::vector<double> &A, size_t N);

} // namespace marqsim

#endif // MARQSIM_LINALG_EIGEN_H
