//===- linalg/Matrix.h - Dense complex matrices -----------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense complex matrix/vector arithmetic used throughout the simulator and
/// spectra-analysis code.
///
/// Row-major storage; element type is std::complex<double>. The class covers
/// exactly the operations the project needs (products, adjoints, traces,
/// norms, Kronecker products) rather than being a general BLAS replacement.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_LINALG_MATRIX_H
#define MARQSIM_LINALG_MATRIX_H

#include "support/AlignedAlloc.h"

#include <cassert>
#include <complex>
#include <cstddef>
#include <vector>

namespace marqsim {

using Complex = std::complex<double>;

/// Amplitude vectors allocate cache-line aligned so the statevector
/// kernels' vector loads never split cache lines (SIMD paths additionally
/// rely on the alignment for full-width aligned panel accesses).
using CVector = std::vector<Complex, AlignedAllocator<Complex, 64>>;

/// A dense row-major complex matrix.
class Matrix {
public:
  Matrix() : NRows(0), NCols(0) {}

  /// Creates an NRows x NCols zero matrix.
  Matrix(size_t NRows, size_t NCols)
      : NRows(NRows), NCols(NCols), Data(NRows * NCols) {}

  /// Returns the N x N identity.
  static Matrix identity(size_t N);

  /// Builds a matrix from a nested initializer-style row list.
  static Matrix fromRows(const std::vector<CVector> &Rows);

  size_t rows() const { return NRows; }
  size_t cols() const { return NCols; }
  bool isSquare() const { return NRows == NCols; }

  Complex &at(size_t R, size_t C) {
    assert(R < NRows && C < NCols && "matrix index out of range");
    return Data[R * NCols + C];
  }
  const Complex &at(size_t R, size_t C) const {
    assert(R < NRows && C < NCols && "matrix index out of range");
    return Data[R * NCols + C];
  }
  Complex &operator()(size_t R, size_t C) { return at(R, C); }
  const Complex &operator()(size_t R, size_t C) const { return at(R, C); }

  /// Raw row-major storage (used by performance-sensitive kernels).
  Complex *data() { return Data.data(); }
  const Complex *data() const { return Data.data(); }

  Matrix operator+(const Matrix &B) const;
  Matrix operator-(const Matrix &B) const;
  Matrix operator*(const Matrix &B) const;
  Matrix operator*(Complex S) const;
  Matrix &operator+=(const Matrix &B);
  Matrix &operator-=(const Matrix &B);
  Matrix &operator*=(Complex S);

  /// Matrix-vector product.
  CVector operator*(const CVector &V) const;

  /// Conjugate transpose.
  Matrix adjoint() const;

  /// Sum of diagonal entries; requires a square matrix.
  Complex trace() const;

  /// Frobenius norm.
  double frobeniusNorm() const;

  /// Maximum absolute column sum (the 1-norm); used by expm scaling.
  double oneNorm() const;

  /// Largest |a_ij - b_ij| over all entries.
  double maxAbsDiff(const Matrix &B) const;

  /// Kronecker product A (x) B.
  static Matrix kron(const Matrix &A, const Matrix &B);

  /// Returns true if `A * A^dagger` is within \p Tol of the identity.
  bool isUnitary(double Tol = 1e-9) const;

private:
  size_t NRows, NCols;
  CVector Data;
};

/// Inner product <A, B> = sum conj(a_i) * b_i.
Complex innerProduct(const CVector &A, const CVector &B);

/// Euclidean norm of a complex vector.
double vectorNorm(const CVector &V);

} // namespace marqsim

#endif // MARQSIM_LINALG_MATRIX_H
