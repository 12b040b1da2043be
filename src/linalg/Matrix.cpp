//===- linalg/Matrix.cpp - Dense complex matrices --------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "linalg/Matrix.h"

#include <cmath>

using namespace marqsim;

Matrix Matrix::identity(size_t N) {
  Matrix I(N, N);
  for (size_t K = 0; K < N; ++K)
    I.at(K, K) = 1.0;
  return I;
}

Matrix Matrix::fromRows(const std::vector<CVector> &Rows) {
  assert(!Rows.empty() && "fromRows needs at least one row");
  Matrix M(Rows.size(), Rows.front().size());
  for (size_t R = 0; R < Rows.size(); ++R) {
    assert(Rows[R].size() == M.cols() && "ragged row list");
    for (size_t C = 0; C < M.cols(); ++C)
      M.at(R, C) = Rows[R][C];
  }
  return M;
}

Matrix Matrix::operator+(const Matrix &B) const {
  assert(NRows == B.NRows && NCols == B.NCols && "shape mismatch in +");
  Matrix R = *this;
  R += B;
  return R;
}

Matrix Matrix::operator-(const Matrix &B) const {
  assert(NRows == B.NRows && NCols == B.NCols && "shape mismatch in -");
  Matrix R = *this;
  R -= B;
  return R;
}

Matrix &Matrix::operator+=(const Matrix &B) {
  assert(NRows == B.NRows && NCols == B.NCols && "shape mismatch in +=");
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] += B.Data[I];
  return *this;
}

Matrix &Matrix::operator-=(const Matrix &B) {
  assert(NRows == B.NRows && NCols == B.NCols && "shape mismatch in -=");
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] -= B.Data[I];
  return *this;
}

Matrix &Matrix::operator*=(Complex S) {
  for (Complex &X : Data)
    X *= S;
  return *this;
}

Matrix Matrix::operator*(Complex S) const {
  Matrix R = *this;
  R *= S;
  return R;
}

Matrix Matrix::operator*(const Matrix &B) const {
  assert(NCols == B.NRows && "shape mismatch in matrix product");
  Matrix R(NRows, B.NCols);
  // i-k-j loop order keeps the inner loop contiguous in both operands.
  for (size_t I = 0; I < NRows; ++I) {
    const Complex *ARow = &Data[I * NCols];
    Complex *RRow = &R.Data[I * B.NCols];
    for (size_t K = 0; K < NCols; ++K) {
      Complex AIK = ARow[K];
      if (AIK == Complex(0.0, 0.0))
        continue;
      const Complex *BRow = &B.Data[K * B.NCols];
      for (size_t J = 0; J < B.NCols; ++J)
        RRow[J] += AIK * BRow[J];
    }
  }
  return R;
}

CVector Matrix::operator*(const CVector &V) const {
  assert(NCols == V.size() && "shape mismatch in matrix-vector product");
  CVector R(NRows);
  for (size_t I = 0; I < NRows; ++I) {
    const Complex *Row = &Data[I * NCols];
    Complex Acc = 0.0;
    for (size_t J = 0; J < NCols; ++J)
      Acc += Row[J] * V[J];
    R[I] = Acc;
  }
  return R;
}

Matrix Matrix::adjoint() const {
  Matrix R(NCols, NRows);
  for (size_t I = 0; I < NRows; ++I)
    for (size_t J = 0; J < NCols; ++J)
      R.at(J, I) = std::conj(at(I, J));
  return R;
}

Complex Matrix::trace() const {
  assert(isSquare() && "trace of non-square matrix");
  Complex T = 0.0;
  for (size_t I = 0; I < NRows; ++I)
    T += at(I, I);
  return T;
}

double Matrix::frobeniusNorm() const {
  double S = 0.0;
  for (const Complex &X : Data)
    S += std::norm(X);
  return std::sqrt(S);
}

double Matrix::oneNorm() const {
  double Best = 0.0;
  for (size_t J = 0; J < NCols; ++J) {
    double Sum = 0.0;
    for (size_t I = 0; I < NRows; ++I)
      Sum += std::abs(at(I, J));
    if (Sum > Best)
      Best = Sum;
  }
  return Best;
}

double Matrix::maxAbsDiff(const Matrix &B) const {
  assert(NRows == B.NRows && NCols == B.NCols && "shape mismatch in diff");
  double Best = 0.0;
  for (size_t I = 0; I < Data.size(); ++I)
    Best = std::max(Best, std::abs(Data[I] - B.Data[I]));
  return Best;
}

Matrix Matrix::kron(const Matrix &A, const Matrix &B) {
  Matrix R(A.rows() * B.rows(), A.cols() * B.cols());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J) {
      Complex AIJ = A.at(I, J);
      if (AIJ == Complex(0.0, 0.0))
        continue;
      for (size_t K = 0; K < B.rows(); ++K)
        for (size_t L = 0; L < B.cols(); ++L)
          R.at(I * B.rows() + K, J * B.cols() + L) = AIJ * B.at(K, L);
    }
  return R;
}

bool Matrix::isUnitary(double Tol) const {
  if (!isSquare())
    return false;
  Matrix Prod = *this * adjoint();
  return Prod.maxAbsDiff(identity(NRows)) <= Tol;
}

Complex marqsim::innerProduct(const CVector &A, const CVector &B) {
  assert(A.size() == B.size() && "inner product size mismatch");
  Complex S = 0.0;
  for (size_t I = 0; I < A.size(); ++I)
    S += std::conj(A[I]) * B[I];
  return S;
}

double marqsim::vectorNorm(const CVector &V) {
  double S = 0.0;
  for (const Complex &X : V)
    S += std::norm(X);
  return std::sqrt(S);
}
