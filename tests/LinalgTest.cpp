//===- tests/LinalgTest.cpp - linear algebra tests -----------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "linalg/Eigen.h"
#include "linalg/Expm.h"
#include "linalg/LU.h"
#include "linalg/Matrix.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace marqsim;

namespace {

Matrix randomMatrix(size_t N, RNG &Rng) {
  Matrix M(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      M.at(I, J) = Complex(Rng.gaussian(), Rng.gaussian());
  return M;
}

} // namespace

TEST(MatrixTest, IdentityAndTrace) {
  Matrix I = Matrix::identity(4);
  EXPECT_EQ(I.trace(), Complex(4.0, 0.0));
  EXPECT_DOUBLE_EQ(I.frobeniusNorm(), 2.0);
}

TEST(MatrixTest, ProductAgainstHandComputation) {
  Matrix A = Matrix::fromRows({{1.0, 2.0}, {3.0, 4.0}});
  Matrix B = Matrix::fromRows({{5.0, 6.0}, {7.0, 8.0}});
  Matrix C = A * B;
  EXPECT_EQ(C.at(0, 0), Complex(19.0, 0.0));
  EXPECT_EQ(C.at(0, 1), Complex(22.0, 0.0));
  EXPECT_EQ(C.at(1, 0), Complex(43.0, 0.0));
  EXPECT_EQ(C.at(1, 1), Complex(50.0, 0.0));
}

TEST(MatrixTest, AdjointConjugatesAndTransposes) {
  Matrix A = Matrix::fromRows({{Complex(1, 2), Complex(3, -1)},
                               {Complex(0, 1), Complex(2, 0)}});
  Matrix Ad = A.adjoint();
  EXPECT_EQ(Ad.at(0, 0), Complex(1, -2));
  EXPECT_EQ(Ad.at(1, 0), Complex(3, 1));
  EXPECT_EQ(Ad.at(0, 1), Complex(0, -1));
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix A = Matrix::fromRows({{1.0, 2.0}, {3.0, 4.0}});
  CVector V = {Complex(1, 0), Complex(1, 0)};
  CVector R = A * V;
  EXPECT_EQ(R[0], Complex(3, 0));
  EXPECT_EQ(R[1], Complex(7, 0));
}

TEST(MatrixTest, KroneckerProduct) {
  Matrix X = Matrix::fromRows({{0.0, 1.0}, {1.0, 0.0}});
  Matrix Z = Matrix::fromRows({{1.0, 0.0}, {0.0, -1.0}});
  Matrix K = Matrix::kron(Z, X); // Z on qubit 1, X on qubit 0
  EXPECT_EQ(K.rows(), 4u);
  EXPECT_EQ(K.at(0, 1), Complex(1, 0));
  EXPECT_EQ(K.at(1, 0), Complex(1, 0));
  EXPECT_EQ(K.at(2, 3), Complex(-1, 0));
  EXPECT_EQ(K.at(3, 2), Complex(-1, 0));
}

TEST(MatrixTest, UnitaryCheck) {
  const double S = 1.0 / std::sqrt(2.0);
  Matrix H = Matrix::fromRows({{S, S}, {S, -S}});
  EXPECT_TRUE(H.isUnitary());
  Matrix NotU = Matrix::fromRows({{1.0, 1.0}, {0.0, 1.0}});
  EXPECT_FALSE(NotU.isUnitary());
}

TEST(MatrixTest, OneNormIsMaxColumnSum) {
  Matrix A = Matrix::fromRows({{1.0, -4.0}, {2.0, 3.0}});
  EXPECT_DOUBLE_EQ(A.oneNorm(), 7.0);
}

TEST(LUTest, SolvesKnownSystem) {
  Matrix A = Matrix::fromRows({{2.0, 1.0}, {1.0, 3.0}});
  CVector B = {Complex(5, 0), Complex(10, 0)};
  LU Fact(A);
  ASSERT_FALSE(Fact.isSingular());
  CVector X = Fact.solve(B);
  EXPECT_NEAR(std::abs(X[0] - Complex(1, 0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(X[1] - Complex(3, 0)), 0.0, 1e-12);
}

TEST(LUTest, DeterminantAndSingularity) {
  Matrix A = Matrix::fromRows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_NEAR(std::abs(LU(A).determinant() - Complex(-2, 0)), 0.0, 1e-12);
  Matrix S = Matrix::fromRows({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_TRUE(LU(S).isSingular());
}

TEST(LUTest, RandomSystemsRoundTrip) {
  RNG Rng(11);
  for (int Trial = 0; Trial < 20; ++Trial) {
    size_t N = 2 + Rng.uniformInt(6);
    Matrix A = randomMatrix(N, Rng);
    CVector X(N);
    for (auto &V : X)
      V = Complex(Rng.gaussian(), Rng.gaussian());
    CVector B = A * X;
    LU Fact(A);
    ASSERT_FALSE(Fact.isSingular());
    CVector Got = Fact.solve(B);
    for (size_t I = 0; I < N; ++I)
      EXPECT_NEAR(std::abs(Got[I] - X[I]), 0.0, 1e-9);
  }
}

TEST(ExpmTest, ZeroGivesIdentity) {
  Matrix Z(3, 3);
  EXPECT_NEAR(expm(Z).maxAbsDiff(Matrix::identity(3)), 0.0, 1e-14);
}

TEST(ExpmTest, DiagonalMatrix) {
  Matrix D(2, 2);
  D.at(0, 0) = Complex(1.0, 0.0);
  D.at(1, 1) = Complex(0.0, M_PI);
  Matrix E = expm(D);
  EXPECT_NEAR(std::abs(E.at(0, 0) - Complex(std::exp(1.0), 0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(E.at(1, 1) - Complex(-1.0, 0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(E.at(0, 1)), 0.0, 1e-14);
}

TEST(ExpmTest, PauliXRotation) {
  // expm(i theta X) = cos(theta) I + i sin(theta) X.
  Matrix X = Matrix::fromRows({{0.0, 1.0}, {1.0, 0.0}});
  double Theta = 0.7;
  Matrix E = expm(X * Complex(0.0, Theta));
  EXPECT_NEAR(std::abs(E.at(0, 0) - Complex(std::cos(Theta), 0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(E.at(0, 1) - Complex(0, std::sin(Theta))), 0.0, 1e-12);
  EXPECT_TRUE(E.isUnitary(1e-10));
}

TEST(ExpmTest, LargeNormUsesScaling) {
  // A matrix with norm >> theta13 exercises the squaring phase.
  Matrix X = Matrix::fromRows({{0.0, 1.0}, {1.0, 0.0}});
  double Theta = 50.3;
  Matrix E = expm(X * Complex(0.0, Theta));
  EXPECT_NEAR(std::abs(E.at(0, 0) - Complex(std::cos(Theta), 0)), 0.0, 1e-9);
  EXPECT_TRUE(E.isUnitary(1e-8));
}

TEST(ExpmTest, MatchesTaylorOnRandomSmallMatrix) {
  RNG Rng(12);
  Matrix A = randomMatrix(4, Rng);
  A *= Complex(0.2, 0.0); // keep the series quickly convergent
  Matrix E = expm(A);
  // Direct Taylor sum.
  Matrix Sum = Matrix::identity(4);
  Matrix Term = Matrix::identity(4);
  for (int K = 1; K <= 30; ++K) {
    Term = Term * A;
    Term *= Complex(1.0 / K, 0.0);
    Sum += Term;
  }
  EXPECT_NEAR(E.maxAbsDiff(Sum), 0.0, 1e-10);
}

TEST(EigenTest, DiagonalMatrix) {
  std::vector<double> A = {3.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0};
  auto Eigs = realEigenvalues(A, 3);
  EXPECT_NEAR(Eigs[0].real(), 3.0, 1e-10);
  EXPECT_NEAR(Eigs[1].real(), 2.0, 1e-10);
  EXPECT_NEAR(Eigs[2].real(), -1.0, 1e-10);
}

TEST(EigenTest, RotationBlockGivesComplexPair) {
  // [[cos, -sin], [sin, cos]] has eigenvalues e^{+-i theta}.
  double Theta = 0.6;
  std::vector<double> A = {std::cos(Theta), -std::sin(Theta),
                           std::sin(Theta), std::cos(Theta)};
  auto Eigs = realEigenvalues(A, 2);
  EXPECT_NEAR(std::abs(Eigs[0]), 1.0, 1e-10);
  EXPECT_NEAR(std::abs(Eigs[0].imag()), std::sin(Theta), 1e-10);
  EXPECT_NEAR(Eigs[0].real(), std::cos(Theta), 1e-10);
}

TEST(EigenTest, PermutationCirculantHasRootsOfUnity) {
  // The cyclic shift on 5 elements has the 5th roots of unity as spectrum.
  const size_t N = 5;
  std::vector<double> A(N * N, 0.0);
  for (size_t I = 0; I < N; ++I)
    A[I * N + (I + 1) % N] = 1.0;
  auto Eigs = realEigenvalues(A, N);
  ASSERT_EQ(Eigs.size(), N);
  for (const auto &E : Eigs)
    EXPECT_NEAR(std::abs(E), 1.0, 1e-9);
  // One eigenvalue is exactly 1.
  bool HasOne = false;
  for (const auto &E : Eigs)
    HasOne |= std::abs(E - Complex(1, 0)) < 1e-9;
  EXPECT_TRUE(HasOne);
}

TEST(EigenTest, CompanionMatrixRecoversPolynomialRoots) {
  // Companion matrix of p(x) = (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6.
  std::vector<double> A = {6.0, -11.0, 6.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0};
  auto Eigs = realEigenvalues(A, 3);
  EXPECT_NEAR(Eigs[0].real(), 3.0, 1e-8);
  EXPECT_NEAR(Eigs[1].real(), 2.0, 1e-8);
  EXPECT_NEAR(Eigs[2].real(), 1.0, 1e-8);
}

TEST(EigenTest, RankOneStochasticMatrix) {
  // Every row equal to pi: eigenvalues are {1, 0, 0, 0}.
  std::vector<double> Pi = {0.4, 0.3, 0.2, 0.1};
  std::vector<double> A(16);
  for (size_t I = 0; I < 4; ++I)
    for (size_t J = 0; J < 4; ++J)
      A[I * 4 + J] = Pi[J];
  auto Eigs = realEigenvalues(A, 4);
  EXPECT_NEAR(std::abs(Eigs[0]), 1.0, 1e-10);
  for (size_t K = 1; K < 4; ++K)
    EXPECT_NEAR(std::abs(Eigs[K]), 0.0, 1e-10);
}

TEST(EigenTest, TraceAndSumAgreeOnRandomMatrices) {
  RNG Rng(13);
  for (int Trial = 0; Trial < 10; ++Trial) {
    size_t N = 3 + Rng.uniformInt(8);
    std::vector<double> A(N * N);
    double Trace = 0.0;
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J) {
        A[I * N + J] = Rng.gaussian();
        if (I == J)
          Trace += A[I * N + J];
      }
    auto Eigs = realEigenvalues(A, N);
    Complex Sum = 0.0;
    for (const auto &E : Eigs)
      Sum += E;
    EXPECT_NEAR(Sum.real(), Trace, 1e-7);
    EXPECT_NEAR(Sum.imag(), 0.0, 1e-7);
  }
}

TEST(EigenTest, StochasticMatrixLeadingEigenvalueIsOne) {
  RNG Rng(14);
  for (int Trial = 0; Trial < 10; ++Trial) {
    size_t N = 3 + Rng.uniformInt(10);
    std::vector<double> A(N * N);
    for (size_t I = 0; I < N; ++I) {
      double Sum = 0;
      for (size_t J = 0; J < N; ++J) {
        A[I * N + J] = Rng.uniform() + 1e-3;
        Sum += A[I * N + J];
      }
      for (size_t J = 0; J < N; ++J)
        A[I * N + J] /= Sum;
    }
    // Sorted by magnitude, largest first.
    auto Eigs = realEigenvalues(A, N);
    EXPECT_NEAR(std::abs(Eigs[0]), 1.0, 1e-8);
    for (const auto &E : Eigs)
      EXPECT_LE(std::abs(E), 1.0 + 1e-8);
  }
}

TEST(EigenTest, UpperTriangularEigenvaluesAreDiagonal) {
  std::vector<double> A = {2.0, 5.0, -3.0, 0.0, -1.5, 7.0, 0.0, 0.0, 4.0};
  auto Eigs = realEigenvalues(A, 3);
  EXPECT_NEAR(Eigs[0].real(), 4.0, 1e-9);
  EXPECT_NEAR(Eigs[1].real(), 2.0, 1e-9);
  EXPECT_NEAR(Eigs[2].real(), -1.5, 1e-9);
}

TEST(EigenTest, DefectiveJordanBlock) {
  // [[3, 1], [0, 3]] has a double eigenvalue 3 with a single eigenvector.
  std::vector<double> A = {3.0, 1.0, 0.0, 3.0};
  auto Eigs = realEigenvalues(A, 2);
  EXPECT_NEAR(Eigs[0].real(), 3.0, 1e-7);
  EXPECT_NEAR(Eigs[1].real(), 3.0, 1e-7);
  EXPECT_NEAR(Eigs[0].imag(), 0.0, 1e-7);
}

TEST(EigenTest, SingleElementMatrix) {
  std::vector<double> A = {-2.5};
  auto Eigs = realEigenvalues(A, 1);
  ASSERT_EQ(Eigs.size(), 1u);
  EXPECT_DOUBLE_EQ(Eigs[0].real(), -2.5);
}

TEST(VectorTest, InnerProductAndNorm) {
  CVector A = {Complex(1, 1), Complex(0, 2)};
  CVector B = {Complex(2, 0), Complex(1, 0)};
  Complex IP = innerProduct(A, B);
  // <A,B> = conj(1+i)*2 + conj(2i)*1 = (2-2i) + (-2i) = 2 - 4i.
  EXPECT_NEAR(std::abs(IP - Complex(2, -4)), 0.0, 1e-14);
  EXPECT_NEAR(vectorNorm(A), std::sqrt(6.0), 1e-14);
}
