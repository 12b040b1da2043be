//===- tests/PauliTest.cpp - Pauli algebra tests -------------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pauli/Hamiltonian.h"
#include "pauli/CommutingGroups.h"
#include "pauli/HamiltonianIO.h"
#include "pauli/PauliString.h"
#include "pauli/PauliSum.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace marqsim;

namespace {

Matrix denseOp(PauliOpKind K) {
  const Complex I(0, 1);
  switch (K) {
  case PauliOpKind::I:
    return Matrix::identity(2);
  case PauliOpKind::X:
    return Matrix::fromRows({{0.0, 1.0}, {1.0, 0.0}});
  case PauliOpKind::Y:
    return Matrix::fromRows({{0.0, -I}, {I, 0.0}});
  case PauliOpKind::Z:
    return Matrix::fromRows({{1.0, 0.0}, {0.0, -1.0}});
  }
  return Matrix();
}

/// Dense matrix of a string built purely by Kronecker products
/// (independent of PauliString::toMatrix).
Matrix denseString(const PauliString &P, unsigned N) {
  Matrix M = Matrix::identity(1);
  for (unsigned Q = N; Q-- > 0;)
    M = Matrix::kron(M, denseOp(P.op(Q)));
  return M;
}

PauliString randomString(unsigned N, RNG &Rng) {
  PauliString P;
  for (unsigned Q = 0; Q < N; ++Q)
    P.setOp(Q, static_cast<PauliOpKind>(Rng.uniformInt(4)));
  return P;
}

} // namespace

TEST(PauliStringTest, ParseAndPrintRoundTrip) {
  auto P = PauliString::parse("XYZI");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->str(4), "XYZI");
  EXPECT_EQ(P->op(0), PauliOpKind::I);
  EXPECT_EQ(P->op(1), PauliOpKind::Z);
  EXPECT_EQ(P->op(2), PauliOpKind::Y);
  EXPECT_EQ(P->op(3), PauliOpKind::X);
}

TEST(PauliStringTest, ParseRejectsGarbage) {
  EXPECT_FALSE(PauliString::parse("XQ").has_value());
  EXPECT_TRUE(PauliString::parse("").has_value()); // identity on 0 qubits
}

TEST(PauliStringTest, SetOpAndWeight) {
  PauliString P;
  EXPECT_TRUE(P.isIdentity());
  P.setOp(2, PauliOpKind::Y);
  P.setOp(5, PauliOpKind::Z);
  EXPECT_EQ(P.weight(), 2u);
  EXPECT_EQ(P.op(2), PauliOpKind::Y);
  P.setOp(2, PauliOpKind::I);
  EXPECT_EQ(P.weight(), 1u);
}

TEST(PauliStringTest, SingleQubitProductTable) {
  // Check sigma_a * sigma_b against dense matrices for all 16 pairs.
  static const Complex IPow[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  for (int A = 0; A < 4; ++A)
    for (int B = 0; B < 4; ++B) {
      PauliString PA, PB;
      PA.setOp(0, static_cast<PauliOpKind>(A));
      PB.setOp(0, static_cast<PauliOpKind>(B));
      int Pow = 0;
      PauliString PR = PA.multiply(PB, Pow);
      Matrix Lhs = denseString(PA, 1) * denseString(PB, 1);
      Matrix Rhs = denseString(PR, 1) * IPow[Pow];
      EXPECT_NEAR(Lhs.maxAbsDiff(Rhs), 0.0, 1e-14)
          << "A=" << A << " B=" << B;
    }
}

TEST(PauliStringTest, MultiQubitProductsMatchDense) {
  static const Complex IPow[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  RNG Rng(21);
  for (int Trial = 0; Trial < 50; ++Trial) {
    unsigned N = 1 + Rng.uniformInt(4);
    PauliString A = randomString(N, Rng);
    PauliString B = randomString(N, Rng);
    int Pow = 0;
    PauliString R = A.multiply(B, Pow);
    Matrix Lhs = denseString(A, N) * denseString(B, N);
    Matrix Rhs = denseString(R, N) * IPow[Pow];
    ASSERT_NEAR(Lhs.maxAbsDiff(Rhs), 0.0, 1e-12);
  }
}

TEST(PauliStringTest, CommutationMatchesDense) {
  RNG Rng(22);
  for (int Trial = 0; Trial < 50; ++Trial) {
    unsigned N = 1 + Rng.uniformInt(3);
    PauliString A = randomString(N, Rng);
    PauliString B = randomString(N, Rng);
    Matrix MA = denseString(A, N), MB = denseString(B, N);
    double CommNorm = (MA * MB - MB * MA).frobeniusNorm();
    EXPECT_EQ(A.commutesWith(B), CommNorm < 1e-12);
  }
}

TEST(PauliStringTest, ToMatrixMatchesKron) {
  RNG Rng(23);
  for (int Trial = 0; Trial < 30; ++Trial) {
    unsigned N = 1 + Rng.uniformInt(4);
    PauliString P = randomString(N, Rng);
    EXPECT_NEAR(P.toMatrix(N).maxAbsDiff(denseString(P, N)), 0.0, 1e-14);
  }
}

TEST(PauliStringTest, MatchedOpsCountsEqualNonIdentity) {
  auto A = *PauliString::parse("ZZZZ");
  auto B = *PauliString::parse("XZXZ");
  // Matches at qubit 2 and qubit 0 (both Z).
  EXPECT_EQ(A.matchedOps(B), 2u);
  EXPECT_EQ(B.matchedOps(A), 2u);
  auto C = *PauliString::parse("IIII");
  EXPECT_EQ(A.matchedOps(C), 0u);
  EXPECT_EQ(A.matchedOps(A), 4u);
}

TEST(PauliStringTest, SixtyFourQubitBoundary) {
  // Bit 63 must work: masks, ops, weights, products, commutation.
  PauliString P;
  P.setOp(63, PauliOpKind::Y);
  P.setOp(0, PauliOpKind::Z);
  EXPECT_EQ(P.op(63), PauliOpKind::Y);
  EXPECT_EQ(P.weight(), 2u);
  EXPECT_EQ(P.xMask(), 1ULL << 63);
  EXPECT_EQ(P.zMask(), (1ULL << 63) | 1ULL);

  PauliString Q;
  Q.setOp(63, PauliOpKind::X);
  EXPECT_FALSE(P.commutesWith(Q)); // Y vs X on qubit 63
  int Pow = 0;
  PauliString R = P.multiply(Q, Pow);
  EXPECT_EQ(R.op(63), PauliOpKind::Z); // Y * X = -i Z
  EXPECT_EQ(Pow, 3);                   // phase -i = i^3

  std::string Text = P.str(64);
  EXPECT_EQ(Text.size(), 64u);
  EXPECT_EQ(Text.front(), 'Y');
  EXPECT_EQ(Text.back(), 'Z');
  auto Parsed = PauliString::parse(Text);
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_TRUE(*Parsed == P);
}

TEST(PauliStringTest, MatchedOpsAtHighQubits) {
  PauliString A, B;
  A.setOp(63, PauliOpKind::Z);
  A.setOp(40, PauliOpKind::X);
  B.setOp(63, PauliOpKind::Z);
  B.setOp(40, PauliOpKind::Y);
  EXPECT_EQ(A.matchedOps(B), 1u);
}

TEST(PauliStringTest, OrderingIsStrictWeak) {
  auto A = *PauliString::parse("IX");
  auto B = *PauliString::parse("XI");
  EXPECT_TRUE(A < B || B < A);
  EXPECT_FALSE(A < A);
}

TEST(HamiltonianTest, ParseAndLambda) {
  Hamiltonian H = Hamiltonian::parse(
      {{1.0, "IIIZ"}, {0.5, "IIZZ"}, {0.4, "XXYY"}, {0.1, "ZXZY"}});
  EXPECT_EQ(H.numQubits(), 4u);
  EXPECT_EQ(H.numTerms(), 4u);
  EXPECT_DOUBLE_EQ(H.lambda(), 2.0);
  auto Pi = H.stationaryDistribution();
  EXPECT_DOUBLE_EQ(Pi[0], 0.5);
  EXPECT_DOUBLE_EQ(Pi[1], 0.25);
  EXPECT_DOUBLE_EQ(Pi[2], 0.2);
  EXPECT_DOUBLE_EQ(Pi[3], 0.05);
}

TEST(HamiltonianTest, ZeroCoefficientTermsDropped) {
  Hamiltonian H(2);
  H.addTerm(0.0, *PauliString::parse("XX"));
  EXPECT_TRUE(H.empty());
}

TEST(HamiltonianTest, MergedCombinesDuplicates) {
  Hamiltonian H(2);
  H.addTerm(0.5, *PauliString::parse("XX"));
  H.addTerm(0.25, *PauliString::parse("XX"));
  H.addTerm(-0.75, *PauliString::parse("ZZ"));
  H.addTerm(0.75, *PauliString::parse("ZZ"));
  Hamiltonian M = H.merged();
  EXPECT_EQ(M.numTerms(), 1u);
  EXPECT_DOUBLE_EQ(M.term(0).Coeff, 0.75);
}

TEST(HamiltonianTest, SplitLargeTermsEnforcesCap) {
  Hamiltonian H(2);
  H.addTerm(0.9, *PauliString::parse("XX"));
  H.addTerm(0.1, *PauliString::parse("ZZ"));
  Hamiltonian S = H.splitLargeTerms(0.5);
  EXPECT_DOUBLE_EQ(S.lambda(), H.lambda());
  auto Pi = S.stationaryDistribution();
  for (double P : Pi)
    EXPECT_LE(P, 0.5 + 1e-12);
  // Total weight on XX preserved.
  double XXWeight = 0.0;
  for (const auto &T : S.terms())
    if (T.String == *PauliString::parse("XX"))
      XXWeight += T.Coeff;
  EXPECT_DOUBLE_EQ(XXWeight, 0.9);
}

TEST(HamiltonianTest, RescaledToLambdaPreservesStationary) {
  Hamiltonian H = Hamiltonian::parse(
      {{1.0, "IIIZ"}, {0.5, "IIZZ"}, {0.4, "XXYY"}, {0.1, "ZXZY"}});
  Hamiltonian R = H.rescaledToLambda(10.0);
  EXPECT_NEAR(R.lambda(), 10.0, 1e-12);
  auto PiH = H.stationaryDistribution();
  auto PiR = R.stationaryDistribution();
  for (size_t I = 0; I < PiH.size(); ++I)
    EXPECT_NEAR(PiH[I], PiR[I], 1e-12);
  // Signs preserved.
  Hamiltonian Neg = Hamiltonian::parse({{-0.5, "XX"}, {0.5, "ZZ"}});
  Hamiltonian NegR = Neg.rescaledToLambda(2.0);
  EXPECT_DOUBLE_EQ(NegR.term(0).Coeff, -1.0);
}

TEST(HamiltonianTest, DenseMatrixMatchesTermSum) {
  Hamiltonian H = Hamiltonian::parse({{0.7, "XZ"}, {-0.3, "YY"}});
  Matrix Expect =
      denseString(*PauliString::parse("XZ"), 2) * Complex(0.7, 0.0);
  Expect += denseString(*PauliString::parse("YY"), 2) * Complex(-0.3, 0.0);
  EXPECT_NEAR(H.toMatrix().maxAbsDiff(Expect), 0.0, 1e-14);
}

TEST(HamiltonianTest, DenseMatrixIsHermitian) {
  RNG Rng(24);
  Hamiltonian H(3);
  for (int K = 0; K < 6; ++K)
    H.addTerm(Rng.gaussian(), randomString(3, Rng));
  if (H.empty())
    GTEST_SKIP();
  Matrix M = H.toMatrix();
  EXPECT_NEAR(M.maxAbsDiff(M.adjoint()), 0.0, 1e-12);
}

TEST(CommutingGroupsTest, PartitionIsValidAndComplete) {
  RNG Rng(141);
  Hamiltonian H(5);
  for (int K = 0; K < 30; ++K)
    H.addTerm(Rng.gaussian() + 2.0, randomString(5, Rng));
  Hamiltonian M = H.merged();
  auto Groups = groupCommutingTerms(M);
  EXPECT_TRUE(isValidCommutingPartition(M, Groups));
  size_t Total = 0;
  for (const auto &G : Groups)
    Total += G.size();
  EXPECT_EQ(Total, M.numTerms());
}

TEST(CommutingGroupsTest, FullyCommutingCollapsesToOneGroup) {
  // All-Z strings mutually commute.
  Hamiltonian H = Hamiltonian::parse(
      {{1.0, "ZZII"}, {0.5, "IZZI"}, {0.3, "ZIIZ"}, {0.2, "IIZZ"}});
  auto Groups = groupCommutingTerms(H);
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_EQ(Groups[0].size(), 4u);
}

TEST(CommutingGroupsTest, AnticommutingPairSplits) {
  Hamiltonian H = Hamiltonian::parse({{1.0, "X"}, {1.0, "Z"}});
  auto Groups = groupCommutingTerms(H);
  EXPECT_EQ(Groups.size(), 2u);
}

TEST(CommutingGroupsTest, ValidatorCatchesBadPartitions) {
  Hamiltonian H = Hamiltonian::parse({{1.0, "X"}, {1.0, "Z"}});
  // Anticommuting pair in one group.
  EXPECT_FALSE(isValidCommutingPartition(H, {{0, 1}}));
  // Missing term.
  EXPECT_FALSE(isValidCommutingPartition(H, {{0}}));
  // Duplicated term.
  EXPECT_FALSE(isValidCommutingPartition(H, {{0}, {0}, {1}}));
  // Correct partition.
  EXPECT_TRUE(isValidCommutingPartition(H, {{0}, {1}}));
}

TEST(HamiltonianIOTest, ReadsWellFormedInput) {
  std::istringstream IS("# a comment\n"
                        "1.0  IIIZ\n"
                        "\n"
                        "-0.5 XXYY # trailing comment\n");
  std::string Error;
  auto H = readHamiltonian(IS, &Error);
  ASSERT_TRUE(H.has_value()) << Error;
  EXPECT_EQ(H->numQubits(), 4u);
  EXPECT_EQ(H->numTerms(), 2u);
  EXPECT_DOUBLE_EQ(H->term(1).Coeff, -0.5);
}

TEST(HamiltonianIOTest, RejectsMalformedInput) {
  std::string Error;
  {
    std::istringstream IS("1.0 XQ\n");
    EXPECT_FALSE(readHamiltonian(IS, &Error).has_value());
    EXPECT_NE(Error.find("malformed Pauli string"), std::string::npos);
  }
  {
    std::istringstream IS("abc XX\n");
    EXPECT_FALSE(readHamiltonian(IS, &Error).has_value());
    EXPECT_NE(Error.find("malformed coefficient"), std::string::npos);
  }
  {
    std::istringstream IS("1.0 XX\n1.0 XXX\n");
    EXPECT_FALSE(readHamiltonian(IS, &Error).has_value());
    EXPECT_NE(Error.find("inconsistent"), std::string::npos);
  }
  {
    std::istringstream IS("1.0 XX extra\n");
    EXPECT_FALSE(readHamiltonian(IS, &Error).has_value());
  }
  {
    std::istringstream IS("# only comments\n");
    EXPECT_FALSE(readHamiltonian(IS, &Error).has_value());
    EXPECT_NE(Error.find("no terms"), std::string::npos);
  }
}

TEST(PauliSumTest, ScalarAndTermConstruction) {
  PauliSum S = PauliSum::scalar(Complex(2, 1));
  EXPECT_EQ(S.numTerms(), 1u);
  PauliSum T = PauliSum::term(Complex(0, 1), *PauliString::parse("X"));
  EXPECT_FALSE(T.isZero());
}

TEST(PauliSumTest, ProductMatchesDense) {
  RNG Rng(25);
  const unsigned N = 3;
  for (int Trial = 0; Trial < 20; ++Trial) {
    PauliSum A, B;
    Matrix DA(1 << N, 1 << N), DB(1 << N, 1 << N);
    for (int K = 0; K < 3; ++K) {
      PauliString P = randomString(N, Rng);
      Complex C(Rng.gaussian(), Rng.gaussian());
      A.add(C, P);
      DA += denseString(P, N) * C;
      PauliString Q = randomString(N, Rng);
      Complex D(Rng.gaussian(), Rng.gaussian());
      B.add(D, Q);
      DB += denseString(Q, N) * D;
    }
    PauliSum Prod = A * B;
    Matrix DProd(1 << N, 1 << N);
    for (const auto &[P, C] : Prod.terms())
      DProd += denseString(P, N) * C;
    ASSERT_NEAR(DProd.maxAbsDiff(DA * DB), 0.0, 1e-10);
  }
}

TEST(PauliSumTest, AdjointAndHermiticity) {
  PauliSum S;
  S.add(Complex(0, 1), *PauliString::parse("X"));
  EXPECT_FALSE(S.isHermitian());
  PauliSum H = S + S.adjoint();
  EXPECT_TRUE(H.isZero()); // iX + (-i)X = 0
  PauliSum R;
  R.add(Complex(0.5, 0), *PauliString::parse("Z"));
  EXPECT_TRUE(R.isHermitian());
}

TEST(PauliSumTest, PruneRemovesTinyTerms) {
  PauliSum S;
  S.add(Complex(1e-15, 0), *PauliString::parse("X"));
  S.add(Complex(1.0, 0), *PauliString::parse("Z"));
  S.prune(1e-12);
  EXPECT_EQ(S.numTerms(), 1u);
}

TEST(PauliSumTest, ToHamiltonianDropsIdentity) {
  PauliSum S;
  S.add(Complex(3.0, 0), PauliString());
  S.add(Complex(0.5, 0), *PauliString::parse("ZZ"));
  Hamiltonian H = S.toHamiltonian(2);
  EXPECT_EQ(H.numTerms(), 1u);
  EXPECT_DOUBLE_EQ(H.term(0).Coeff, 0.5);
  Hamiltonian HKeep = S.toHamiltonian(2, /*DropIdentity=*/false);
  EXPECT_EQ(HKeep.numTerms(), 2u);
}
