//===- tests/FermionTest.cpp - Jordan-Wigner tests -----------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fermion/JordanWigner.h"

#include <gtest/gtest.h>

using namespace marqsim;

namespace {

/// {A, B} = AB + BA.
PauliSum anticommutator(const PauliSum &A, const PauliSum &B) {
  return A * B + B * A;
}

/// A - B = A + (-1) B. Only these tests subtract operators, so the
/// library's PauliSum has no operator-.
PauliSum operator-(const PauliSum &A, const PauliSum &B) {
  return A + B * Complex(-1.0, 0.0);
}

/// [A, B] = AB - BA.
PauliSum commutator(const PauliSum &A, const PauliSum &B) {
  return A * B - B * A;
}

bool equalsScalar(const PauliSum &S, Complex C) {
  PauliSum D = S - PauliSum::scalar(C);
  return D.isZero(1e-12);
}

} // namespace

TEST(JordanWignerTest, CanonicalAnticommutationRelations) {
  const unsigned Modes = 4;
  for (unsigned P = 0; P < Modes; ++P)
    for (unsigned Q = 0; Q < Modes; ++Q) {
      // {a_p, a_q^dag} = delta_pq.
      PauliSum AC = anticommutator(jwAnnihilation(P), jwCreation(Q));
      EXPECT_TRUE(equalsScalar(AC, P == Q ? Complex(1, 0) : Complex(0, 0)))
          << "p=" << P << " q=" << Q;
      // {a_p, a_q} = 0.
      PauliSum AA = anticommutator(jwAnnihilation(P), jwAnnihilation(Q));
      EXPECT_TRUE(AA.isZero(1e-12)) << "p=" << P << " q=" << Q;
    }
}

TEST(JordanWignerTest, AnnihilationSquaresToZero) {
  for (unsigned P = 0; P < 4; ++P) {
    PauliSum Sq = jwAnnihilation(P) * jwAnnihilation(P);
    EXPECT_TRUE(Sq.isZero(1e-12));
    PauliSum SqDag = jwCreation(P) * jwCreation(P);
    EXPECT_TRUE(SqDag.isZero(1e-12));
  }
}

TEST(JordanWignerTest, NumberOperatorIdentity) {
  for (unsigned P = 0; P < 4; ++P) {
    PauliSum N = jwCreation(P) * jwAnnihilation(P);
    PauliSum Expected = jwNumber(P);
    EXPECT_TRUE((N - Expected).isZero(1e-12));
    // n^2 = n (projector).
    EXPECT_TRUE((N * N - N).isZero(1e-12));
  }
}

TEST(JordanWignerTest, MajoranaAlgebra) {
  const unsigned Modes = 6; // Majorana indices 0..5 over 3 qubits
  for (unsigned I = 0; I < Modes; ++I)
    for (unsigned J = 0; J < Modes; ++J) {
      PauliSum AC = anticommutator(jwMajorana(I), jwMajorana(J));
      // {chi_i, chi_j} = 2 delta_ij.
      EXPECT_TRUE(equalsScalar(AC, I == J ? Complex(2, 0) : Complex(0, 0)))
          << "i=" << I << " j=" << J;
    }
}

TEST(JordanWignerTest, MajoranaFromLadderOperators) {
  for (unsigned P = 0; P < 3; ++P) {
    PauliSum Chi0 = jwAnnihilation(P) + jwCreation(P);
    EXPECT_TRUE((Chi0 - jwMajorana(2 * P)).isZero(1e-12));
    PauliSum Chi1 =
        (jwAnnihilation(P) - jwCreation(P)) * Complex(0.0, -1.0);
    EXPECT_TRUE((Chi1 - jwMajorana(2 * P + 1)).isZero(1e-12));
  }
}

TEST(JordanWignerTest, OneBodyTermsAreHermitian) {
  for (unsigned P = 0; P < 4; ++P)
    for (unsigned Q = 0; Q < 4; ++Q) {
      PauliSum T = jwOneBody(0.37, P, Q);
      EXPECT_TRUE(T.isHermitian()) << "p=" << P << " q=" << Q;
    }
}

TEST(JordanWignerTest, OneBodyHoppingStructure) {
  // a_0^dag a_1 + a_1^dag a_0 = (X X + Y Y) / 2 on qubits 0,1.
  PauliSum T = jwOneBody(1.0, 0, 1);
  Hamiltonian H = T.toHamiltonian(2);
  ASSERT_EQ(H.numTerms(), 2u);
  for (const auto &Term : H.terms())
    EXPECT_NEAR(Term.Coeff, 0.5, 1e-12);
}

TEST(JordanWignerTest, TwoBodyPauliExclusion) {
  // p == q annihilates the creation pair.
  PauliSum T = jwTwoBody(1.0, 2, 2, 1, 0);
  EXPECT_TRUE(T.isZero(1e-12));
  PauliSum T2 = jwTwoBody(1.0, 3, 2, 1, 1);
  EXPECT_TRUE(T2.isZero(1e-12));
}

TEST(JordanWignerTest, TwoBodyHermitianAndCommutesWithParity) {
  PauliSum T = jwTwoBody(0.8, 3, 2, 1, 0);
  EXPECT_FALSE(T.isZero());
  EXPECT_TRUE(T.isHermitian());
  // Every fermionic bilinear/quartic commutes with total parity Z...Z.
  PauliSum Parity =
      PauliSum::term(Complex(1, 0), PauliString(0, 0xF));
  EXPECT_TRUE(commutator(T, Parity).isZero(1e-12));
}

TEST(JordanWignerTest, DensityDensityIsDiagonal) {
  // a_p^dag a_q^dag a_q a_p = n_p n_q: only I/Z strings appear.
  PauliSum T = jwTwoBody(1.0, 0, 2, 2, 0);
  EXPECT_FALSE(T.isZero());
  for (const auto &[P, C] : T.terms())
    EXPECT_EQ(P.xMask(), 0u) << "non-diagonal term in density-density";
  // And it equals 2 * n_0 n_2 (term + its adjoint are identical here).
  PauliSum NN = jwNumber(0) * jwNumber(2) * Complex(2.0, 0.0);
  EXPECT_TRUE((T - NN).isZero(1e-12));
}

TEST(JordanWignerTest, ParityStringsOnHighModes) {
  // a_3 must carry Z parity on qubits 0..2.
  PauliSum A = jwAnnihilation(3);
  for (const auto &[P, C] : A.terms()) {
    EXPECT_EQ(P.zMask() & 0x7ULL, 0x7ULL);
    EXPECT_EQ(P.xMask(), 1ULL << 3);
  }
}
