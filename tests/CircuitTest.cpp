//===- tests/CircuitTest.cpp - circuit IR / synthesis / optimizer tests --------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "circuit/Circuit.h"
#include "circuit/Optimizer.h"
#include "circuit/PauliEvolution.h"
#include "circuit/QasmExport.h"
#include "linalg/Expm.h"
#include "sim/StateVector.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace marqsim;

TEST(CircuitTest, AppendAndCounts) {
  Circuit C(3);
  C.h(0);
  C.cnot(0, 1);
  C.rz(2, 0.5);
  C.cnot(1, 2);
  GateCounts Counts = C.counts();
  EXPECT_EQ(Counts.CNOTs, 2u);
  EXPECT_EQ(Counts.SingleQubit, 2u);
  EXPECT_EQ(Counts.total(), 4u);
}

TEST(CircuitTest, GateOverlap) {
  Gate H(GateKind::H, 1);
  Gate Cx = Gate::cnot(0, 1);
  Gate Cx2 = Gate::cnot(2, 3);
  EXPECT_TRUE(H.overlaps(Cx));
  EXPECT_FALSE(H.overlaps(Cx2));
  EXPECT_TRUE(Cx.overlaps(Cx));
}

TEST(CircuitTest, DepthOfSerialAndParallelGates) {
  Circuit Serial(1);
  Serial.h(0);
  Serial.s(0);
  Serial.rz(0, 0.5);
  EXPECT_EQ(Serial.depth(), 3u);

  Circuit Parallel(3);
  Parallel.h(0);
  Parallel.h(1);
  Parallel.h(2);
  EXPECT_EQ(Parallel.depth(), 1u);

  Circuit Mixed(3);
  Mixed.h(0);          // layer 1 on q0
  Mixed.cnot(0, 1);    // layer 2 on q0,q1
  Mixed.cnot(1, 2);    // layer 3 on q1,q2
  Mixed.h(0);          // layer 3 on q0
  EXPECT_EQ(Mixed.depth(), 3u);
  EXPECT_EQ(Circuit(4).depth(), 0u);
}

TEST(QasmExportTest, HeaderAndGateSyntax) {
  Circuit C(3);
  C.h(0);
  C.sdg(2);
  C.rz(1, 0.5);
  C.cnot(0, 2);
  std::string Qasm = toQasm(C);
  EXPECT_NE(Qasm.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(Qasm.find("include \"qelib1.inc\";"), std::string::npos);
  EXPECT_NE(Qasm.find("qreg q[3];"), std::string::npos);
  EXPECT_NE(Qasm.find("h q[0];"), std::string::npos);
  EXPECT_NE(Qasm.find("sdg q[2];"), std::string::npos);
  EXPECT_NE(Qasm.find("rz(0.5) q[1];"), std::string::npos);
  EXPECT_NE(Qasm.find("cx q[0],q[2];"), std::string::npos);
}

TEST(QasmExportTest, AnglePrecisionSurvives) {
  Circuit C(1);
  C.rz(0, 1.0 / 3.0);
  std::string Qasm = toQasm(C);
  EXPECT_NE(Qasm.find("0.33333333333333331"), std::string::npos);
}

TEST(QasmExportTest, InstructionCountMatchesCircuit) {
  RNG Rng(45);
  Circuit C(4);
  for (int I = 0; I < 25; ++I) {
    unsigned Q = static_cast<unsigned>(Rng.uniformInt(4));
    if (Rng.bernoulli(0.3)) {
      unsigned R = (Q + 1 + static_cast<unsigned>(Rng.uniformInt(3))) % 4;
      C.cnot(Q, R);
    } else {
      C.h(Q);
    }
  }
  std::string Qasm = toQasm(C);
  size_t Lines = std::count(Qasm.begin(), Qasm.end(), '\n');
  EXPECT_EQ(Lines, C.size() + 3); // header, include, qreg
}

namespace {

/// Dense unitary of exp(i Theta/2 P) computed from first principles.
Matrix exactPauliRotation(const PauliString &P, unsigned N, double Theta) {
  return expm(P.toMatrix(N) * Complex(0.0, Theta / 2.0));
}

} // namespace

struct SynthesisCase {
  const char *Text;
  double Theta;
};

class PauliSynthesisTest : public ::testing::TestWithParam<SynthesisCase> {};

TEST_P(PauliSynthesisTest, CircuitMatchesExponential) {
  const SynthesisCase &Case = GetParam();
  PauliString P = *PauliString::parse(Case.Text);
  unsigned N = static_cast<unsigned>(std::string(Case.Text).size());
  Circuit C(N);
  appendPauliRotation(C, P, Case.Theta);
  Matrix U = circuitUnitary(C);
  Matrix Expected = exactPauliRotation(P, N, Case.Theta);
  EXPECT_NEAR(U.maxAbsDiff(Expected), 0.0, 1e-10)
      << "string " << Case.Text << " theta " << Case.Theta;
}

INSTANTIATE_TEST_SUITE_P(
    Strings, PauliSynthesisTest,
    ::testing::Values(SynthesisCase{"Z", 0.7}, SynthesisCase{"X", 0.7},
                      SynthesisCase{"Y", 0.7}, SynthesisCase{"ZZ", 1.3},
                      SynthesisCase{"XY", -0.4}, SynthesisCase{"YX", 2.1},
                      SynthesisCase{"XYZ", 0.9}, SynthesisCase{"ZIZ", 0.5},
                      SynthesisCase{"IXI", -1.7}, SynthesisCase{"YYYY", 0.3},
                      SynthesisCase{"XZIY", 1.1},
                      SynthesisCase{"ZXZY", -0.6}));

TEST(PauliSynthesisTest, IdentityStringAppendsNothing) {
  Circuit C(3);
  appendPauliRotation(C, PauliString(), 1.0);
  EXPECT_TRUE(C.empty());
}

TEST(PauliSynthesisTest, CustomRootPreservesUnitary) {
  PauliString P = *PauliString::parse("XYZ");
  for (int Root = 0; Root < 3; ++Root) {
    PauliSynthesisOptions Opts;
    Opts.Root = Root;
    Circuit C(3);
    appendPauliRotation(C, P, 0.8, Opts);
    Matrix U = circuitUnitary(C);
    EXPECT_NEAR(U.maxAbsDiff(exactPauliRotation(P, 3, 0.8)), 0.0, 1e-10)
        << "root " << Root;
  }
}

TEST(PauliSynthesisTest, CNOTCountFormula) {
  PauliString P = *PauliString::parse("XYZY");
  Circuit C(4);
  appendPauliRotation(C, P, 0.4);
  EXPECT_EQ(C.counts().CNOTs, pauliRotationCNOTs(P));
  EXPECT_EQ(pauliRotationCNOTs(P), 6u);
  EXPECT_EQ(pauliRotationCNOTs(*PauliString::parse("Z")), 0u);
  EXPECT_EQ(pauliRotationCNOTs(PauliString()), 0u);
}

TEST(OptimizerTest, AdjacentInversePairsCancel) {
  Circuit C(2);
  C.h(0);
  C.h(0);
  C.cnot(0, 1);
  C.cnot(0, 1);
  C.s(1);
  C.sdg(1);
  Circuit Opt = optimizeCircuit(C);
  EXPECT_TRUE(Opt.empty());
}

TEST(OptimizerTest, RotationMerging) {
  Circuit C(1);
  C.rz(0, 0.5);
  C.rz(0, 0.25);
  Circuit Opt = optimizeCircuit(C);
  ASSERT_EQ(Opt.size(), 1u);
  EXPECT_DOUBLE_EQ(Opt.gate(0).Angle, 0.75);
}

TEST(OptimizerTest, OppositeRotationsVanish) {
  Circuit C(1);
  C.rz(0, 0.5);
  C.rz(0, -0.5);
  EXPECT_TRUE(optimizeCircuit(C).empty());
}

TEST(OptimizerTest, CancellationThroughCommutingGates) {
  // CNOT(0,1), Rz on control, CNOT(0,1): the Rz commutes with the control,
  // so the CNOTs cancel.
  Circuit C(2);
  C.cnot(0, 1);
  C.rz(0, 0.3);
  C.cnot(0, 1);
  Circuit Opt = optimizeCircuit(C);
  ASSERT_EQ(Opt.size(), 1u);
  EXPECT_EQ(Opt.gate(0).Kind, GateKind::Rz);
}

TEST(OptimizerTest, BlockedCancellationIsKept) {
  // H on the target blocks CNOT cancellation.
  Circuit C(2);
  C.cnot(0, 1);
  C.h(1);
  C.cnot(0, 1);
  Circuit Opt = optimizeCircuit(C);
  EXPECT_EQ(Opt.counts().CNOTs, 2u);
}

TEST(OptimizerTest, DisjointQubitsDontBlock) {
  Circuit C(3);
  C.h(0);
  C.x(2);
  C.y(1);
  C.h(0);
  Circuit Opt = optimizeCircuit(C);
  EXPECT_EQ(Opt.size(), 2u);
}

TEST(OptimizerTest, LadderCNOTsCommute) {
  // Two CNOTs sharing a target commute; the outer pair cancels.
  Circuit C(3);
  C.cnot(0, 2);
  C.cnot(1, 2);
  C.cnot(0, 2);
  Circuit Opt = optimizeCircuit(C);
  ASSERT_EQ(Opt.counts().CNOTs, 1u);
  EXPECT_EQ(Opt.gate(0).Qubit0, 1u);
}

TEST(OptimizerTest, GatesCommuteTable) {
  Gate Rz0(GateKind::Rz, 0, 0.5);
  Gate Cx01 = Gate::cnot(0, 1);
  Gate Cx10 = Gate::cnot(1, 0);
  Gate X1(GateKind::X, 1);
  Gate H1(GateKind::H, 1);
  EXPECT_TRUE(gatesCommute(Rz0, Cx01));  // diagonal on control
  EXPECT_FALSE(gatesCommute(Rz0, Cx10)); // diagonal on target
  EXPECT_TRUE(gatesCommute(X1, Cx01));   // X on target
  EXPECT_FALSE(gatesCommute(H1, Cx01));  // H on target
  EXPECT_FALSE(gatesCommute(Cx01, Cx10));
  EXPECT_TRUE(gatesCommute(Gate::cnot(0, 2), Gate::cnot(1, 2)));
  EXPECT_TRUE(gatesCommute(Gate::cnot(0, 1), Gate::cnot(0, 2)));
}

TEST(OptimizerTest, PreservesUnitaryOnRandomCircuits) {
  RNG Rng(41);
  for (int Trial = 0; Trial < 25; ++Trial) {
    const unsigned N = 3;
    Circuit C(N);
    for (int G = 0; G < 30; ++G) {
      switch (Rng.uniformInt(6)) {
      case 0:
        C.h(static_cast<unsigned>(Rng.uniformInt(N)));
        break;
      case 1:
        C.s(static_cast<unsigned>(Rng.uniformInt(N)));
        break;
      case 2:
        C.sdg(static_cast<unsigned>(Rng.uniformInt(N)));
        break;
      case 3:
        C.rz(static_cast<unsigned>(Rng.uniformInt(N)),
             Rng.uniform(-1.0, 1.0));
        break;
      case 4:
        C.x(static_cast<unsigned>(Rng.uniformInt(N)));
        break;
      default: {
        unsigned A = static_cast<unsigned>(Rng.uniformInt(N));
        unsigned B = static_cast<unsigned>(Rng.uniformInt(N));
        if (A != B)
          C.cnot(A, B);
        break;
      }
      }
    }
    Circuit Opt = optimizeCircuit(C);
    EXPECT_LE(Opt.size(), C.size());
    Matrix U1 = circuitUnitary(C);
    Matrix U2 = circuitUnitary(Opt);
    ASSERT_NEAR(U1.maxAbsDiff(U2), 0.0, 1e-9);
  }
}

TEST(OptimizerTest, IdempotentOnFixpoint) {
  RNG Rng(46);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Circuit C(3);
    for (int G = 0; G < 40; ++G) {
      if (Rng.bernoulli(0.4)) {
        unsigned A = static_cast<unsigned>(Rng.uniformInt(3));
        unsigned B = (A + 1 + static_cast<unsigned>(Rng.uniformInt(2))) % 3;
        C.cnot(A, B);
      } else {
        C.h(static_cast<unsigned>(Rng.uniformInt(3)));
      }
    }
    Circuit Once = optimizeCircuit(C);
    Circuit Twice = optimizeCircuit(Once);
    EXPECT_EQ(Once.size(), Twice.size());
  }
}

TEST(OptimizerTest, SnippetRoundTripIsFullyRemoved) {
  // A snippet followed by its exact inverse parts in reverse: everything
  // cancels, including through the commuting ladder.
  PauliString P = *PauliString::parse("ZXZY");
  Circuit C(4);
  appendPauliRotation(C, P, 0.9);
  appendPauliRotation(C, P, -0.9);
  EXPECT_TRUE(optimizeCircuit(C).empty());
}

TEST(OptimizerTest, BackToBackSnippetsCancel) {
  // exp(i t P) directly followed by exp(-i t P): everything should vanish
  // after rotation merging and inverse-pair elimination.
  PauliString P = *PauliString::parse("XZY");
  Circuit C(3);
  appendPauliRotation(C, P, 0.6);
  appendPauliRotation(C, P, -0.6);
  Circuit Opt = optimizeCircuit(C);
  EXPECT_TRUE(Opt.empty());
}

TEST(OptimizerTest, MatchedNeighborSnippetsCancelLadders) {
  // ZZZZ then XZXZ (the paper's Fig. 6 pair): with the shared root placed
  // on a matched qubit (q2, both Z), a ladder CNOT pair cancels across the
  // snippet boundary.
  PauliSynthesisOptions Root2;
  Root2.Root = 2;
  Circuit C(4);
  appendPauliRotation(C, *PauliString::parse("ZZZZ"), 0.4, Root2);
  appendPauliRotation(C, *PauliString::parse("XZXZ"), 0.4, Root2);
  Circuit Opt = optimizeCircuit(C);
  EXPECT_LT(Opt.counts().CNOTs, C.counts().CNOTs);
  // Unitary preserved.
  EXPECT_NEAR(circuitUnitary(C).maxAbsDiff(circuitUnitary(Opt)), 0.0, 1e-9);
}

TEST(OptimizerTest, UnmatchedRootBlocksLadderCancellation) {
  // With the default root on q3 (Z vs X, unmatched) the basis change on
  // the root blocks every cross-boundary CNOT cancellation.
  Circuit C(4);
  appendPauliRotation(C, *PauliString::parse("ZZZZ"), 0.4);
  appendPauliRotation(C, *PauliString::parse("XZXZ"), 0.4);
  Circuit Opt = optimizeCircuit(C);
  EXPECT_EQ(Opt.counts().CNOTs, C.counts().CNOTs);
}
