//===- tests/SimTest.cpp - simulator and fidelity tests ------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CompilerEngine.h"
#include "core/TransitionBuilders.h"
#include "hamgen/Models.h"
#include "hamgen/Registry.h"
#include "linalg/Expm.h"
#include "service/SimulationService.h"
#include "sim/Evolution.h"
#include "sim/Fidelity.h"
#include "sim/Kernels.h"
#include "sim/NoiseModel.h"
#include "sim/Observables.h"
#include "sim/PauliOperator.h"
#include "sim/StatePanel.h"
#include "sim/StateVector.h"
#include "support/RNG.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace marqsim;

namespace {

Matrix gateMatrix(const Gate &G, unsigned N) {
  Circuit C(N);
  C.append(G);
  return circuitUnitary(C);
}

CVector randomState(unsigned N, RNG &Rng) {
  CVector V(size_t(1) << N);
  for (auto &A : V)
    A = Complex(Rng.gaussian(), Rng.gaussian());
  double Norm = vectorNorm(V);
  for (auto &A : V)
    A /= Norm;
  return V;
}

/// The pre-fusion two-pass scratch kernels, kept verbatim as the reference
/// the fused in-place kernels must reproduce bit for bit on every nonzero
/// amplitude (EXPECT_EQ on doubles treats -0.0 == +0.0, so the comparisons
/// below go through the raw bit patterns).
void referencePauliExp(CVector &Amp, const PauliString &P, double Theta) {
  const Complex CosT(std::cos(Theta), 0.0);
  const Complex ISinT(0.0, std::sin(Theta));
  if (P.isIdentity()) {
    const Complex Phase = CosT + ISinT;
    for (Complex &A : Amp)
      A *= Phase;
    return;
  }
  CVector Scratch(Amp.size());
  const uint64_t XM = P.xMask();
  for (uint64_t X = 0; X < Amp.size(); ++X)
    Scratch[X ^ XM] = P.applyToBasis(X) * Amp[X];
  for (size_t X = 0; X < Amp.size(); ++X)
    Amp[X] = CosT * Amp[X] + ISinT * Scratch[X];
}

void referencePauli(CVector &Amp, const PauliString &P) {
  CVector Scratch(Amp.size());
  const uint64_t XM = P.xMask();
  for (uint64_t X = 0; X < Amp.size(); ++X)
    Scratch[X ^ XM] = P.applyToBasis(X) * Amp[X];
  Amp.swap(Scratch);
}

::testing::AssertionResult bitIdentical(const CVector &A, const Complex *B,
                                        size_t N) {
  for (size_t I = 0; I < N; ++I) {
    if (serial::doubleBits(A[I].real()) != serial::doubleBits(B[I].real()) ||
        serial::doubleBits(A[I].imag()) != serial::doubleBits(B[I].imag()))
      return ::testing::AssertionFailure()
             << "amplitude " << I << " differs: (" << A[I].real() << ", "
             << A[I].imag() << ") vs (" << B[I].real() << ", " << B[I].imag()
             << ")";
  }
  return ::testing::AssertionSuccess();
}

/// Bit-identical on every nonzero part of \p A; where \p A has an exact
/// zero, \p B must be a zero of either sign.
::testing::AssertionResult bitIdenticalUpToZeroSigns(const CVector &A,
                                                     const Complex *B,
                                                     size_t N) {
  const auto Same = [](double X, double Y) {
    return X == 0.0 ? Y == 0.0
                    : serial::doubleBits(X) == serial::doubleBits(Y);
  };
  for (size_t I = 0; I < N; ++I) {
    if (!Same(A[I].real(), B[I].real()) || !Same(A[I].imag(), B[I].imag()))
      return ::testing::AssertionFailure()
             << "amplitude " << I << " differs: (" << A[I].real() << ", "
             << A[I].imag() << ") vs (" << B[I].real() << ", " << B[I].imag()
             << ")";
  }
  return ::testing::AssertionSuccess();
}

/// The term-by-term matvec and the 0.5-slice Taylor propagator that
/// computed exact targets before the grouped operator and the Chebyshev
/// expansion, kept verbatim as the tolerance reference.
CVector referenceApplyHamiltonian(const Hamiltonian &H, const CVector &X) {
  assert(X.size() == size_t(1) << H.numQubits() && "state size mismatch");
  CVector Y(X.size(), Complex(0.0, 0.0));
  for (const PauliTerm &T : H.terms()) {
    const uint64_t XM = T.String.xMask();
    for (uint64_t B = 0; B < X.size(); ++B)
      Y[B ^ XM] += T.Coeff * T.String.applyToBasis(B) * X[B];
  }
  return Y;
}

CVector referenceEvolveTaylor(const Hamiltonian &H, double T,
                              const CVector &In) {
  assert(In.size() == size_t(1) << H.numQubits() && "state size mismatch");
  // Split T into slices with lambda * |slice| <= 0.5 so the Taylor series
  // converges in a handful of terms; lambda bounds the spectral norm of H.
  const double Lambda = H.lambda();
  const double Horizon = Lambda * std::fabs(T);
  const unsigned Slices =
      std::max(1u, static_cast<unsigned>(std::ceil(Horizon / 0.5)));
  const double Dt = T / Slices;

  CVector State = In;
  for (unsigned S = 0; S < Slices; ++S) {
    // State <- sum_k (i Dt H)^k / k! State.
    CVector Acc = State;
    CVector Term = State;
    for (unsigned K = 1; K <= 40; ++K) {
      CVector HTerm = referenceApplyHamiltonian(H, Term);
      const Complex Factor = Complex(0.0, Dt) / static_cast<double>(K);
      for (size_t I = 0; I < HTerm.size(); ++I)
        Term[I] = Factor * HTerm[I];
      double TermNorm = 0.0;
      for (const Complex &V : Term)
        TermNorm += std::norm(V);
      for (size_t I = 0; I < Acc.size(); ++I)
        Acc[I] += Term[I];
      if (std::sqrt(TermNorm) < 1e-14)
        break;
    }
    State.swap(Acc);
  }
  return State;
}

double maxAbsDiff(const CVector &A, const CVector &B) {
  double Max = 0.0;
  for (size_t I = 0; I < A.size(); ++I)
    Max = std::max(Max, std::abs(A[I] - B[I]));
  return Max;
}

/// A random Pauli string; \p ZOnly restricts to the diagonal alphabet.
PauliString randomString(unsigned N, RNG &Rng, bool ZOnly = false) {
  PauliString P;
  for (unsigned Q = 0; Q < N; ++Q)
    P.setOp(Q, ZOnly ? (Rng.bernoulli(0.5) ? PauliOpKind::Z : PauliOpKind::I)
                     : static_cast<PauliOpKind>(Rng.uniformInt(4)));
  return P;
}

} // namespace

TEST(StateVectorTest, BasisInitialization) {
  StateVector SV(3, 5);
  EXPECT_EQ(SV.dim(), 8u);
  EXPECT_EQ(SV.amplitudes()[5], Complex(1, 0));
  EXPECT_NEAR(SV.norm(), 1.0, 1e-14);
}

TEST(StateVectorTest, HadamardCreatesSuperposition) {
  StateVector SV(1, 0);
  SV.apply(Gate(GateKind::H, 0));
  const double S = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(SV.amplitudes()[0] - Complex(S, 0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(SV.amplitudes()[1] - Complex(S, 0)), 0.0, 1e-14);
}

TEST(StateVectorTest, CNOTEntangles) {
  StateVector SV(2, 0);
  SV.apply(Gate(GateKind::H, 0));
  SV.apply(Gate::cnot(0, 1));
  const double S = 1.0 / std::sqrt(2.0);
  // (|00> + |11>)/sqrt2.
  EXPECT_NEAR(std::abs(SV.amplitudes()[0] - Complex(S, 0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(SV.amplitudes()[3] - Complex(S, 0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(SV.amplitudes()[1]), 0.0, 1e-14);
}

TEST(StateVectorTest, GateMatricesAreUnitary) {
  for (GateKind K :
       {GateKind::H, GateKind::X, GateKind::Y, GateKind::Z, GateKind::S,
        GateKind::Sdg, GateKind::Rx, GateKind::Ry, GateKind::Rz}) {
    Gate G(K, 0, 0.37);
    Matrix U = gateMatrix(G, 1);
    EXPECT_TRUE(U.isUnitary(1e-12)) << gateKindName(K);
  }
  EXPECT_TRUE(gateMatrix(Gate::cnot(0, 1), 2).isUnitary(1e-12));
}

TEST(StateVectorTest, SGateSquaredIsZ) {
  Matrix S = gateMatrix(Gate(GateKind::S, 0), 1);
  Matrix Z = gateMatrix(Gate(GateKind::Z, 0), 1);
  EXPECT_NEAR((S * S).maxAbsDiff(Z), 0.0, 1e-14);
}

TEST(StateVectorTest, RzMatchesDefinition) {
  double Theta = 0.81;
  Matrix Rz = gateMatrix(Gate(GateKind::Rz, 0, Theta), 1);
  EXPECT_NEAR(std::abs(Rz.at(0, 0) - std::exp(Complex(0, -Theta / 2))), 0.0,
              1e-14);
  EXPECT_NEAR(std::abs(Rz.at(1, 1) - std::exp(Complex(0, Theta / 2))), 0.0,
              1e-14);
}

TEST(StateVectorTest, ApplyPauliMatchesDense) {
  RNG Rng(71);
  for (int Trial = 0; Trial < 20; ++Trial) {
    unsigned N = 1 + Rng.uniformInt(4);
    PauliString P;
    for (unsigned Q = 0; Q < N; ++Q)
      P.setOp(Q, static_cast<PauliOpKind>(Rng.uniformInt(4)));
    CVector In = randomState(N, Rng);
    StateVector SV(N, In);
    SV.applyPauli(P);
    CVector Expected = P.toMatrix(N) * In;
    for (size_t I = 0; I < In.size(); ++I)
      ASSERT_NEAR(std::abs(SV.amplitudes()[I] - Expected[I]), 0.0, 1e-12);
  }
}

TEST(StateVectorTest, ApplyPauliExpMatchesExpm) {
  RNG Rng(72);
  for (int Trial = 0; Trial < 20; ++Trial) {
    unsigned N = 1 + Rng.uniformInt(3);
    PauliString P;
    for (unsigned Q = 0; Q < N; ++Q)
      P.setOp(Q, static_cast<PauliOpKind>(Rng.uniformInt(4)));
    double Theta = Rng.uniform(-2.0, 2.0);
    CVector In = randomState(N, Rng);
    StateVector SV(N, In);
    SV.applyPauliExp(P, Theta);
    Matrix U = expm(P.toMatrix(N) * Complex(0, Theta));
    CVector Expected = U * In;
    for (size_t I = 0; I < In.size(); ++I)
      ASSERT_NEAR(std::abs(SV.amplitudes()[I] - Expected[I]), 0.0, 1e-10);
  }
}

TEST(StateVectorTest, PauliExpComposition) {
  // exp(i a P) exp(i b P) == exp(i (a+b) P).
  RNG Rng(82);
  PauliString P = *PauliString::parse("XZY");
  CVector In = randomState(3, Rng);
  StateVector Twice(3, In);
  Twice.applyPauliExp(P, 0.4);
  Twice.applyPauliExp(P, 0.35);
  StateVector Once(3, In);
  Once.applyPauliExp(P, 0.75);
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_NEAR(std::abs(Twice.amplitudes()[I] - Once.amplitudes()[I]), 0.0,
                1e-12);
}

TEST(StateVectorTest, PauliExpInverseRestoresState) {
  RNG Rng(84);
  PauliString P = *PauliString::parse("YYX");
  CVector In = randomState(3, Rng);
  StateVector SV(3, In);
  SV.applyPauliExp(P, 1.3);
  SV.applyPauliExp(P, -1.3);
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_NEAR(std::abs(SV.amplitudes()[I] - In[I]), 0.0, 1e-12);
}

TEST(EvolutionTest, ApplyHamiltonianMatchesDense) {
  RNG Rng(73);
  Hamiltonian H = makeRandomHamiltonian(3, 5, Rng);
  CVector In = randomState(3, Rng);
  CVector Got = applyHamiltonian(H, In);
  CVector Expected = H.toMatrix() * In;
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_NEAR(std::abs(Got[I] - Expected[I]), 0.0, 1e-12);
}

TEST(PauliOperatorTest, ApplyMatchesDenseWithMixedYParityGroups) {
  // XXI, YXZ and YYI share X mask 110 but carry the canonical phases i^0,
  // i^1 and i^2; III and ZIZ form the diagonal group; XZY is alone.
  Hamiltonian H = Hamiltonian::parse({{0.7, "XXI"},
                                      {-0.4, "YXZ"},
                                      {0.3, "YYI"},
                                      {1.1, "III"},
                                      {-0.6, "ZIZ"},
                                      {0.25, "XZY"}});
  PauliOperator Op(H);
  EXPECT_EQ(Op.numGroups(), 3u);
  EXPECT_EQ(Op.lambda(), H.lambda());
  RNG Rng(93);
  const Matrix Dense = H.toMatrix();
  for (int Trial = 0; Trial < 4; ++Trial) {
    CVector In = randomState(3, Rng);
    EXPECT_LE(maxAbsDiff(Op.apply(In), Dense * In), 1e-12);
  }
}

TEST(EvolutionTest, EvolveExactMatchesDenseExponential) {
  RNG Rng(74);
  Hamiltonian H = makeRandomHamiltonian(3, 6, Rng);
  for (double T : {0.9, -1.3}) {
    Matrix U = exactUnitary(H, T);
    for (uint64_t Col : {0ull, 3ull, 7ull}) {
      CVector Basis(8, Complex(0, 0));
      Basis[Col] = 1.0;
      CVector Evolved = evolveExact(H, T, Basis);
      for (size_t I = 0; I < 8; ++I)
        EXPECT_NEAR(std::abs(Evolved[I] - U.at(I, Col)), 0.0, 1e-12)
            << "t = " << T << ", column " << Col;
    }
  }
}

TEST(EvolutionTest, EvolutionPreservesNorm) {
  RNG Rng(75);
  Hamiltonian H = makeTransverseFieldIsing(4, 1.0, 0.7);
  CVector In = randomState(4, Rng);
  CVector Out = evolveExact(H, 1.7, In);
  EXPECT_NEAR(vectorNorm(Out), 1.0, 1e-10);
}

TEST(EvolutionTest, NormPreservedAtLargeLambdaT) {
  // lambda * t = 200: a degree in the hundreds, every J_k well away from
  // the small-argument regime.
  RNG Rng(77);
  Hamiltonian H = makeTransverseFieldIsing(6, 1.0, 0.7).rescaledToLambda(200.0);
  CVector In = randomState(6, Rng);
  CVector Out = evolveExact(H, 1.0, In);
  EXPECT_NEAR(vectorNorm(Out), 1.0, 1e-12);
}

TEST(EvolutionTest, SlicedLongEvolutionMatchesTaylorReference) {
  // lambda * t = 1200 runs as three slices: libstdc++'s J_k(a) is not
  // usable for a > 1000, so one expansion over the whole horizon is not
  // an option.
  RNG Rng(79);
  Hamiltonian H =
      makeTransverseFieldIsing(4, 1.0, 0.7).rescaledToLambda(1200.0);
  CVector In = randomState(4, Rng);
  EXPECT_LE(maxAbsDiff(evolveExact(H, 1.0, In),
                       referenceEvolveTaylor(H, 1.0, In)),
            1e-10);
}

TEST(EvolutionTest, ZeroTimeIsIdentity) {
  RNG Rng(76);
  Hamiltonian H = makeRandomHamiltonian(3, 4, Rng);
  CVector In = randomState(3, Rng);
  CVector Out = evolveExact(H, 0.0, In);
  EXPECT_TRUE(bitIdentical(In, Out.data(), In.size()));
}

TEST(EvolutionTest, EmptyHamiltonianIsIdentity) {
  // lambda = 0: the expansion must not divide by it.
  RNG Rng(78);
  Hamiltonian H(3);
  CVector In = randomState(3, Rng);
  CVector Out = evolveExact(H, 0.7, In);
  EXPECT_TRUE(bitIdentical(In, Out.data(), In.size()));
  EXPECT_LE(maxAbsDiff(exactUnitary(H, 0.7) * In, Out), 1e-12);
  EXPECT_EQ(maxAbsDiff(applyHamiltonian(H, In), CVector(In.size())), 0.0);
}

TEST(EvolutionTest, MatchesTaylorReferenceOnRegistryNaPlus) {
  const BenchmarkSpec Spec = *findBenchmark("Na+");
  const Hamiltonian H = SimulationService::prepare(makeBenchmark(Spec));
  ASSERT_EQ(H.numQubits(), 8u);
  for (uint64_t Col : {0ull, 37ull, 200ull, 255ull}) {
    CVector Basis(size_t(1) << H.numQubits(), Complex(0.0, 0.0));
    Basis[Col] = 1.0;
    EXPECT_LE(maxAbsDiff(evolveExact(H, Spec.Time, Basis),
                         referenceEvolveTaylor(H, Spec.Time, Basis)),
              1e-12)
        << "column " << Col;
  }
}

TEST(ObservablesTest, BasisStateExpectations) {
  StateVector SV(3, 0b101);
  // <Z_q> = +1 for bit 0, -1 for bit 1.
  EXPECT_NEAR(expectation(SV, PauliString(0, 1ULL << 0)), -1.0, 1e-14);
  EXPECT_NEAR(expectation(SV, PauliString(0, 1ULL << 1)), 1.0, 1e-14);
  EXPECT_NEAR(expectation(SV, PauliString(0, 1ULL << 2)), -1.0, 1e-14);
  // <X> vanishes on computational basis states.
  EXPECT_NEAR(expectation(SV, PauliString(1ULL << 0, 0)), 0.0, 1e-14);
  EXPECT_NEAR(occupation(SV, 0), 1.0, 1e-14);
  EXPECT_NEAR(occupation(SV, 1), 0.0, 1e-14);
  EXPECT_NEAR(spinZ(SV, 1), 0.5, 1e-14);
}

TEST(ObservablesTest, PlusStateSeesX) {
  StateVector SV(1, 0);
  SV.apply(Gate(GateKind::H, 0));
  EXPECT_NEAR(expectation(SV, PauliString(1, 0)), 1.0, 1e-14); // <X> = 1
  EXPECT_NEAR(expectation(SV, PauliString(0, 1)), 0.0, 1e-14); // <Z> = 0
}

TEST(ObservablesTest, MatchesDenseQuadraticForm) {
  RNG Rng(83);
  Hamiltonian H = makeRandomHamiltonian(3, 6, Rng);
  CVector Amp = randomState(3, Rng);
  StateVector SV(3, Amp);
  double Direct = expectation(SV, H);
  CVector HPsi = H.toMatrix() * Amp;
  double Dense = innerProduct(Amp, HPsi).real();
  EXPECT_NEAR(Direct, Dense, 1e-10);
}

TEST(ObservablesTest, EnergyConservedUnderExactEvolution) {
  Hamiltonian H = makeHeisenbergXXZ(4, 1.0, 1.0, 0.5, 0.2);
  CVector Basis(16, Complex(0, 0));
  Basis[0b0101] = 1.0;
  StateVector Before(4, Basis);
  StateVector After(4, evolveExact(H, 0.9, Basis));
  EXPECT_NEAR(expectation(Before, H), expectation(After, H), 1e-9);
}

TEST(FidelityTest, IdenticalUnitariesGiveOne) {
  RNG Rng(77);
  Hamiltonian H = makeRandomHamiltonian(2, 3, Rng);
  Matrix U = exactUnitary(H, 0.5);
  EXPECT_NEAR(unitaryFidelity(U, U), 1.0, 1e-12);
}

TEST(FidelityTest, GlobalPhaseInvariance) {
  RNG Rng(78);
  Hamiltonian H = makeRandomHamiltonian(2, 3, Rng);
  Matrix U = exactUnitary(H, 0.5);
  Matrix V = U * std::exp(Complex(0, 1.23));
  EXPECT_NEAR(unitaryFidelity(U, V), 1.0, 1e-12);
}

TEST(FidelityTest, OrthogonalUnitariesScoreLow) {
  // X vs I on one qubit: tr(X * I) = 0.
  Matrix X = Matrix::fromRows({{0.0, 1.0}, {1.0, 0.0}});
  EXPECT_NEAR(unitaryFidelity(X, Matrix::identity(2)), 0.0, 1e-12);
}

TEST(FidelityEvaluatorTest, ExactModeMatchesDenseFidelity) {
  RNG Rng(79);
  Hamiltonian H = makeRandomHamiltonian(3, 5, Rng);
  double T = 0.4;
  // Schedule: a crude 1-step Trotter of H.
  std::vector<ScheduledRotation> Schedule;
  for (const auto &Term : H.terms())
    Schedule.emplace_back(Term.String, Term.Coeff * T);

  FidelityEvaluator Eval(H, T, /*NumColumns=*/8);
  ASSERT_TRUE(Eval.isExact());
  double Estimated = Eval.fidelity(Schedule);

  // Dense reference.
  Matrix UApp = Matrix::identity(8);
  for (const auto &Step : Schedule)
    UApp = expm(Step.String.toMatrix(3) * Complex(0, Step.Tau)) * UApp;
  double Exact = unitaryFidelity(UApp, exactUnitary(H, T));
  EXPECT_NEAR(Estimated, Exact, 1e-9);
}

TEST(FidelityEvaluatorTest, SampledModeApproximatesExact) {
  RNG Rng(80);
  Hamiltonian H = makeRandomHamiltonian(4, 8, Rng);
  double T = 0.3;
  std::vector<ScheduledRotation> Schedule;
  for (int Rep = 0; Rep < 2; ++Rep)
    for (const auto &Term : H.terms())
      Schedule.emplace_back(Term.String, Term.Coeff * T / 2);

  FidelityEvaluator Exact(H, T, 16);
  FidelityEvaluator Sampled(H, T, 6, /*Seed=*/99);
  ASSERT_FALSE(Sampled.isExact());
  EXPECT_NEAR(Sampled.fidelity(Schedule), Exact.fidelity(Schedule), 0.05);
}

TEST(FidelityEvaluatorTest, CircuitAndScheduleAgree) {
  // The gate-level circuit of a schedule realizes the same fidelity.
  RNG Rng(81);
  Hamiltonian H = makeTransverseFieldIsing(3, 1.0, 0.5);
  double T = 0.6;
  std::vector<ScheduledRotation> Schedule;
  for (const auto &Term : H.terms())
    Schedule.emplace_back(Term.String, Term.Coeff * T);
  Circuit C(3);
  for (const auto &Step : Schedule)
    appendPauliRotation(C, Step.String, 2.0 * Step.Tau);
  FidelityEvaluator Eval(H, T, 8);
  EXPECT_NEAR(Eval.fidelity(Schedule), Eval.fidelityOfCircuit(C), 1e-10);
}

//===----------------------------------------------------------------------===//
// Fused kernels & StatePanel bit-identity
//===----------------------------------------------------------------------===//

TEST(FusedKernelTest, MatchesTwoPassReferenceBitForBit) {
  // Random states AND basis states, across the full string alphabet,
  // Z-only strings, and the identity. Random states have no exact zeros:
  // every bit must match the two-pass reference. Basis states are mostly
  // exact zeros, whose signs the minimal-arithmetic kernels define for
  // themselves (sim/Kernels.h): there nonzero parts must match the
  // reference bit for bit and zeros by value.
  RNG Rng(90);
  for (int Trial = 0; Trial < 60; ++Trial) {
    unsigned N = 1 + Rng.uniformInt(5);
    PauliString P = randomString(N, Rng, /*ZOnly=*/Trial % 3 == 1);
    if (Trial % 10 == 9)
      P = PauliString(); // identity path
    double Theta = Rng.uniform(-2.0, 2.0);
    CVector In = Trial % 2 ? randomState(N, Rng)
                           : CVector(size_t(1) << N, Complex(0.0, 0.0));
    if (!(Trial % 2))
      In[Rng.uniformInt(In.size())] = 1.0; // basis state, mostly zeros

    CVector Reference = In;
    referencePauliExp(Reference, P, Theta);
    StateVector Fused(N, In);
    Fused.applyPauliExp(P, Theta);
    if (Trial % 2) {
      ASSERT_TRUE(bitIdentical(Reference, Fused.amplitudes().data(),
                               Reference.size()))
          << "exp trial " << Trial << " string " << P.str(N);
    } else {
      ASSERT_TRUE(bitIdenticalUpToZeroSigns(
          Reference, Fused.amplitudes().data(), Reference.size()))
          << "exp trial " << Trial << " string " << P.str(N);
    }

    CVector PauliRef = In;
    referencePauli(PauliRef, P);
    StateVector FusedPauli(N, In);
    FusedPauli.applyPauli(P);
    ASSERT_TRUE(bitIdentical(PauliRef, FusedPauli.amplitudes().data(),
                             PauliRef.size()))
        << "pauli trial " << Trial << " string " << P.str(N);
  }
}

TEST(StatePanelTest, MatchesSerialReplayAcrossColumnCounts) {
  RNG Rng(91);
  const unsigned N = 4;
  const size_t Dim = size_t(1) << N;
  // A schedule mixing butterfly, diagonal, and identity rotations.
  std::vector<ScheduledRotation> Schedule;
  for (int Step = 0; Step < 24; ++Step) {
    PauliString P = randomString(N, Rng, /*ZOnly=*/Step % 4 == 1);
    if (Step % 12 == 11)
      P = PauliString();
    Schedule.emplace_back(P, Rng.uniform(-1.5, 1.5));
  }
  for (size_t Columns : {size_t(1), size_t(3), size_t(8), Dim}) {
    std::vector<uint64_t> Basis(Columns);
    for (size_t C = 0; C < Columns; ++C)
      Basis[C] = (C * 5) % Dim; // distinct for every width above
    StatePanel Panel(N, Basis);
    for (const ScheduledRotation &Step : Schedule)
      Panel.applyPauliExpAll(Step.String, Step.Tau);
    for (size_t C = 0; C < Columns; ++C) {
      StateVector SV(N, Basis[C]);
      for (const ScheduledRotation &Step : Schedule)
        SV.applyPauliExp(Step.String, Step.Tau);
      const CVector Col = Panel.column(C);
      ASSERT_TRUE(bitIdentical(SV.amplitudes(), Col.data(), Dim))
          << Columns << " columns, column " << C;
    }
  }
}

TEST(StatePanelTest, GateApplicationMatchesSerialBitForBit) {
  RNG Rng(92);
  const unsigned N = 3;
  Circuit C(N);
  C.append(Gate(GateKind::H, 0));
  C.append(Gate::cnot(0, 2));
  C.append(Gate(GateKind::Rz, 1, 0.37));
  C.append(Gate(GateKind::S, 2));
  C.append(Gate(GateKind::Rx, 0, -0.81));
  C.append(Gate::cnot(2, 1));
  C.append(Gate(GateKind::Ry, 2, 1.13));
  std::vector<uint64_t> Basis = {0, 3, 5, 6, 7};
  StatePanel Panel(N, Basis);
  Panel.applyAll(C);
  for (size_t Col = 0; Col < Basis.size(); ++Col) {
    StateVector SV(N, Basis[Col]);
    SV.apply(C);
    const CVector PanelCol = Panel.column(Col);
    ASSERT_TRUE(bitIdentical(SV.amplitudes(), PanelCol.data(), SV.dim()))
        << "column " << Col;
  }
}

TEST(FidelityEvaluatorTest, GoldenHexUnchangedByKernelFusion) {
  // Pinned against the pre-fusion seed implementation: a TFIM Trotter
  // schedule whose ZZ terms take the diagonal fast path. A kernel change
  // that perturbs a single bit of any amplitude shows up here. The hex
  // passes through libm transcendentals, so it assumes the CI platform's
  // libm (x86-64 glibc) — the portable contract is the reference-kernel
  // comparisons above.
  Hamiltonian TF = makeTransverseFieldIsing(4, 1.0, 0.7);
  std::vector<ScheduledRotation> Schedule;
  const unsigned Reps = 3;
  for (unsigned R = 0; R < Reps; ++R)
    for (const auto &Term : TF.terms())
      Schedule.emplace_back(Term.String, Term.Coeff * 0.8 / Reps);
  FidelityEvaluator Eval(TF, 0.8, 5, 11);
  EXPECT_EQ(serial::hex16(serial::doubleBits(Eval.fidelity(Schedule))),
            "3fef1a73701db0e5");
}

TEST(FidelityEvaluatorTest, ChunkedEvaluationBitIdenticalForEveryEvalJobs) {
  Hamiltonian H = makeHeisenbergXXZ(5, 1.0, 1.0, 0.8, 0.3);
  std::vector<ScheduledRotation> Schedule;
  for (unsigned R = 0; R < 4; ++R)
    for (const auto &Term : H.terms())
      Schedule.emplace_back(Term.String, Term.Coeff * 0.6 / 4);
  // 32 columns = 4 fixed-width panel blocks: enough to give every EvalJobs
  // value a different block-to-worker assignment.
  FidelityEvaluator Eval(H, 0.6, 32, 5);
  const uint64_t Reference = serial::doubleBits(Eval.fidelity(Schedule, 1));
  for (unsigned Jobs : {2u, 3u, 4u, 8u, 0u})
    EXPECT_EQ(serial::doubleBits(Eval.fidelity(Schedule, Jobs)), Reference)
        << "eval-jobs " << Jobs;

  Circuit C(5);
  for (const auto &Step : Schedule)
    appendPauliRotation(C, Step.String, 2.0 * Step.Tau);
  const uint64_t CircuitRef =
      serial::doubleBits(Eval.fidelityOfCircuit(C, 1));
  for (unsigned Jobs : {3u, 0u})
    EXPECT_EQ(serial::doubleBits(Eval.fidelityOfCircuit(C, Jobs)),
              CircuitRef)
        << "eval-jobs " << Jobs;
}

TEST(FidelityEvaluatorTest, TrotterFidelityImprovesWithReps) {
  Hamiltonian H = makeHeisenbergXXZ(3, 1.0, 1.0, 0.8, 0.3);
  double T = 1.0;
  FidelityEvaluator Eval(H, T, 8);
  double Prev = 0.0;
  for (unsigned Reps : {1u, 4u, 16u}) {
    std::vector<ScheduledRotation> Schedule;
    for (unsigned R = 0; R < Reps; ++R)
      for (const auto &Term : H.terms())
        Schedule.emplace_back(Term.String, Term.Coeff * T / Reps);
    double F = Eval.fidelity(Schedule);
    EXPECT_GT(F, Prev - 1e-6);
    Prev = F;
  }
  EXPECT_GT(Prev, 0.99);
}

//===----------------------------------------------------------------------===//
// Symmetry sectors
//===----------------------------------------------------------------------===//

namespace {

/// The span of a schedule's x-masks: the sector FidelityEvaluator
/// evaluates it in.
Sector scheduleSector(unsigned N,
                      const std::vector<ScheduledRotation> &Schedule) {
  Sector Span(N);
  for (const ScheduledRotation &Step : Schedule)
    Span.insert(Step.String.xMask());
  return Span;
}

/// One gc shot (0.4 qDrift + 0.6 gate cancellation) of a Table 1 model.
std::vector<ScheduledRotation> gcShot(const Hamiltonian &H, double T,
                                      double Epsilon, uint64_t Seed) {
  auto Graph = std::make_shared<const HTTGraph>(
      H, makeConfigMatrix(H, 0.4, 0.6, 0.0));
  return CompilerEngine()
      .compileOne(SamplingStrategy(Graph, T, Epsilon), Seed)
      .Schedule;
}

Hamiltonian registryModel(const std::string &Name) {
  return makeBenchmark(*findBenchmark(Name)).merged().splitLargeTerms();
}

/// Restores the default kernel dispatch when a tier-pinning test exits.
struct DispatchRestorer {
  ~DispatchRestorer() { kernels::selectAuto(); }
};

} // namespace

// The basis is reduced row-echelon with ascending leading-bit pivots, the
// coordinates invert, and the order lemma holds: for a reduced
// representative, u -> rep ^ expand(u) is strictly increasing. Random
// spans of every rank on up to 12 qubits, random representatives.
TEST(SectorTest, OrderLemmaOverRandomBasesAndRepresentatives) {
  RNG Rng(2026);
  for (int Trial = 0; Trial < 200; ++Trial) {
    const unsigned N = 1 + Rng.uniformInt(12);
    const uint64_t All = (uint64_t(1) << N) - 1;
    Sector Span(N);
    const size_t Masks = Rng.uniformInt(N + 2);
    for (size_t I = 0; I < Masks; ++I)
      Span.insert(Rng.next() & All & (Rng.bernoulli(0.5) ? All : Rng.next()));
    const std::vector<uint64_t> &B = Span.basis();
    ASSERT_EQ(B.size(), Span.rank());
    uint64_t PrevLead = 0;
    for (size_t I = 0; I < B.size(); ++I) {
      const uint64_t Lead = uint64_t(1) << (63 - __builtin_clzll(B[I]));
      ASSERT_GT(Lead, PrevLead) << "pivots ascend";
      PrevLead = Lead;
      for (size_t J = 0; J < B.size(); ++J)
        ASSERT_TRUE(I == J || !(B[J] & Lead)) << "pivot columns are unique";
    }
    for (int Probe = 0; Probe < 20; ++Probe) {
      const uint64_t X = Rng.next() & All, Z = Rng.next() & All;
      const uint64_t Rep = Span.reduce(X), U = Span.coords(X);
      ASSERT_EQ(Rep ^ Span.expand(U), X);
      ASSERT_EQ(Span.reduce(Rep), Rep);
      ASSERT_EQ(Span.coords(Rep), 0u);
      ASSERT_EQ(__builtin_parityll(Z & Span.expand(U)),
                __builtin_parityll(Span.zMask(Z) & U));
      uint64_t Prev = Rep;
      for (uint64_t V = 1; V < (uint64_t(1) << Span.rank()); ++V) {
        const uint64_t Next = Rep ^ Span.expand(V);
        ASSERT_GT(Next, Prev) << N << " qubits, rank " << Span.rank();
        ASSERT_TRUE(Span.contains(Next ^ Rep));
        Prev = Next;
      }
    }
  }
  EXPECT_EQ(Sector::full(5).basis(),
            (std::vector<uint64_t>{1, 2, 4, 8, 16}));
}

// A sector panel holds each column's coset: every in-sector amplitude is
// bit-identical to the full-layout panel's, zero signs included, and the
// rows it drops are zeros there.
TEST(StatePanelTest, SectorPanelMatchesFullLayoutInSector) {
  RNG Rng(93);
  const unsigned N = 6;
  std::vector<ScheduledRotation> Schedule;
  // x-masks from {XX on (0,1), X on 3, XX on (4,5)}: rank 3, 8 cosets.
  const uint64_t Masks[3] = {0b000011, 0b001000, 0b110000};
  for (int Step = 0; Step < 40; ++Step) {
    PauliString P = randomString(N, Rng, /*ZOnly=*/true);
    const uint64_t XM = Masks[Rng.uniformInt(3)] * (Step % 5 != 4);
    for (unsigned Q = 0; Q < N; ++Q)
      if ((XM >> Q) & 1)
        P.setOp(Q, Rng.bernoulli(0.5) ? PauliOpKind::X : PauliOpKind::Y);
    Schedule.emplace_back(Step % 13 == 12 ? PauliString() : P,
                          Rng.uniform(-1.5, 1.5));
  }
  const Sector Span = scheduleSector(N, Schedule);
  ASSERT_EQ(Span.rank(), 3u);
  const std::vector<uint64_t> Basis = {0, 5, 7, 12, 33, 40, 63, 9, 18};
  StatePanel Full(N, Basis), InSector(Span, Basis.data(), Basis.size());
  EXPECT_EQ(InSector.rows(), 8u);
  for (const ScheduledRotation &Step : Schedule) {
    Full.applyPauliExpAll(Step.String, Step.Tau);
    InSector.applyPauliExpAll(Step.String, Step.Tau);
  }
  for (size_t C = 0; C < Basis.size(); ++C) {
    const CVector Want = Full.column(C), Got = InSector.column(C);
    for (uint64_t X = 0; X < Want.size(); ++X) {
      if (Span.reduce(X) == Span.reduce(Basis[C])) {
        ASSERT_TRUE(serial::doubleBits(Want[X].real()) ==
                        serial::doubleBits(Got[X].real()) &&
                    serial::doubleBits(Want[X].imag()) ==
                        serial::doubleBits(Got[X].imag()))
            << "column " << C << ", basis state " << X;
      } else {
        ASSERT_TRUE(Want[X] == Complex(0.0, 0.0) && Got[X] == Complex(0.0, 0.0))
            << "column " << C << ", basis state " << X;
      }
    }
  }
}

// The evaluator replays every panel block in the schedule's sector; both
// metrics must equal a full-layout StatePanel replay of the same schedule
// bit for bit — at 1, 8, 9 and 17 columns (lone 1-column panels, full
// blocks, and 1-column tail blocks), EvalJobs 1 and 4, on every runnable
// tier — for Na+ and OH- gc
// shots (several cosets per block), a full-rank schedule, an all-diagonal
// one (rank 0), one ending in an identity rotation, an empty one, and a
// stochastic-noise schedule whose injected Paulis widen the span.
TEST(FidelityEvaluatorTest, SectorEvaluationMatchesFullLayoutReplay) {
  struct Case {
    std::string Name;
    const Hamiltonian *H;
    double T;
    std::vector<ScheduledRotation> Schedule;
  };
  const Hamiltonian Na = registryModel("Na+"), OH = registryModel("OH-");
  const double NaT = findBenchmark("Na+")->Time;
  const double OHT = findBenchmark("OH-")->Time;
  const unsigned N = Na.numQubits();
  std::vector<Case> Cases;
  Cases.push_back({"Na+ gc", &Na, NaT, gcShot(Na, NaT, 0.05, 1)});
  Cases.push_back({"OH- gc", &OH, OHT, gcShot(OH, OHT, 0.2, 2)});
  RNG Rng(94);
  std::vector<ScheduledRotation> FullRank, Diagonal;
  for (unsigned Q = 0; Q < N; ++Q) {
    PauliString P = randomString(N, Rng, /*ZOnly=*/true);
    P.setOp(Q, PauliOpKind::Y);
    FullRank.emplace_back(P, Rng.uniform(-0.5, 0.5));
    Diagonal.emplace_back(randomString(N, Rng, /*ZOnly=*/true),
                          Rng.uniform(-0.5, 0.5));
  }
  Cases.push_back({"full rank", &Na, NaT, FullRank});
  Cases.push_back({"diagonal", &Na, NaT, Diagonal});
  std::vector<ScheduledRotation> IdentityTail = Cases[0].Schedule;
  IdentityTail.emplace_back(PauliString(), 0.3);
  Cases.push_back({"identity tail", &Na, NaT, IdentityTail});
  Cases.push_back({"empty", &Na, NaT, {}});
  NoiseSpec Spec;
  Spec.Kind = NoiseChannelKind::Depolarizing;
  Spec.Prob = 0.002;
  RNG NoiseRng = RNG::forShot(NoiseModel::noiseStreamSeed(5), 0);
  Cases.push_back({"noisy", &Na, NaT,
                   NoiseModel(Spec).injectErrors(Cases[0].Schedule, NoiseRng)});

  EXPECT_EQ(scheduleSector(N, Cases[0].Schedule).rank(), 6u);
  EXPECT_EQ(scheduleSector(OH.numQubits(), Cases[1].Schedule).rank(), 9u);
  EXPECT_EQ(scheduleSector(N, FullRank).rank(), N);
  EXPECT_EQ(scheduleSector(N, Diagonal).rank(), 0u);
  EXPECT_GT(scheduleSector(N, Cases.back().Schedule).rank(), 6u)
      << "the injected errors must widen the span";

  DispatchRestorer Restore;
  for (const Case &C : Cases) {
    for (size_t Columns : {size_t(1), size_t(8), size_t(9), size_t(17)}) {
      const FidelityEvaluator Eval(*C.H, C.T, Columns, /*Seed=*/7);
      StatePanel Full(Eval.numQubits(), Eval.columns());
      for (const ScheduledRotation &Step : C.Schedule)
        Full.applyPauliExpAll(Step.String, Step.Tau);
      Complex Acc = 0.0;
      double StateAcc = 0.0;
      for (size_t Col = 0; Col < Columns; ++Col) {
        const Complex O = Full.overlapWith(Eval.targets()[Col], Col);
        Acc += O;
        StateAcc += std::norm(O);
      }
      const double D = static_cast<double>(Columns);
      const uint64_t Want = serial::doubleBits(std::abs(Acc) / D);
      const uint64_t StateWant = serial::doubleBits(StateAcc / D);
      for (const kernels::Ops *Tier : kernels::availableOps()) {
        kernels::selectTierForTesting(*Tier);
        for (unsigned Jobs : {1u, 4u}) {
          EXPECT_EQ(serial::doubleBits(Eval.fidelity(C.Schedule, Jobs)), Want)
              << C.Name << ", " << Columns << " columns, tier " << Tier->Name
              << ", eval-jobs " << Jobs;
          EXPECT_EQ(serial::doubleBits(Eval.stateFidelity(C.Schedule, Jobs)),
                    StateWant)
              << C.Name << ", " << Columns << " columns, tier " << Tier->Name
              << ", eval-jobs " << Jobs;
        }
      }
      kernels::selectAuto();
    }
  }
}

//===----------------------------------------------------------------------===//
// Lane-batched exact targets
//===----------------------------------------------------------------------===//

// FidelityEvaluator evolves each block of StatePanel::PreferredWidth
// columns as one full-layout panel and a width-1 block as one vector.
// Every part of every target must be memcmp-equal to per-column
// evolveExact, zero signs included, on every runnable tier: on Na+ at 1,
// 2, 4, 8, 9 and 17 columns (full blocks, short blocks, width-1 tails) and
// all 256, on OH- at 8 and 17, with lambda t > 500 (several slices), at
// t = 0 and at negative t.
TEST(FidelityEvaluatorTest, LaneBatchedTargetsMatchPerColumnEvolution) {
  struct Case {
    std::string Name;
    Hamiltonian H;
    double T;
    std::vector<size_t> Counts;
  };
  const Hamiltonian Na = registryModel("Na+");
  const double NaT = findBenchmark("Na+")->Time;
  const Hamiltonian Long =
      makeTransverseFieldIsing(5, 1.0, 0.7).rescaledToLambda(1200.0);
  std::vector<Case> Cases = {
      {"Na+", Na, NaT, {1, 2, 4, 8, 9, 17, 256}},
      {"OH-", registryModel("OH-"), findBenchmark("OH-")->Time, {8, 17}},
      {"lambda t = 1200", Long, 1.0, {9}},
      {"t = 0", Na, 0.0, {9}},
      {"negative t", Na, -NaT, {9, 17}},
  };

  DispatchRestorer Restore;
  for (const Case &C : Cases) {
    const PauliOperator Op(C.H);
    const size_t Dim = size_t(1) << C.H.numQubits();
    for (size_t Count : C.Counts) {
      const std::vector<uint64_t> Columns =
          FidelityEvaluator(C.H, 0.0, Count, /*Seed=*/3).columns();
      std::vector<CVector> Want;
      for (uint64_t X : Columns) {
        CVector Basis(Dim, Complex(0.0, 0.0));
        Basis[X] = 1.0;
        Want.push_back(evolveExact(Op, C.T, Basis));
      }
      for (const kernels::Ops *Tier : kernels::availableOps()) {
        kernels::selectTierForTesting(*Tier);
        const FidelityEvaluator Eval(C.H, C.T, Count, /*Seed=*/3);
        ASSERT_EQ(Eval.columns(), Columns);
        ASSERT_EQ(Eval.targets().size(), Want.size());
        for (size_t Col = 0; Col < Want.size(); ++Col)
          ASSERT_EQ(std::memcmp(Eval.targets()[Col].data(), Want[Col].data(),
                                Dim * sizeof(Complex)),
                    0)
              << C.Name << ", " << Count << " columns, column " << Col
              << ", tier " << Tier->Name;
      }
    }
  }
}

// The panel product alone: PauliOperator::applyPanel on random and
// signed-zero columns equals apply() on each column, bit for bit, on every
// runnable tier.
TEST(PauliOperatorTest, PanelProductMatchesPerColumnApplyBitwise) {
  RNG Rng(95);
  const unsigned N = 5;
  const Hamiltonian H = makeRandomHamiltonian(N, 12, Rng);
  const PauliOperator Op(H);
  const size_t Dim = size_t(1) << N, Cols = 11, Stride = 16;
  std::vector<CVector> In(Cols, CVector(Dim));
  for (size_t C = 0; C < Cols; ++C)
    for (Complex &A : In[C]) {
      const double Parts[3] = {0.0, -0.0, Rng.gaussian()};
      A = Complex(Parts[Rng.uniformInt(3)], Parts[Rng.uniformInt(3)]);
    }
  std::vector<double> XRe(Dim * Stride, 0.0), XIm(Dim * Stride, 0.0);
  for (size_t C = 0; C < Cols; ++C)
    for (size_t B = 0; B < Dim; ++B) {
      XRe[B * Stride + C] = In[C][B].real();
      XIm[B * Stride + C] = In[C][B].imag();
    }
  DispatchRestorer Restore;
  for (const kernels::Ops *Tier : kernels::availableOps()) {
    kernels::selectTierForTesting(*Tier);
    std::vector<double> YRe(Dim * Stride), YIm(Dim * Stride);
    Op.applyPanel(XRe.data(), XIm.data(), YRe.data(), YIm.data(), Stride);
    for (size_t C = 0; C < Cols; ++C) {
      const CVector Want = Op.apply(In[C]);
      CVector Got(Dim);
      for (size_t B = 0; B < Dim; ++B)
        Got[B] = Complex(YRe[B * Stride + C], YIm[B * Stride + C]);
      EXPECT_TRUE(bitIdentical(Want, Got.data(), Dim))
          << "column " << C << ", tier " << Tier->Name;
    }
  }
}
