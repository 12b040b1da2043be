//===- tests/KernelTest.cpp - dispatched SIMD kernel tier tests ---------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the determinism contract of sim/Kernels.h: every kernel the
// dispatcher can select (scalar, AVX2+FMA, AVX-512, NEON) produces
// bit-identical amplitudes for the same inputs — on interleaved
// statevectors and on SoA panel planes, across panel widths, for
// butterfly and Z-diagonal paths, from basis, random and signed-zero
// starting states, at Theta = +0, -0 and pi as well as random angles, and
// at the short pivot runs (1, 2, 4) where the 4-wide walk defers to the
// scalar reference. The fused evolve+overlap tail must reproduce the
// unfused sweep-then-overlapWith path bit for bit. All vector tiers are
// one body (sim/KernelsSimd.h); the cross-tier loops also run it at
// NEON's widths <2,2>, compiled for the host's baseline ISA, so every
// host checks the NEON arithmetic. On hosts whose best tier *is* scalar
// the AVX2/AVX-512 comparisons are trivial; the AVX CI hosts enforce them.
//
//===----------------------------------------------------------------------===//

#include "hamgen/Models.h"
#include "sim/Fidelity.h"
#include "sim/Kernels.h"
#include "sim/KernelsSimd.h"
#include "sim/StatePanel.h"
#include "sim/StateVector.h"
#include "support/AlignedAlloc.h"
#include "support/RNG.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace marqsim;

namespace {

/// Every test that repins dispatch restores the default policy on exit so
/// test order never leaks a forced tier into unrelated suites.
struct DispatchRestorer {
  ~DispatchRestorer() { kernels::selectAuto(); }
};

/// The best table this host can dispatch to, ignoring the environment —
/// the tier whose output must match the scalar reference bit for bit.
const kernels::Ops &bestOps() { return *kernels::availableOps().front(); }

/// The shared vector body at NEON's widths, built for this host: test
/// only, never dispatched, listed, or pinnable.
constexpr kernels::Ops Width2Ops = kernels::simd::makeOps<2, 2>("simd-2");

/// What the cross-tier loops sweep: every runnable tier plus Width2Ops.
std::vector<const kernels::Ops *> crossTierOps() {
  std::vector<const kernels::Ops *> Tiers = kernels::availableOps();
  Tiers.push_back(&Width2Ops);
  return Tiers;
}

/// \p Theta, then +0, -0 and pi: angles whose sin/cos carry signed zeros
/// (sin(-0) = -0, cos(pi) = -1), on which a vector broadcast that loses a
/// zero's sign changes bits.
std::vector<double> withSignedZeroThetas(double Theta) {
  return {Theta, 0.0, -0.0, M_PI};
}

/// A value that is +0, -0, or a Gaussian, with equal odds.
double signedZeroPart(RNG &Rng) {
  const uint64_t Kind = Rng.uniformInt(3);
  return Kind == 0 ? 0.0 : Kind == 1 ? -0.0 : Rng.gaussian();
}

/// A state whose amplitude parts are mostly +0 and -0.
CVector signedZeroState(unsigned N, RNG &Rng) {
  CVector V(size_t(1) << N);
  for (auto &A : V) {
    const double Re = signedZeroPart(Rng);
    A = Complex(Re, signedZeroPart(Rng));
  }
  return V;
}

/// Overwrites the live columns of \p P with signed-zero states; padding
/// lanes keep their zeros.
void fillSignedZeros(StatePanel &P, RNG &Rng) {
  for (uint64_t X = 0; X < P.dim(); ++X)
    for (size_t C = 0; C < P.numColumns(); ++C) {
      P.realPlane()[X * P.laneStride() + C] = signedZeroPart(Rng);
      P.imagPlane()[X * P.laneStride() + C] = signedZeroPart(Rng);
    }
}

CVector randomState(unsigned N, RNG &Rng) {
  CVector V(size_t(1) << N);
  for (auto &A : V)
    A = Complex(Rng.gaussian(), Rng.gaussian());
  return V;
}

/// A random Pauli string; \p ZOnly restricts to the diagonal alphabet.
PauliString randomString(unsigned N, RNG &Rng, bool ZOnly = false) {
  PauliString P;
  for (unsigned Q = 0; Q < N; ++Q)
    P.setOp(Q, ZOnly ? (Rng.bernoulli(0.5) ? PauliOpKind::Z : PauliOpKind::I)
                     : static_cast<PauliOpKind>(Rng.uniformInt(4)));
  return P;
}

/// Routes one rotation through \p K exactly as StateVector::applyPauliExp
/// does (butterfly when xMask != 0, diagonal fast path otherwise).
void applyThrough(const kernels::Ops &K, CVector &Amp, const PauliString &P,
                  double Theta) {
  const Complex CosT(std::cos(Theta), 0.0);
  const Complex ISinT(0.0, std::sin(Theta));
  const detail::PauliPhases Phases(P);
  const uint64_t XM = P.xMask();
  if (XM == 0)
    K.ExpDiagonalF64(Amp.data(), Amp.size(), CosT, ISinT, Phases);
  else
    K.ExpButterflyF64(Amp.data(), Amp.size(), XM, CosT, ISinT, Phases);
}

::testing::AssertionResult bitIdentical(const CVector &A, const CVector &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure() << "size mismatch";
  if (std::memcmp(A.data(), B.data(), A.size() * sizeof(Complex)) == 0)
    return ::testing::AssertionSuccess();
  for (size_t I = 0; I < A.size(); ++I)
    if (serial::doubleBits(A[I].real()) != serial::doubleBits(B[I].real()) ||
        serial::doubleBits(A[I].imag()) != serial::doubleBits(B[I].imag()))
      return ::testing::AssertionFailure()
             << "amplitude " << I << " differs: (" << A[I].real() << ", "
             << A[I].imag() << ") vs (" << B[I].real() << ", " << B[I].imag()
             << ")";
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult panelsBitIdentical(const StatePanel &A,
                                              const StatePanel &B) {
  const size_t N = A.dim() * A.laneStride();
  if (B.dim() * B.laneStride() != N)
    return ::testing::AssertionFailure() << "panel shape mismatch";
  if (std::memcmp(A.realPlane(), B.realPlane(), N * sizeof(double)) != 0 ||
      std::memcmp(A.imagPlane(), B.imagPlane(), N * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "panel planes differ bitwise";
  return ::testing::AssertionSuccess();
}

/// A schedule of rotations covering butterflies (low and high pivots),
/// Z-diagonals, and identities, with the angle mix a real replay sees.
std::vector<std::pair<PauliString, double>> mixedSchedule(unsigned N,
                                                          RNG &Rng) {
  std::vector<std::pair<PauliString, double>> Sched;
  for (unsigned I = 0; I < 24; ++I)
    Sched.emplace_back(randomString(N, Rng), Rng.gaussian() * 0.4);
  for (unsigned I = 0; I < 8; ++I)
    Sched.emplace_back(randomString(N, Rng, /*ZOnly=*/true),
                       Rng.gaussian() * 0.4);
  Sched.emplace_back(PauliString(), 0.37); // identity global phase
  return Sched;
}

std::vector<uint64_t> randomBasis(unsigned N, size_t Cols, RNG &Rng) {
  std::vector<uint64_t> Basis(Cols);
  for (auto &B : Basis)
    B = static_cast<uint64_t>(Rng.uniformInt(1u << N));
  return Basis;
}

} // namespace

TEST(KernelDispatchTest, ActiveTierIsKnown) {
  const std::string Name = kernels::activeName();
  EXPECT_TRUE(Name == "scalar" || Name == "avx2-fma" || Name == "avx512" ||
              Name == "neon")
      << "unexpected kernel tier: " << Name;
  if (kernels::tierOverrideFromEnv() == "scalar") {
    EXPECT_EQ(Name, "scalar");
  }
  EXPECT_STREQ(kernels::scalarOps().Name, "scalar");
}

TEST(KernelDispatchTest, AvailableOpsBestFirstScalarLast) {
  const auto Tiers = kernels::availableOps();
  ASSERT_FALSE(Tiers.empty());
  EXPECT_STREQ(Tiers.back()->Name, "scalar");
  // availableOps reflects the CPU, not the environment pin, so the best
  // entry is what detectedName reports.
  EXPECT_STREQ(Tiers.front()->Name, kernels::detectedName());
  for (const kernels::Ops *Tier : Tiers)
    EXPECT_EQ(kernels::findTier(Tier->Name), Tier);
  EXPECT_EQ(kernels::findTier("not-a-tier"), nullptr);
}

TEST(KernelDispatchTest, KernelTierEnvironmentPinsNamedTier) {
  DispatchRestorer Restore;
  const char *Prev = std::getenv("MARQSIM_KERNEL_TIER");
  const std::string Saved = Prev ? Prev : "";
  for (const kernels::Ops *Tier : kernels::availableOps()) {
    ASSERT_EQ(setenv("MARQSIM_KERNEL_TIER", Tier->Name, 1), 0);
    EXPECT_EQ(kernels::tierOverrideFromEnv(), Tier->Name);
    kernels::selectAuto();
    EXPECT_STREQ(kernels::activeName(), Tier->Name);
  }
  if (Prev)
    ASSERT_EQ(setenv("MARQSIM_KERNEL_TIER", Saved.c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("MARQSIM_KERNEL_TIER"), 0);
}

TEST(KernelDispatchDeathTest, UnavailableTierPinFailsFast) {
  // Death tests fork; "threadsafe" re-executes the binary so ThreadPool
  // threads spawned by other suites can't deadlock the child.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const char *Unavailable = nullptr;
  for (const char *Cand : {"neon", "avx2-fma", "avx512"})
    if (!kernels::findTier(Cand)) {
      Unavailable = Cand;
      break;
    }
  ASSERT_NE(Unavailable, nullptr)
      << "host claims to run every tier — impossible ISA mix";
  EXPECT_EXIT(
      {
        setenv("MARQSIM_KERNEL_TIER", Unavailable, 1);
        kernels::selectAuto();
        (void)kernels::active();
      },
      ::testing::ExitedWithCode(1), "not runnable on this host");
  // Unknown names fail the same way, naming the runnable tiers.
  EXPECT_EXIT(
      {
        setenv("MARQSIM_KERNEL_TIER", "turbo9000", 1);
        kernels::selectAuto();
        (void)kernels::active();
      },
      ::testing::ExitedWithCode(1), "not runnable on this host");
}

TEST(KernelDispatchTest, SelectTierForTestingPinsAndAutoRestores) {
  DispatchRestorer Restore;
  kernels::selectTierForTesting(kernels::scalarOps());
  EXPECT_STREQ(kernels::activeName(), "scalar");
  kernels::selectTierForTesting(bestOps());
  EXPECT_STREQ(kernels::activeName(), bestOps().Name);
  kernels::selectAuto();
  const std::string Pinned = kernels::tierOverrideFromEnv();
  EXPECT_STREQ(kernels::activeName(),
               Pinned.empty() ? kernels::detectedName() : Pinned.c_str());
}

// Interleaved statevector kernels: the best tier must reproduce the scalar
// reference bit for bit — random states, basis states, every dim from a
// two-amplitude vector (below every SIMD width) up through 2^7, butterfly
// pivots both below and above the vector width, and Z-diagonals.
TEST(KernelBitIdentityTest, StateVectorKernelsMatchScalarBitwise) {
  const kernels::Ops &Best = bestOps();
  RNG Rng(2025);
  for (unsigned N : {1u, 2u, 3u, 5u, 7u}) {
    for (unsigned Trial = 0; Trial < 16; ++Trial) {
      CVector Start = randomState(N, Rng);
      if (Trial < 4) { // basis states exercise the sign-of-zero paths
        Start.assign(Start.size(), Complex(0.0, 0.0));
        Start[Trial % Start.size()] = Complex(1.0, 0.0);
      }
      const PauliString P = randomString(N, Rng, /*ZOnly=*/Trial % 3 == 0);
      const double Theta = Rng.gaussian() * 0.7;
      CVector A = Start, B = Start;
      applyThrough(kernels::scalarOps(), A, P, Theta);
      applyThrough(Best, B, P, Theta);
      ASSERT_TRUE(bitIdentical(A, B))
          << "tier " << Best.Name << ", " << N << " qubits, trial " << Trial;
    }
  }
}

// Panel kernels: a width-1 panel, an odd width straddling the lane padding,
// the PreferredWidth block, and an "all columns" width wider than a block,
// each evolved through a mixed schedule under the scalar tier and under the
// best tier. Planes (including padding lanes) must agree bitwise.
TEST(KernelBitIdentityTest, PanelKernelsMatchScalarBitwise) {
  DispatchRestorer Restore;
  const unsigned N = 5;
  RNG Rng(4242);
  const auto Sched = mixedSchedule(N, Rng);
  for (size_t Cols : {size_t(1), size_t(3), StatePanel::PreferredWidth,
                      size_t(17)}) {
    const auto Basis = randomBasis(N, Cols, Rng);
    kernels::selectTierForTesting(kernels::scalarOps());
    StatePanel Scalar(N, Basis);
    for (const auto &[P, Theta] : Sched)
      Scalar.applyPauliExpAll(P, Theta);
    kernels::selectTierForTesting(bestOps());
    StatePanel Simd(N, Basis);
    for (const auto &[P, Theta] : Sched)
      Simd.applyPauliExpAll(P, Theta);
    ASSERT_TRUE(panelsBitIdentical(Scalar, Simd)) << Cols << " columns";
  }
}

// The panel SoA kernels and the interleaved StateVector kernels are
// different code paths; under the dispatched tier a panel column must
// still be bit-identical to a serial single-state replay.
TEST(KernelBitIdentityTest, PanelColumnsMatchStateVectorUnderDispatch) {
  const unsigned N = 5;
  RNG Rng(777);
  const auto Sched = mixedSchedule(N, Rng);
  const auto Basis = randomBasis(N, 6, Rng);
  StatePanel Panel(N, Basis);
  for (const auto &[P, Theta] : Sched)
    Panel.applyPauliExpAll(P, Theta);
  for (size_t C = 0; C < Basis.size(); ++C) {
    StateVector SV(N, Basis[C]);
    for (const auto &[P, Theta] : Sched)
      SV.applyPauliExp(P, Theta);
    ASSERT_TRUE(bitIdentical(SV.amplitudes(), Panel.column(C)))
        << "column " << C;
  }
}

// Short pivot runs: a butterfly's contiguous run length equals its pivot
// (the lowest X bit), and the 4-wide walk defers runs of 1 to the scalar
// reference. Sweep single-X strings (and a single Z, the diagonal path)
// at every qubit position on tiny registers — run lengths 1, 2, 4, 8 —
// across every tier this host can run plus the width-2 body, from random
// and signed-zero starts, at a random angle and at +0, -0 and pi.
TEST(KernelBitIdentityTest, ShortPivotRunsMatchScalarAcrossTiers) {
  RNG Rng(1234);
  for (const kernels::Ops *Tier : crossTierOps()) {
    for (unsigned N : {1u, 2u, 3u, 4u}) {
      for (unsigned Q = 0; Q < N; ++Q) {
        for (unsigned Variant = 0; Variant < 4; ++Variant) {
          PauliString P;
          P.setOp(Q, Variant == 1   ? PauliOpKind::Y
                     : Variant == 3 ? PauliOpKind::Z
                                    : PauliOpKind::X);
          if (Variant == 2 && N > 1) // phase-carrying high bit
            P.setOp((Q + 1) % N, PauliOpKind::Z);
          for (const double Theta :
               withSignedZeroThetas(Rng.gaussian() * 0.6)) {
            for (const CVector &Start :
                 {randomState(N, Rng), signedZeroState(N, Rng)}) {
              CVector A = Start, B = Start;
              applyThrough(kernels::scalarOps(), A, P, Theta);
              applyThrough(*Tier, B, P, Theta);
              ASSERT_TRUE(bitIdentical(A, B))
                  << "tier " << Tier->Name << ", " << N << " qubits, "
                  << P.str(N) << ", theta " << Theta;
            }
          }
        }
      }
    }
  }
}

// Panels under every runnable tier and the width-2 body (not just
// best-vs-scalar): the planes must agree bitwise, including at one- and
// two-qubit dims, from basis and signed-zero starts, with the schedule's
// own angles and with every angle replaced by +0, -0 or pi.
TEST(KernelBitIdentityTest, PanelKernelsMatchScalarAcrossAllTiers) {
  DispatchRestorer Restore;
  RNG Rng(8787);
  for (unsigned N : {1u, 2u, 5u}) {
    const auto Sched = mixedSchedule(N, Rng);
    const auto Basis = randomBasis(N, 5, Rng);
    for (const bool SignedZeroStart : {false, true}) {
      const uint64_t FillSeed = Rng.next();
      // NaN keeps the schedule's own angles.
      for (const double Override : withSignedZeroThetas(NAN)) {
        // Runs the schedule under Tier from this case's start state.
        const auto Evolve = [&](const kernels::Ops &Tier) {
          kernels::selectTierForTesting(Tier);
          StatePanel Panel(N, Basis);
          RNG Fill(FillSeed);
          if (SignedZeroStart)
            fillSignedZeros(Panel, Fill);
          for (const auto &[P, Theta] : Sched)
            Panel.applyPauliExpAll(P, std::isnan(Override) ? Theta : Override);
          return Panel;
        };
        const StatePanel Scalar = Evolve(kernels::scalarOps());
        for (const kernels::Ops *Tier : crossTierOps())
          ASSERT_TRUE(panelsBitIdentical(Scalar, Evolve(*Tier)))
              << "tier " << Tier->Name << ", " << N << " qubits, signed-zero "
              << SignedZeroStart << ", theta " << Override;
      }
    }
    kernels::selectAuto();
  }
}

// The fused evolve+overlap tail vs the unfused sweep-then-overlapWith
// path: panel planes and every per-column overlap must agree bit for bit,
// for butterfly, diagonal, and identity tails, at a random angle and at
// +0, -0 and pi, from rotated-basis and signed-zero starts, under every
// runnable tier and the width-2 body — and every tier's fused overlaps
// must equal the scalar tier's.
TEST(KernelBitIdentityTest, FusedOverlapMatchesUnfusedBitwise) {
  DispatchRestorer Restore;
  const unsigned N = 5;
  RNG Rng(60606);
  std::vector<PauliString> Tails(3);
  Tails[0].setOp(2, PauliOpKind::X); // butterfly tail
  Tails[0].setOp(0, PauliOpKind::Z);
  Tails[1].setOp(1, PauliOpKind::Z); // diagonal tail
  // Tails[2] stays the identity (global-phase tail).
  std::vector<const kernels::Ops *> Sweep = {&kernels::scalarOps()};
  for (const kernels::Ops *Tier : crossTierOps())
    Sweep.push_back(Tier);
  for (size_t Cols : {size_t(1), size_t(3), size_t(8)}) {
    const auto Basis = randomBasis(N, Cols, Rng);
    const auto Pre = mixedSchedule(N, Rng);
    for (const bool SignedZeroStart : {false, true}) {
      std::vector<CVector> Targets;
      for (size_t C = 0; C < Cols; ++C)
        Targets.push_back(SignedZeroStart ? signedZeroState(N, Rng)
                                          : randomState(N, Rng));
      const uint64_t FillSeed = Rng.next();
      // The case's start under the active tier: four rotations of the
      // basis columns, or signed-zero planes.
      const auto Start = [&] {
        StatePanel Panel(N, Basis);
        RNG Fill(FillSeed);
        if (SignedZeroStart)
          fillSignedZeros(Panel, Fill);
        else
          for (unsigned I = 0; I < 4; ++I)
            Panel.applyPauliExpAll(Pre[I].first, Pre[I].second);
        return Panel;
      };
      const size_t Bytes = Cols * sizeof(Complex);
      for (const PauliString &Tail : Tails) {
        for (const double Theta : withSignedZeroThetas(0.31)) {
          std::vector<Complex> ScalarFused; // the first (scalar) run's
          StatePanel ScalarPanel(N, Basis);
          for (const kernels::Ops *Tier : Sweep) {
            kernels::selectTierForTesting(*Tier);
            StatePanel A = Start(), B = Start();
            A.applyPauliExpAll(Tail, Theta);
            std::vector<Complex> Unfused(Cols);
            for (size_t C = 0; C < Cols; ++C)
              Unfused[C] = A.overlapWith(Targets[C], C);
            TargetPanel Packed(Targets.data(), Cols, B.laneStride());
            std::vector<Complex> Fused(Cols);
            B.applyPauliExpAllFused(Tail, Theta, Packed, Fused.data());
            if (ScalarFused.empty()) {
              ScalarFused = Fused;
              ScalarPanel = B;
            }
            ASSERT_TRUE(panelsBitIdentical(A, B))
                << "tier " << Tier->Name << ", " << Cols << " columns";
            ASSERT_TRUE(panelsBitIdentical(ScalarPanel, B))
                << "tier " << Tier->Name << " vs scalar, " << Cols
                << " columns, " << Tail.str(N) << ", theta " << Theta;
            ASSERT_EQ(std::memcmp(Unfused.data(), Fused.data(), Bytes), 0)
                << "tier " << Tier->Name << ", " << Cols << " columns, "
                << Tail.str(N) << ", theta " << Theta;
            ASSERT_EQ(std::memcmp(ScalarFused.data(), Fused.data(), Bytes), 0)
                << "tier " << Tier->Name << " vs scalar, " << Cols
                << " columns, " << Tail.str(N) << ", theta " << Theta;
          }
        }
      }
    }
    kernels::selectAuto();
  }
}

// End to end: a 17-column fidelity evaluation (two fused panel blocks
// plus the width-1 walk tail) under live dispatch must reproduce a serial
// single-state replay bit for bit, for every EvalJobs fan-out.
TEST(KernelBitIdentityTest, FidelityWithFusedTailMatchesSerialReference) {
  Hamiltonian H = makeHeisenbergXXZ(6, 1.0, 0.8, 0.6, 0.3);
  const double T = 0.7;
  std::vector<ScheduledRotation> Schedule;
  for (const auto &Term : H.terms())
    Schedule.emplace_back(Term.String, Term.Coeff * T);
  FidelityEvaluator Eval(H, T, /*NumColumns=*/17, /*Seed=*/11);
  ASSERT_EQ(Eval.numColumns(), 17u);
  Complex Acc = 0.0;
  for (size_t C = 0; C < Eval.numColumns(); ++C) {
    StateVector SV(Eval.numQubits(), Eval.columns()[C]);
    for (const ScheduledRotation &Step : Schedule)
      SV.applyPauliExp(Step.String, Step.Tau);
    Acc += innerProduct(Eval.targets()[C], SV.amplitudes());
  }
  const double Ref = std::abs(Acc) / 17.0;
  EXPECT_EQ(serial::doubleBits(Ref),
            serial::doubleBits(Eval.fidelity(Schedule, 1)));
  EXPECT_EQ(serial::doubleBits(Ref),
            serial::doubleBits(Eval.fidelity(Schedule, 4)));
}

// Satellite: amplitude storage is 64-byte aligned everywhere the kernels
// load from — interleaved CVectors and both panel planes — and the panel
// stride honors the lane-multiple contract.
TEST(AlignmentTest, AmplitudeStorageIs64ByteAligned) {
  CVector V(37);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(V.data()) % 64, 0u);
  StateVector SV(6, 11);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(SV.amplitudes().data()) % 64, 0u);
  for (size_t Cols : {size_t(1), size_t(5), size_t(8), size_t(9)}) {
    StatePanel P(4, std::vector<uint64_t>(Cols, 0));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P.realPlane()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P.imagPlane()) % 64, 0u);
    EXPECT_EQ(P.laneStride() % StatePanel::LaneMultiple, 0u);
    EXPECT_GE(P.laneStride(), Cols);
  }
}
