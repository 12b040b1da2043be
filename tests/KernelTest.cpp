//===- tests/KernelTest.cpp - dispatched SIMD kernel tier tests ---------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the determinism contract of sim/Kernels.h: every kernel the
// dispatcher can select (scalar, AVX2+FMA, AVX-512, NEON) produces
// bit-identical panel planes for the same inputs — across panel widths,
// for butterfly and Z-diagonal runs, from basis, random and signed-zero
// starting states, at Theta = +0, -0 and pi as well as random angles —
// and every panel column matches StateVector, the scalar reference walk.
// The fused evolve+overlap tail must reproduce the unfused
// sweep-then-overlapWith path bit for bit, and a run of same-xMask
// rotations applied in one pass must reproduce one sweep per rotation, in
// full and in sector coordinates (per-lane sine flips). The grouped
// Hamiltonian product of the lane-batched exact targets must match the
// scalar reference on every tier, and so must the transport solver's
// integer row prefilter. An exhaustive sign/zero sweep proves
// StateVector's and every tier's minimal arithmetic equal to the
// std::complex expression on every nonzero result. All vector tiers are
// one body (sim/KernelsSimd.h); the cross-tier loops also run it at
// NEON's width <2>, compiled for the host's baseline ISA, so every host
// checks the NEON arithmetic. On hosts whose best tier *is* scalar the
// AVX2/AVX-512 comparisons are trivial; the AVX CI hosts enforce them.
//
//===----------------------------------------------------------------------===//

#include "core/CompilerEngine.h"
#include "core/TransitionBuilders.h"
#include "hamgen/Models.h"
#include "hamgen/Registry.h"
#include "sim/Fidelity.h"
#include "sim/Kernels.h"
#include "sim/KernelsSimd.h"
#include "sim/StatePanel.h"
#include "sim/StateVector.h"
#include "support/AlignedAlloc.h"
#include "support/RNG.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <algorithm>
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

/// The shared vector body at NEON's width, built for this host: test
/// only, never dispatched, listed, or pinnable.
constexpr kernels::Ops Width2Ops = kernels::simd::makeOps<2>("simd-2");

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
  for (uint64_t X = 0; X < P.rows(); ++X)
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
  const size_t N = A.rows() * A.laneStride();
  if (B.rows() * B.laneStride() != N)
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

// The dispatched panel kernels and StateVector's scalar reference loops
// are different code paths; under the dispatched tier a panel column must
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
            TargetPanel Packed(B, Targets.data());
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

// The zero-tolerance proof of the minimal-arithmetic contract: for every
// phase +/- i^k (k = 0..3, both signs, on butterflies; +/-1 on diagonals)
// and every combination of +0, -0, +v and -v in the four parts of
// (a0, a1), StateVector::applyPauliExp (the scalar reference walk) and
// each tier's panel run and fused-overlap rotation must give every
// nonzero output part the bits of CosT*A0 + ISinT*(Ph*A1) computed with
// std::complex — and a zero wherever that expression is a zero, of either
// sign. The walk takes angles whose cosine and sine cover every sign,
// +/-0 included; the panel kernels take c in {+0.6, -0.6, 1} and s in
// {+0.8, -0.8, +0, -0} directly.
TEST(KernelBitIdentityTest, MinimalArithmeticMatchesComplexExpansion) {
  const unsigned N = 4;
  const size_t Dim = size_t(1) << N;
  // Strings by k = popcount(xMask & zMask) mod 4, with Z on qubit 0 so
  // both phase signs occur among adjacent rows. The last two are
  // diagonals.
  const std::vector<std::vector<std::pair<unsigned, PauliOpKind>>> Specs = {
      {{2, PauliOpKind::X}, {0, PauliOpKind::Z}},
      {{2, PauliOpKind::Y}, {0, PauliOpKind::Z}},
      {{2, PauliOpKind::Y}, {1, PauliOpKind::Y}, {0, PauliOpKind::Z}},
      {{3, PauliOpKind::Y}, {2, PauliOpKind::Y}, {1, PauliOpKind::Y},
       {0, PauliOpKind::Z}},
      {{1, PauliOpKind::Z}, {0, PauliOpKind::Z}},
      {{3, PauliOpKind::Z}}};
  // Part magnitudes differ so no product pair cancels exactly.
  const double Mag[4] = {0.3, 1.1, 0.7, 1.9};
  const auto Part = [&](unsigned Combo, unsigned I) {
    const unsigned Kind = (Combo >> (2 * I)) & 3;
    return Kind == 0 ? 0.0 : Kind == 1 ? -0.0 : Kind == 2 ? Mag[I] : -Mag[I];
  };
  const auto Check = [](double Got, double Want) {
    return Want == 0.0 ? Got == 0.0
                       : serial::doubleBits(Got) == serial::doubleBits(Want);
  };
  // Angles of the walk: cos = 1 with sin = +0 and -0, cos = -1, and the
  // four sign pairs of (0.6, 0.8).
  const double A = std::atan2(0.8, 0.6);
  const double WalkThetas[] = {0.0, -0.0, M_PI, A, -A, M_PI - A, A - M_PI};
  size_t WalkCases = 0, Cases = 0;
  for (const auto &Spec : Specs) {
    PauliString P;
    for (const auto &[Q, Op] : Spec)
      P.setOp(Q, Op);
    const uint64_t XM = P.xMask();
    const detail::PauliPhases Ph(P);
    // Start state for combo M: every row pair {X, X ^ XM} (every row on a
    // diagonal) holds a0 = (part 0, part 1), a1 = (part 2, 3).
    const auto Fill = [&](unsigned M, uint64_t X) {
      const bool Low = XM == 0 || !(X & (XM & (~XM + 1)));
      return Low ? Complex(Part(M, 0), Part(M, 1))
                 : Complex(Part(M, 2), Part(M, 3));
    };
    const auto Expected = [&](Complex CosT, Complex ISinT, const Complex *In,
                              uint64_t X) {
      return CosT * In[X] + ISinT * (Ph.at(X ^ XM) * In[X ^ XM]);
    };
    for (const double Theta : WalkThetas) {
      const Complex CosT(std::cos(Theta), 0.0), ISinT(0.0, std::sin(Theta));
      for (unsigned M = 0; M < 256; ++M) {
        CVector In(Dim);
        for (uint64_t X = 0; X < Dim; ++X)
          In[X] = Fill(M, X);
        StateVector Walk(N, In);
        Walk.applyPauliExp(P, Theta);
        const CVector &Out = Walk.amplitudes();
        for (uint64_t X = 0; X < Dim; ++X) {
          const Complex Want = Expected(CosT, ISinT, In.data(), X);
          ASSERT_TRUE(Check(Out[X].real(), Want.real()) &&
                      Check(Out[X].imag(), Want.imag()))
              << "walk, " << P.str(N) << ", theta " << Theta << ", combo "
              << M << ", X " << X;
        }
      }
      WalkCases += 256;
    }
    for (const double C : {0.6, -0.6, 1.0}) {
      for (const double S : {0.8, -0.8, 0.0, -0.0}) {
        const kernels::RotationStep R = kernels::RotationStep::of(P, C, S);
        const Complex CosT(C, 0.0), ISinT(0.0, S);
        for (const kernels::Ops *Tier : crossTierOps()) {
          // Lane L of call M carries combo 8 * M + L; the run kernel and
          // the fused tail's rotation both go through it.
          for (unsigned M = 0; M < 32; ++M) {
            StatePanel Run(N, std::vector<uint64_t>(8, 0));
            for (uint64_t X = 0; X < Dim; ++X)
              for (unsigned L = 0; L < 8; ++L) {
                const Complex V = Fill(8 * M + L, X);
                Run.realPlane()[X * 8 + L] = V.real();
                Run.imagPlane()[X * 8 + L] = V.imag();
              }
            StatePanel Fused = Run;
            const StatePanel In = Run;
            Tier->PanelExpRunF64(Run.realPlane(), Run.imagPlane(), Dim, 8, XM,
                                 &R, 1);
            std::vector<double> Zero(Dim * 8, 0.0), Acc(16, 0.0);
            Tier->PanelExpOverlapF64(Fused.realPlane(), Fused.imagPlane(),
                                     Dim, 8, XM, R, Zero.data(), Zero.data(),
                                     Acc.data(), Acc.data() + 8);
            ASSERT_TRUE(panelsBitIdentical(Run, Fused)) << Tier->Name;
            for (unsigned L = 0; L < 8; ++L) {
              const CVector Col = In.column(L), Got = Run.column(L);
              for (uint64_t X = 0; X < Dim; ++X) {
                const Complex Want = Expected(CosT, ISinT, Col.data(), X);
                ASSERT_TRUE(Check(Got[X].real(), Want.real()) &&
                            Check(Got[X].imag(), Want.imag()))
                    << "panel, tier " << Tier->Name << ", " << P.str(N)
                    << ", c " << C << ", s " << S << ", combo " << 8 * M + L
                    << ", X " << X;
              }
            }
          }
        }
        Cases += 256;
      }
    }
  }
  // 6 strings x 7 angles (walk) or x 3 cosines x 4 sines (panels) x 256
  // amplitude combinations.
  EXPECT_EQ(WalkCases, 6u * 7 * 256);
  EXPECT_EQ(Cases, 6u * 3 * 4 * 256);
}

// A run of K rotations sharing an xMask, applied in one PanelExpRunF64
// pass, must equal K one-step sweeps with memcmp — zero signs included —
// on every tier and the width-2 body, for K = 1..8, diagonal runs,
// pivot-1 runs (adjacent rows) and wider masks, one- to five-qubit
// registers (fewer pairs than a step interleaves), one- and three-vector
// strides, random and signed-zero starts, with angles including +0, -0
// and pi. Every tier's run must also equal the scalar tier's.
TEST(KernelBitIdentityTest, PanelRunMatchesSingleStepSweepsBitwise) {
  RNG Rng(31337);
  for (unsigned N : {1u, 2u, 3u, 5u}) {
    const uint64_t Dim = uint64_t(1) << N;
    for (const uint64_t XM :
         {uint64_t(0), uint64_t(1), Dim - 1, (Dim >> 1) | 1}) {
      for (size_t K = 1; K <= 8; ++K) {
        // K steps sharing XM: each X-bit position draws X or Y, every
        // other position I or Z.
        std::vector<kernels::RotationStep> Steps;
        for (size_t J = 0; J < K; ++J) {
          PauliString P;
          for (unsigned Q = 0; Q < N; ++Q) {
            const bool Flip = Rng.bernoulli(0.5);
            P.setOp(Q, (XM >> Q) & 1
                           ? (Flip ? PauliOpKind::Y : PauliOpKind::X)
                           : (Flip ? PauliOpKind::Z : PauliOpKind::I));
          }
          if (XM == 0 && P.isIdentity())
            P.setOp(0, PauliOpKind::Z); // a diagonal run has no identity
          const double Angles[4] = {Rng.gaussian(), 0.0, -0.0, M_PI};
          Steps.push_back(kernels::RotationStep::of(
              P, Angles[J % 3 == 2 ? Rng.uniformInt(4) : 0]));
        }
        for (const size_t Cols : {size_t(5), size_t(17)}) {
          for (const bool SignedZeroStart : {false, true}) {
            StatePanel Start(N, randomBasis(N, Cols, Rng));
            if (SignedZeroStart) {
              fillSignedZeros(Start, Rng);
            } else {
              for (uint64_t X = 0; X < Dim; ++X)
                for (size_t C = 0; C < Cols; ++C) {
                  Start.realPlane()[X * Start.laneStride() + C] =
                      Rng.gaussian();
                  Start.imagPlane()[X * Start.laneStride() + C] =
                      Rng.gaussian();
                }
            }
            const size_t Stride = Start.laneStride();
            StatePanel ScalarRun = Start;
            kernels::scalarOps().PanelExpRunF64(
                ScalarRun.realPlane(), ScalarRun.imagPlane(), Dim, Stride, XM,
                Steps.data(), K);
            for (const kernels::Ops *Tier : crossTierOps()) {
              StatePanel Run = Start, Swept = Start;
              Tier->PanelExpRunF64(Run.realPlane(), Run.imagPlane(), Dim,
                                   Stride, XM, Steps.data(), K);
              for (size_t J = 0; J < K; ++J)
                Tier->PanelExpRunF64(Swept.realPlane(), Swept.imagPlane(),
                                     Dim, Stride, XM, &Steps[J], 1);
              ASSERT_TRUE(panelsBitIdentical(Run, Swept))
                  << "tier " << Tier->Name << ", " << N << " qubits, xMask "
                  << XM << ", K " << K << ", " << Cols << " columns";
              ASSERT_TRUE(panelsBitIdentical(ScalarRun, Run))
                  << "tier " << Tier->Name << " vs scalar, " << N
                  << " qubits, xMask " << XM << ", K " << K;
            }
          }
        }
      }
    }
  }
}

// Sector coordinates: steps carry per-lane sine flips (LaneFlips). A
// lane-masked run and the fused overlap tail on raw planes must match the
// scalar reference with memcmp — zero signs included — on every tier and
// the width-2 body, for 2^r-row planes (r = 0..5, including runs with
// fewer pairs than a step interleaves), one- and three-vector strides,
// diagonal and butterfly masks, random and signed-zero starts, angles
// including +0, -0 and pi, and random flips on every live lane. Each
// tier's run must also equal K single sweeps.
TEST(KernelBitIdentityTest, LaneMaskedRunAndFusedOverlapMatchScalar) {
  RNG Rng(4711);
  for (unsigned R : {0u, 1u, 2u, 3u, 5u}) {
    const uint64_t Rows = uint64_t(1) << R;
    for (const size_t Stride : {size_t(8), size_t(24)}) {
      for (int Trial = 0; Trial < 6; ++Trial) {
        const uint64_t XM = Trial == 0 ? 0 : Rng.uniformInt(Rows);
        const size_t K = 1 + Rng.uniformInt(8);
        std::vector<kernels::RotationStep> Steps;
        for (size_t J = 0; J < K; ++J) {
          PauliString P;
          for (unsigned Q = 0; Q < R; ++Q) {
            const bool Flip = Rng.bernoulli(0.5);
            P.setOp(Q, (XM >> Q) & 1
                           ? (Flip ? PauliOpKind::Y : PauliOpKind::X)
                           : (Flip ? PauliOpKind::Z : PauliOpKind::I));
          }
          const double Angles[4] = {Rng.gaussian(), 0.0, -0.0, M_PI};
          kernels::RotationStep Step =
              kernels::RotationStep::of(P, Angles[Rng.uniformInt(4)]);
          Step.LaneFlips = Rng.next() & ((uint64_t(1) << (Stride - 3)) - 1);
          Steps.push_back(Step);
        }
        const size_t N = Rows * Stride;
        const bool SignedZeroStart = Trial % 2;
        std::vector<double> Re0(N), Im0(N), TRe(N), TImNeg(N);
        for (size_t I = 0; I < N; ++I) {
          Re0[I] = SignedZeroStart ? signedZeroPart(Rng) : Rng.gaussian();
          Im0[I] = SignedZeroStart ? signedZeroPart(Rng) : Rng.gaussian();
          TRe[I] = signedZeroPart(Rng);
          TImNeg[I] = signedZeroPart(Rng);
        }
        using Plane = std::vector<double, AlignedAllocator<double, 64>>;
        struct Result {
          Plane Re, Im, FusedRe, FusedIm, Acc;
        };
        const auto Evolve = [&](const kernels::Ops &Tier, bool Sweeps) {
          Result Out{Plane(Re0.begin(), Re0.end()),
                     Plane(Im0.begin(), Im0.end()),
                     Plane(Re0.begin(), Re0.end()),
                     Plane(Im0.begin(), Im0.end()), Plane(2 * Stride, 0.0)};
          if (Sweeps)
            for (size_t J = 0; J < K; ++J)
              Tier.PanelExpRunF64(Out.Re.data(), Out.Im.data(), Rows, Stride,
                                  XM, &Steps[J], 1);
          else
            Tier.PanelExpRunF64(Out.Re.data(), Out.Im.data(), Rows, Stride,
                                XM, Steps.data(), K);
          Tier.PanelExpOverlapF64(Out.FusedRe.data(), Out.FusedIm.data(),
                                  Rows, Stride, XM, Steps.back(), TRe.data(),
                                  TImNeg.data(), Out.Acc.data(),
                                  Out.Acc.data() + Stride);
          return Out;
        };
        const auto Same = [](const Plane &A, const Plane &B) {
          return std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) ==
                 0;
        };
        const Result Scalar = Evolve(kernels::scalarOps(), false);
        for (const kernels::Ops *Tier : crossTierOps()) {
          for (const bool Sweeps : {false, true}) {
            const Result Got = Evolve(*Tier, Sweeps);
            const std::string Where =
                std::string("tier ") + Tier->Name + ", rows " +
                std::to_string(Rows) + ", stride " + std::to_string(Stride) +
                ", xMask " + std::to_string(XM) + ", K " + std::to_string(K) +
                (Sweeps ? ", single sweeps" : ", one run");
            ASSERT_TRUE(Same(Scalar.Re, Got.Re) && Same(Scalar.Im, Got.Im))
                << Where;
            ASSERT_TRUE(Same(Scalar.FusedRe, Got.FusedRe) &&
                        Same(Scalar.FusedIm, Got.FusedIm) &&
                        Same(Scalar.Acc, Got.Acc))
                << "fused, " << Where;
          }
        }
      }
    }
  }
}

// End to end: a 17-column fidelity evaluation (two fused panel blocks
// plus a 1-column panel block) under live dispatch must reproduce a
// serial single-state replay bit for bit, for every EvalJobs fan-out.
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

// End to end on a schedule with runs: a Markov-sampled Na+ gc schedule,
// where most adjacent rotations share an xMask, must evaluate bit for bit
// like a serial single-state replay — fidelity() and stateFidelity(), 17
// columns (two run-fused panel blocks plus a 1-column one), EvalJobs 1
// and 4 — and so must the same schedule with identity rotations spliced
// into its runs.
TEST(KernelBitIdentityTest, SampledScheduleRunsMatchSerialReference) {
  const Hamiltonian H =
      makeBenchmark(*findBenchmark("Na+")).merged().splitLargeTerms();
  const double T = M_PI / 4;
  auto Graph = std::make_shared<const HTTGraph>(
      H, makeConfigMatrix(H, 0.4, 0.6, 0.0));
  const SamplingStrategy Strategy(Graph, T, 0.05);
  std::vector<ScheduledRotation> Sampled =
      CompilerEngine().compileOne(Strategy, 5).Schedule;
  size_t Shared = 0;
  for (size_t I = 1; I < Sampled.size(); ++I)
    Shared += Sampled[I].String.xMask() == Sampled[I - 1].String.xMask();
  ASSERT_GT(Shared * 2, Sampled.size()) << "the schedule has too few runs";
  std::vector<ScheduledRotation> Broken;
  for (size_t I = 0; I < Sampled.size(); ++I) {
    if (I % 7 == 3)
      Broken.emplace_back(PauliString(), 0.05 * double(I % 5));
    Broken.push_back(Sampled[I]);
  }

  FidelityEvaluator Eval(H, T, /*NumColumns=*/17, /*Seed=*/3);
  for (const auto *Schedule : {&Sampled, &Broken}) {
    Complex Acc = 0.0;
    double StateAcc = 0.0;
    for (size_t C = 0; C < Eval.numColumns(); ++C) {
      StateVector SV(Eval.numQubits(), Eval.columns()[C]);
      for (const ScheduledRotation &Step : *Schedule)
        SV.applyPauliExp(Step.String, Step.Tau);
      const Complex O = innerProduct(Eval.targets()[C], SV.amplitudes());
      Acc += O;
      StateAcc += std::norm(O);
    }
    const uint64_t Ref = serial::doubleBits(std::abs(Acc) / 17.0);
    const uint64_t StateRef = serial::doubleBits(StateAcc / 17.0);
    for (unsigned Jobs : {1u, 4u}) {
      EXPECT_EQ(serial::doubleBits(Eval.fidelity(*Schedule, Jobs)), Ref)
          << Schedule->size() << " rotations, eval-jobs " << Jobs;
      EXPECT_EQ(serial::doubleBits(Eval.stateFidelity(*Schedule, Jobs)),
                StateRef)
          << Schedule->size() << " rotations, eval-jobs " << Jobs;
    }
  }
}

// The grouped Hamiltonian product of the lane-batched targets,
// Y[u ^ XM] += D[u] * X[u]: every tier and the width-2 body must leave
// planes memcmp-equal to the scalar reference, zero signs included — with
// diagonal, amplitude and accumulator parts drawn from +0, -0 and
// Gaussians, XM = 0 (the diagonal group) and random masks, on 1 to 32
// rows and one- and three-vector strides.
TEST(KernelBitIdentityTest, PanelGroupProductMatchesScalar) {
  RNG Rng(5150);
  for (unsigned R : {0u, 1u, 3u, 5u}) {
    const uint64_t Rows = uint64_t(1) << R;
    for (const size_t Stride : {size_t(8), size_t(24)}) {
      for (int Trial = 0; Trial < 4; ++Trial) {
        const uint64_t XM = Trial == 0 ? 0 : Rng.uniformInt(Rows);
        CVector D(Rows);
        for (Complex &V : D) {
          const double Re = signedZeroPart(Rng);
          V = Complex(Re, signedZeroPart(Rng));
        }
        const size_t N = Rows * Stride;
        std::vector<double> XRe(N), XIm(N), YRe0(N), YIm0(N);
        for (size_t I = 0; I < N; ++I) {
          XRe[I] = signedZeroPart(Rng);
          XIm[I] = signedZeroPart(Rng);
          YRe0[I] = signedZeroPart(Rng);
          YIm0[I] = signedZeroPart(Rng);
        }
        const auto Run = [&](const kernels::Ops &Tier) {
          std::vector<double> Y(YRe0);
          Y.insert(Y.end(), YIm0.begin(), YIm0.end());
          Tier.PanelGroupProductF64(D.data(), XRe.data(), XIm.data(),
                                    Y.data(), Y.data() + N, Rows, Stride, XM);
          return Y;
        };
        const std::vector<double> Scalar = Run(kernels::scalarOps());
        for (const kernels::Ops *Tier : crossTierOps()) {
          const std::vector<double> Got = Run(*Tier);
          ASSERT_EQ(std::memcmp(Scalar.data(), Got.data(),
                                Scalar.size() * sizeof(double)),
                    0)
              << "tier " << Tier->Name << ", rows " << Rows << ", stride "
              << Stride << ", xMask " << XM;
        }
      }
    }
  }
}

TEST(KernelBitIdentityTest, RowCandidatesMatchScalar) {
  // The transport solver's row prefilter over a cost view, on every row
  // length up to 130 and a spread up to LiH's 614: rows that fill whole
  // vectors and words, end inside one, or are shorter than a vector; rows
  // start one entry past an aligned base as well. Row I of
  // an N x N view reads its draw bits from bit I * N on, so the first,
  // second, middle and last rows give windows at every bit offset, windows
  // that straddle two words and windows that end in the last of the
  // ceil(N^2 / 64) words, which are allocated exactly (an over-read shows
  // under ASan). Each distance sits one below, at or one above its
  // candidate, and some entries and scales are extreme, so the wrapping
  // sum, the draw add and the signed compare are all exercised.
  RNG Rng(6140);
  const int64_t Extremes[] = {INT64_MIN, INT64_MIN + 1, -1, 0,
                              INT64_MAX - 1, INT64_MAX};
  const auto Pick = [&](int64_t Small) {
    return Rng.bernoulli(0.1) ? Extremes[Rng.uniformInt(6)] : Small;
  };
  const int64_t Scales[] = {0, 2, INT64_MAX, INT64_MAX - 1, INT64_MIN + 1};
  std::vector<size_t> Sizes;
  for (size_t N = 1; N <= 130; ++N)
    Sizes.push_back(N);
  for (const size_t N : {191, 255, 256, 257, 383, 500, 613, 614})
    Sizes.push_back(N);
  for (const size_t N : Sizes) {
    std::vector<uint64_t> Draws((N * N + 63) / 64);
    for (uint64_t &Word : Draws)
      Word = Rng.next();
    std::vector<size_t> Rows = {0, 1, N / 2, N - 1};
    std::sort(Rows.begin(), Rows.end());
    Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
    for (const size_t I : Rows) {
      if (I >= N)
        continue;
      const uint64_t *RowDraws = Draws.data() + I * N / 64;
      const size_t DrawBit = I * N % 64;
      for (const int64_t Scale : Scales) {
        for (const size_t Offset : {size_t(0), size_t(1)}) {
          std::vector<int64_t> Row(N + 1), Pot(N + 1), Dist(N + 1);
          const int64_t Base =
              Pick(static_cast<int64_t>(Rng.uniformInt(1000)));
          std::vector<bool> Drawn(N);
          for (size_t J = 0; J < N; ++J) {
            const size_t K = I * N + J;
            Drawn[J] = (Draws[K / 64] >> (K % 64)) & 1;
            int64_t &R = Row[Offset + J], &P = Pot[Offset + J];
            R = Pick(static_cast<int64_t>(Rng.uniformInt(41)));
            P = Pick(static_cast<int64_t>(Rng.uniformInt(1000)));
            const uint64_t Cand = static_cast<uint64_t>(Base) +
                                  static_cast<uint64_t>(R) +
                                  (Drawn[J] ? static_cast<uint64_t>(Scale)
                                            : 0) -
                                  static_cast<uint64_t>(P);
            const uint64_t Step = Rng.uniformInt(3) - 1;
            Dist[Offset + J] = Pick(static_cast<int64_t>(Cand + Step));
          }
          std::vector<uint64_t> Expected((N + 63) / 64, 0);
          for (size_t J = 0; J < N; ++J)
            if (kernels::rowCandidate(Base, Row[Offset + J], Drawn[J], Scale,
                                      Pot[Offset + J], Dist[Offset + J]))
              Expected[J / 64] |= uint64_t(1) << (J % 64);
          for (const kernels::Ops *Tier : crossTierOps()) {
            std::vector<uint64_t> Got(Expected.size(), ~uint64_t(0));
            Tier->RowCandidatesI64(Row.data() + Offset, RowDraws, DrawBit,
                                   Scale, Pot.data() + Offset,
                                   Dist.data() + Offset, Base, N, Got.data());
            ASSERT_EQ(Got, Expected)
                << "tier " << Tier->Name << ", N " << N << ", row " << I
                << ", scale " << Scale << ", offset " << Offset;
          }
        }
      }
    }
  }
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
