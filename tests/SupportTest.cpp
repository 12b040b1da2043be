//===- tests/SupportTest.cpp - support library tests --------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"
#include "support/RNG.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

using namespace marqsim;

TEST(RNGTest, DeterministicStreams) {
  RNG A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool AnyDifferent = false;
  RNG A2(42);
  for (int I = 0; I < 100; ++I)
    AnyDifferent |= A2.next() != C.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(RNGTest, ReseedResetsStream) {
  RNG A(7);
  uint64_t First = A.next();
  A.next();
  A.reseed(7);
  EXPECT_EQ(A.next(), First);
}

TEST(RNGTest, CoinFlipsMatchPerDrawBernoulli) {
  // The perturbation builder's draws: one bit per bernoulli(0.5) call,
  // written without a branch. Sizes that end inside a word included
  // (614^2 is LiH's table), and both generators must end in one state.
  for (uint64_t Seed : {0x5EEDULL, 1ULL, 2ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    for (size_t Count : {size_t(0), size_t(1), size_t(63), size_t(64),
                         size_t(65), size_t(17 * 17), size_t(614 * 614)}) {
      SCOPED_TRACE(::testing::Message() << "seed " << Seed << ", " << Count
                                        << " draws");
      const size_t Words = (Count + 63) / 64;
      RNG PerDraw(Seed), Flips(Seed);
      std::vector<uint64_t> Expected(Words, 0);
      for (size_t K = 0; K < Count; ++K)
        if (PerDraw.bernoulli(0.5))
          Expected[K / 64] |= uint64_t(1) << (K % 64);
      std::vector<uint64_t> Got(Words, ~uint64_t(0));
      Flips.coinFlips(Got.data(), Count);
      EXPECT_EQ(Got, Expected);
      for (int I = 0; I < 4; ++I) // every state word feeds these four
        EXPECT_EQ(Flips.next(), PerDraw.next());
    }
  }
}

TEST(RNGTest, UniformInUnitInterval) {
  RNG Rng(1);
  for (int I = 0; I < 10000; ++I) {
    double U = Rng.uniform();
    ASSERT_GE(U, 0.0);
    ASSERT_LT(U, 1.0);
  }
}

TEST(RNGTest, UniformMeanAndVariance) {
  RNG Rng(2);
  double Sum = 0, Sum2 = 0;
  const int N = 200000;
  for (int I = 0; I < N; ++I) {
    double U = Rng.uniform();
    Sum += U;
    Sum2 += U * U;
  }
  double Mean = Sum / N;
  double Var = Sum2 / N - Mean * Mean;
  EXPECT_NEAR(Mean, 0.5, 5e-3);
  EXPECT_NEAR(Var, 1.0 / 12.0, 5e-3);
}

TEST(RNGTest, UniformIntBoundsAndCoverage) {
  RNG Rng(3);
  std::vector<int> Counts(7, 0);
  for (int I = 0; I < 70000; ++I) {
    uint64_t V = Rng.uniformInt(7);
    ASSERT_LT(V, 7u);
    ++Counts[V];
  }
  for (int C : Counts)
    EXPECT_NEAR(C, 10000, 500);
}

TEST(RNGTest, BoundedDrawMatchesUniformInt) {
  // BoundedDraw trades uniformInt's two divisions for a precomputed
  // threshold and multiply-shift. It must return uniformInt's values and
  // consume the same stream for every bound, so the reduction is probed at
  // its edges: 0, threshold - 1, threshold, multiples of the bound and
  // their predecessors, and 2^64 - 1.
  std::vector<uint64_t> Bounds;
  for (uint64_t B = 1; B <= 4096; ++B)
    Bounds.push_back(B);
  for (unsigned K = 13; K < 64; ++K) {
    Bounds.push_back((1ULL << K) - 1);
    Bounds.push_back(1ULL << K);
    Bounds.push_back((1ULL << K) + 1);
  }
  Bounds.push_back(~0ULL);

  RNG Probe(2024);
  for (uint64_t B : Bounds) {
    SCOPED_TRACE("bound=" + std::to_string(B));
    const BoundedDraw D(B);
    ASSERT_EQ(D.bound(), B);
    const uint64_t T = (~B + 1) % B; // uniformInt's threshold
    ASSERT_EQ(D.threshold(), T);

    std::vector<uint64_t> Xs = {0, T, ~0ULL, B - 1};
    if (T > 0)
      Xs.push_back(T - 1);
    const uint64_t MaxK = ~0ULL / B; // largest K with K * B representable
    for (uint64_t K : {uint64_t(1), uint64_t(2), uint64_t(3), MaxK / 2,
                       MaxK - 1, MaxK}) {
      if (K == 0)
        continue;
      Xs.push_back(K * B - 1);
      Xs.push_back(K * B);
    }
    for (int I = 0; I < 8; ++I)
      Xs.push_back(Probe.next());
    for (uint64_t X : Xs)
      ASSERT_EQ(D.mod(X), X % B) << "X=" << X;

    RNG A(B), C(B);
    for (int I = 0; I < 32; ++I)
      ASSERT_EQ(D(A), C.uniformInt(B)) << "draw " << I;
    EXPECT_EQ(A.next(), C.next()) << "streams diverged";
  }
}

TEST(RNGTest, GaussianMoments) {
  RNG Rng(4);
  double Sum = 0, Sum2 = 0;
  const int N = 200000;
  for (int I = 0; I < N; ++I) {
    double G = Rng.gaussian();
    Sum += G;
    Sum2 += G * G;
  }
  EXPECT_NEAR(Sum / N, 0.0, 1e-2);
  EXPECT_NEAR(Sum2 / N, 1.0, 2e-2);
}

TEST(RNGTest, BernoulliProbability) {
  RNG Rng(5);
  int Hits = 0;
  for (int I = 0; I < 100000; ++I)
    Hits += Rng.bernoulli(0.3);
  EXPECT_NEAR(Hits / 1e5, 0.3, 1e-2);
}

TEST(RNGTest, SampleDiscreteMatchesWeights) {
  RNG Rng(6);
  std::vector<double> W = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> Counts(4, 0);
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    ++Counts[Rng.sampleDiscrete(W)];
  EXPECT_EQ(Counts[2], 0);
  EXPECT_NEAR(Counts[0] / double(N), 0.1, 0.01);
  EXPECT_NEAR(Counts[1] / double(N), 0.3, 0.01);
  EXPECT_NEAR(Counts[3] / double(N), 0.6, 0.01);
}

TEST(RNGTest, SplitDecorrelates) {
  RNG Parent(9);
  RNG Child = Parent.split();
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += Parent.next() == Child.next();
  EXPECT_LT(Same, 3);
}

TEST(TableTest, AlignedOutput) {
  Table T({"name", "value"});
  T.row("alpha", 1);
  T.row("b", 22);
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  EXPECT_NE(Out.find("22"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(formatDouble(0.0), "0.0000");
  // Moderate magnitudes use fixed/short form; extremes use scientific.
  EXPECT_NE(formatDouble(123.456).find("123.4"), std::string::npos);
  EXPECT_NE(formatDouble(1e-9).find("e"), std::string::npos);
}

TEST(TableTest, FormatPercent) {
  EXPECT_EQ(formatPercent(0.237), "23.7%");
  EXPECT_EQ(formatPercent(0.5, 0), "50%");
}

TEST(CommandLineTest, ParsesFlagsAndPositionals) {
  const char *Argv[] = {"prog", "--alpha=3",  "--beta", "7",
                        "--gamma", "pos1", "--flag"};
  CommandLine CL(7, Argv);
  EXPECT_EQ(CL.getInt("alpha", 0), 3);
  EXPECT_EQ(CL.getInt("beta", 0), 7);
  EXPECT_EQ(CL.getString("gamma"), "pos1");
  EXPECT_TRUE(CL.getBool("flag"));
  EXPECT_FALSE(CL.getBool("absent"));
  EXPECT_EQ(CL.getDouble("absent", 2.5), 2.5);
}

TEST(CommandLineTest, BoolForms) {
  const char *Argv[] = {"prog", "--a=true", "--b=0", "--c"};
  CommandLine CL(4, Argv);
  EXPECT_TRUE(CL.getBool("a"));
  EXPECT_FALSE(CL.getBool("b"));
  EXPECT_TRUE(CL.getBool("c"));
}

TEST(CommandLineTest, UnknownFlagNamesTheFirstFlagNotKnown) {
  // The table 2 typo: --strngs is not --strings, so it must be reported
  // rather than ignored (which would time the default workload).
  const char *Typo[] = {"prog", "--strngs=100", "--qubits=10", "--rounds=1"};
  CommandLine CL(4, Typo);
  const std::vector<std::string> Known = {"qubits", "rounds", "strings"};
  EXPECT_EQ(CL.unknownFlag(Known), "strngs");
  // Bare and "--name value" flags are checked too, and the first unknown
  // flag in name order is the one reported; positionals are not flags.
  const char *Several[] = {"prog", "--zeta", "--alpha", "7", "input.txt"};
  CommandLine Two(5, Several);
  EXPECT_EQ(Two.unknownFlag(Known), "alpha");
  EXPECT_EQ(Two.unknownFlag({"alpha"}), "zeta");
  EXPECT_EQ(Two.unknownFlag({"alpha", "zeta"}), "");
  // No flags: nothing to reject, even against an empty list.
  const char *None[] = {"prog", "input.txt"};
  EXPECT_EQ(CommandLine(2, None).unknownFlag({}), "");
  const char *Good[] = {"prog", "--strings=100", "--qubits", "10"};
  EXPECT_EQ(CommandLine(4, Good).unknownFlag(Known), "");
  // A second list (a bench's common flags) is known as well.
  EXPECT_EQ(Two.unknownFlag({"zeta"}, {"alpha"}), "");
  EXPECT_EQ(Two.unknownFlag({}, {"zeta"}), "alpha");
  // rejectUnknown is the report every binary prints before exiting 1.
  testing::internal::CaptureStderr();
  EXPECT_TRUE(CL.rejectUnknown({"strings"}, {"qubits", "rounds"}));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: unknown flag --strngs\n");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(CL.rejectUnknown(Known, {"strngs"}));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(CommandLineTest, CacheLimitMebibytesToBytes) {
  EXPECT_EQ(mebibytesToBytes(0.0), std::optional<size_t>(0));
  // Budgets round up: a sub-byte one is the tightest cap, never 0
  // (unbounded), and 1e-6 MiB is 1.048576 bytes.
  EXPECT_EQ(mebibytesToBytes(1e-7), std::optional<size_t>(1));
  EXPECT_EQ(mebibytesToBytes(1e-6), std::optional<size_t>(2));
  EXPECT_EQ(mebibytesToBytes(1.0), std::optional<size_t>(1048576));
  // A budget past size_t clamps instead of wrapping to a tiny cap.
  EXPECT_EQ(mebibytesToBytes(1e30),
            std::optional<size_t>(static_cast<size_t>(9.0e18)));
  // The flag's text goes through getDouble, so "nan" arrives as NaN.
  const char *Argv[] = {"prog", "--cache-limit-mb=nan"};
  CommandLine CL(2, Argv);
  EXPECT_FALSE(mebibytesToBytes(CL.getDouble("cache-limit-mb", 0.0)));
  EXPECT_FALSE(mebibytesToBytes(-1.0));
  EXPECT_FALSE(mebibytesToBytes(-1e-9));
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer T;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + std::sqrt(static_cast<double>(I));
  double First = T.seconds();
  EXPECT_GE(First, 0.0);
  EXPECT_GE(T.seconds(), First); // monotone
  T.reset();
  EXPECT_LT(T.seconds(), First + 1.0);
}

#ifdef __linux__
TEST(ThreadPoolTest, WorkersRunOnStartupCpusUnderAPinnedCaller) {
  // A pool grown from a pinned thread must not hand the pin to its
  // workers: they run on the CPU set the process started with.
  cpu_set_t Startup;
  CPU_ZERO(&Startup);
  ASSERT_EQ(sched_getaffinity(0, sizeof(Startup), &Startup), 0);
  const int StartupCount = CPU_COUNT(&Startup);
  if (StartupCount < 2)
    GTEST_SKIP() << "needs at least two CPUs";
  cpu_set_t One;
  CPU_ZERO(&One);
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Startup)) {
      CPU_SET(C, &One);
      break;
    }
  ASSERT_EQ(sched_setaffinity(0, sizeof(One), &One), 0);
  int Seen[2] = {0, 0};
  {
    ThreadPool Pool(2);
    for (int K = 0; K < 2; ++K)
      Pool.submit([&Seen, K] {
        cpu_set_t Mine;
        CPU_ZERO(&Mine);
        if (sched_getaffinity(0, sizeof(Mine), &Mine) == 0)
          Seen[K] = CPU_COUNT(&Mine);
      });
    Pool.wait();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(Startup), &Startup), 0);
  EXPECT_EQ(Seen[0], StartupCount);
  EXPECT_EQ(Seen[1], StartupCount);
}
#endif
