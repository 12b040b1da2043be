//===- perfbench/src/SelfTest.cpp - Tests of the benchmark's own code -----===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Self-tests for the statistics helpers, the span arithmetic, and the
// checkers the benchmark relies on. Exits 0 when every test passes.
//
//   python3 perfbench/run.py --selftest
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What, int Line) {
  if (!Ok) {
    ++Failures;
    std::printf("FAIL line %d: %s\n", Line, What);
  }
}
#define EXPECT(C) expect((C), #C, __LINE__)

bool near(double A, double B) { return std::fabs(A - B) <= 1e-12; }

void testMedianAndQuartiles() {
  EXPECT(median({}) == 0.0);
  EXPECT(median({3.0}) == 3.0);
  EXPECT(median({5.0, 1.0, 3.0}) == 3.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::array<double, 3> Q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT(near(Q[0], 2.75) && near(Q[1], 5.5) && near(Q[2], 8.25));
  // Python: statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  Q = quartiles({5, 4, 3, 2, 1});
  EXPECT(near(Q[0], 1.5) && near(Q[1], 3.0) && near(Q[2], 4.5));
  // Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  Q = quartiles({1, 2});
  EXPECT(near(Q[0], 0.75) && near(Q[1], 1.5) && near(Q[2], 2.25));
}

std::vector<double> range1(size_t N) {
  std::vector<double> V;
  for (size_t I = N; I >= 1; --I)
    V.push_back(static_cast<double>(I));
  return V;
}

void testTailRule() {
  // 100 samples: p90 is the 90th value with exactly 10 beyond it.
  TailStat T = tailPercentile(range1(100));
  EXPECT(T.Percentile == 90 && T.Value == 90.0 && T.Beyond == 10);
  // 20 samples: only p50 keeps 10 beyond.
  T = tailPercentile(range1(20));
  EXPECT(T.Percentile == 50 && T.Value == 10.0 && T.Beyond == 10);
  // 11 samples: rank 1 is the only one with 10 beyond; p9 is the highest
  // whole percentile that maps there (ceil(0.09 * 11) = 1).
  T = tailPercentile(range1(11));
  EXPECT(T.Percentile == 9 && T.Value == 1.0 && T.Beyond == 10);
  // 10 samples: no percentile qualifies; the maximum is reported.
  T = tailPercentile(range1(10));
  EXPECT(T.Percentile == 0 && T.Value == 10.0 && T.Samples == 10);
  // 57 samples (a typical fidelity-oh run): p82 keeps 10 beyond.
  T = tailPercentile(range1(57));
  EXPECT(T.Percentile == 82 && T.Beyond == 10 && T.Value == 47.0);
}

void testFailureCounting() {
  FailureCounter F;
  EXPECT(F.attempted() == 0 && F.failedFrac() == 1.0);
  F.record(true);
  F.record(true);
  F.record(false);
  F.record(true);
  EXPECT(F.attempted() == 4 && F.failed() == 1);
  EXPECT(near(F.failedFrac(), 0.25) && near(F.successFrac(), 0.75));
}

void testTheorem41Checker() {
  // pi = (0.5, 0.25, 0.25) from coefficients (2, -1, 1).
  const std::vector<double> Coeffs = {2.0, -1.0, 1.0};
  // qDrift: every row is pi. Valid.
  std::vector<double> QD = {0.5, 0.25, 0.25, 0.5, 0.25, 0.25,
                            0.5, 0.25, 0.25};
  EXPECT(checkTheorem41(QD, 3, Coeffs, 1e-12, 1e-12).Ok);
  // Row 0 sums to 1.1: invalid.
  std::vector<double> BadRow = QD;
  BadRow[0] = 0.6;
  Theorem41Report R = checkTheorem41(BadRow, 3, Coeffs, 1e-12, 1e-12);
  EXPECT(!R.Ok && near(R.MaxRowDeviation, 0.1));
  // Rows sum to 1 but pi is not stationary: uniform rows.
  std::vector<double> Uniform(9, 1.0 / 3.0);
  R = checkTheorem41(Uniform, 3, Coeffs, 1e-12, 1e-12);
  EXPECT(!R.Ok && R.MaxRowDeviation < 1e-15 &&
         R.MaxStationaryDeviation > 0.1);
  // Identity: stochastic and stationary, but not strongly connected.
  std::vector<double> Id = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  R = checkTheorem41(Id, 3, Coeffs, 1e-12, 1e-12);
  EXPECT(!R.Ok && !R.StronglyConnected && R.MaxStationaryDeviation == 0.0);
  // A negative entry is rejected even when the sums work out.
  std::vector<double> Neg = QD;
  Neg[1] = 0.35;
  Neg[2] = 0.15;
  Neg[4] = -0.05;
  Neg[5] = 0.55;
  EXPECT(!checkTheorem41(Neg, 3, Coeffs, 1, 1).Ok);
  // Shape mismatches never pass.
  EXPECT(!checkTheorem41(QD, 2, Coeffs, 1, 1).Ok);
}

void testColumnDeviation() {
  std::vector<marqsim::CVector> Ref(2, marqsim::CVector(4));
  Ref[0][1] = 1.0;
  Ref[1][3] = 1.0;
  std::vector<marqsim::CVector> Targets = Ref;
  EXPECT(maxDeviation(Ref, Targets) == 0.0);
  Targets[1][3] = marqsim::Complex(0.0, 1.0);
  EXPECT(near(maxDeviation(Ref, Targets), std::sqrt(2.0)));
  EXPECT(std::isinf(maxDeviation(Ref, {Ref[0]})));
  Targets[0].pop_back();
  EXPECT(std::isinf(maxDeviation(Ref, Targets)));
}

void testBitsAndSelfTimes() {
  EXPECT(sameBits({1.0, 0.5}, {1.0, 0.5}));
  EXPECT(!sameBits({0.0}, {-0.0}));

  // Parent [0, 10] with children [1, 4] and [3, 6] overlapping (two
  // threads) and [8, 12] sticking out: covered = [1, 6] + [8, 10] = 7.
  std::vector<Span> S(4);
  S[0] = {"p", 1, 0, 1, 0.0, 10.0, 0};
  S[1] = {"a", 2, 1, 1, 1.0, 4.0, 0};
  S[2] = {"b", 3, 1, 1, 3.0, 6.0, 1};
  S[3] = {"c", 4, 1, 1, 8.0, 12.0, 0};
  std::map<uint64_t, double> Self = selfTimes(S);
  EXPECT(near(Self[1], 3.0) && near(Self[2], 3.0) && near(Self[4], 4.0));

  Tracer Off(false);
  { Scope X(Off, "x", 0, 1); }
  EXPECT(Off.spans().empty());
  Tracer On(true);
  {
    Scope Outer(On, "outer", 0, 7);
    Scope Inner(On, "inner", Outer.id(), 7);
  }
  std::vector<Span> Rec = On.spans();
  EXPECT(Rec.size() == 2 && Rec[0].Name == "inner" &&
         Rec[0].Parent == Rec[1].Id && Rec[1].Request == 7 &&
         Rec[1].Start <= Rec[0].Start && Rec[0].End <= Rec[1].End);
}

} // namespace

int main() {
  testMedianAndQuartiles();
  testTailRule();
  testFailureCounting();
  testTheorem41Checker();
  testColumnDeviation();
  testBitsAndSelfTimes();
  std::printf("perfbench self-tests: %s (%d failure%s)\n",
              Failures ? "FAILED" : "passed", Failures,
              Failures == 1 ? "" : "s");
  return Failures ? 1 : 0;
}
