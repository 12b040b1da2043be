//===- perfbench/src/Stats.h - Benchmark statistics helpers -----*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small statistics the benchmark reports: medians, quartiles with the
/// same interpolation as Python's statistics.quantiles(n=4) (the
/// "exclusive" method), the tail rule "the highest percentile with at least
/// ten samples beyond it", and failure counting. Header-only so the
/// self-tests exercise exactly the code the benchmark runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Q1, Q2, Q3 exactly as Python's statistics.quantiles(V, n=4) computes
/// them: positions i*(n+1)/4 of the sorted data, interpolated linearly and
/// clamped to the first/last pair. A single value is returned for all
/// three quartiles.
inline std::array<double, 3> quartiles(std::vector<double> V) {
  std::array<double, 3> Q{0.0, 0.0, 0.0};
  if (V.empty())
    return Q;
  std::sort(V.begin(), V.end());
  const long LD = static_cast<long>(V.size());
  if (LD == 1)
    return {V[0], V[0], V[0]};
  const long M = LD + 1;
  for (long I = 1; I < 4; ++I) {
    long J = I * M / 4;
    J = J < 1 ? 1 : (J > LD - 1 ? LD - 1 : J);
    const long Delta = I * M - J * 4;
    Q[static_cast<size_t>(I - 1)] =
        (V[static_cast<size_t>(J - 1)] * static_cast<double>(4 - Delta) +
         V[static_cast<size_t>(J)] * static_cast<double>(Delta)) /
        4.0;
  }
  return Q;
}

/// A tail latency: the highest whole percentile whose nearest-rank sample
/// still has at least MinBeyond samples ranked after it.
struct TailStat {
  double Value = 0.0;
  unsigned Percentile = 0; ///< 0 when too few samples for any percentile
  size_t Beyond = 0;       ///< samples ranked after Value
  size_t Samples = 0;
};

/// 1-based nearest rank of percentile \p P among \p N sorted samples:
/// ceil(P/100 * N), at least 1.
inline size_t nearestRank(unsigned P, size_t N) {
  size_t K = (static_cast<size_t>(P) * N + 99) / 100;
  return K < 1 ? 1 : K;
}

/// Scans P = 99, 98, ..., 1 and returns the first percentile with at least
/// \p MinBeyond samples beyond it. With too few samples for any
/// percentile, Percentile is 0 and Value is the maximum (the honest worst
/// case).
inline TailStat tailPercentile(std::vector<double> V, size_t MinBeyond = 10) {
  TailStat T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  for (unsigned P = 99; P >= 1; --P) {
    size_t K = nearestRank(P, N);
    if (N - K >= MinBeyond) {
      T.Value = V[K - 1];
      T.Percentile = P;
      T.Beyond = N - K;
      return T;
    }
  }
  T.Value = V.back();
  return T;
}

/// Counts attempted operations and those that failed or failed a check.
/// A failed check never aborts the run; it only lands here.
class FailureCounter {
public:
  void record(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
  size_t attempted() const { return Attempted; }
  size_t failed() const { return Failed; }
  double failedFrac() const {
    return Attempted ? static_cast<double>(Failed) / Attempted : 1.0;
  }
  /// The reported form, 1 - failedFrac: never 0 unless everything failed.
  double successFrac() const { return 1.0 - failedFrac(); }

private:
  size_t Attempted = 0;
  size_t Failed = 0;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
