//===- perfbench/src/Workloads.h - The benchmark workloads ------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three paper workloads and the two ways of running them: a timed run
/// that reports the end-to-end metrics, and a traced run that replays each
/// request through the layers' public entry points and reports per-layer
/// metrics. Both runs check every output outside their timed regions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Scratch directory for shard work dirs and the trace file; created on
  /// demand, per-run subdirectories removed at the end.
  std::string WorkDir = ".bench_build/perfbench-work";
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

struct RunReport {
  size_t Attempted = 0;
  size_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Human-readable lines (checks, tail sample counts, dominant layers).
  std::vector<std::string> Lines;
};

/// Names of the workloads, in BENCHMARK.json order.
std::vector<std::string> workloadNames();

/// Runs one workload. Returns false with \p Error when the workload is
/// unknown or its set-up fails (no result can be reported then); failed
/// requests and checks are counted in the report instead.
bool runWorkload(const RunOptions &O, RunReport &R, std::string *Error);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
