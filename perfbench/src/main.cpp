//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--work-dir DIR]
//
// Prints a run header ("# " lines: kernel tier, cores, build type), one
// line per check and per reported detail, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "service/SimulationService.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n"
               "workloads:",
               Why);
  for (const std::string &N : workloadNames())
    std::fprintf(stderr, " %s", N.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseUnsigned(const char *S, unsigned long long &Out) {
  char *End = nullptr;
  if (!S || !*S || *S == '-')
    return false;
  Out = std::strtoull(S, &End, 10);
  return *End == '\0';
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    unsigned long long N = 0;
    if (Flag == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(V, N))
        return usage("--seed must be a non-negative integer");
      O.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      O.Seconds = std::atof(V);
      if (!(O.Seconds > 0.0))
        return usage("--seconds must be positive");
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace must be 0 or 1");
      O.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (Flag == "--work-dir") {
      O.WorkDir = V;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  const std::string BuildType = PERFBENCH_BUILD_TYPE;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  std::printf("# kernel tier: chosen=%s detected=%s; cores=%u; build=%s\n",
              marqsim::SimulationService::kernelName(),
              marqsim::SimulationService::detectedKernelName(),
              std::thread::hardware_concurrency(),
              BuildType.empty() ? "(none)" : BuildType.c_str());
  if (BuildType != "Release")
    std::printf("# WARNING: not a Release build; timings are not "
                "comparable\n");
  std::fflush(stdout);

  RunReport R;
  std::string Error;
  if (!runWorkload(O, R, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  for (const std::string &L : R.Lines)
    std::printf("%s\n", L.c_str());

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", V);
    std::printf("%-32s %14.6g %s\n", M.Name.c_str(), V, M.Unit.c_str());
    Json += (I ? ", " : "") + jsonString(M.Name) + ": {\"value\": " + Num +
            ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
