//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

using namespace perfbench;

std::map<uint64_t, double>
perfbench::selfTimes(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> Kids;
  for (const Span &S : Spans)
    if (S.Parent)
      Kids[S.Parent].push_back({S.Start, S.End});
  std::map<uint64_t, double> Self;
  for (const Span &S : Spans) {
    double Covered = 0.0;
    auto It = Kids.find(S.Id);
    if (It != Kids.end()) {
      // Union of the children's intervals, clipped to the parent's.
      std::vector<std::pair<double, double>> &V = It->second;
      std::sort(V.begin(), V.end());
      double CurStart = 0.0, CurEnd = -1.0;
      for (const auto &[B0, E0] : V) {
        double B = std::max(B0, S.Start), E = std::min(E0, S.End);
        if (E <= B)
          continue;
        if (B > CurEnd) {
          if (CurEnd > CurStart)
            Covered += CurEnd - CurStart;
          CurStart = B;
          CurEnd = E;
        } else {
          CurEnd = std::max(CurEnd, E);
        }
      }
      if (CurEnd > CurStart)
        Covered += CurEnd - CurStart;
    }
    Self[S.Id] = std::max(0.0, S.seconds() - Covered);
  }
  return Self;
}

bool perfbench::writeChromeTrace(const std::vector<Span> &Spans,
                                 const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  // Thread hashes are remapped to small tids so the viewer's lanes read.
  std::unordered_map<size_t, unsigned> Tid;
  std::fprintf(F, "{\"traceEvents\":[");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    unsigned T = Tid.emplace(S.Thread, Tid.size() + 1).first->second;
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 I ? "," : "", S.Name.c_str(), T, S.Start * 1e6,
                 S.seconds() * 1e6, static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
