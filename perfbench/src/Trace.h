//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: each span is one timed call into a layer's
/// public function, recorded by the benchmark around that call (name,
/// start, end, parent span, request id, thread). Spans stay in memory until
/// the run ends, when they are aggregated into per-layer metrics and
/// written out as Chrome trace-event JSON. A disabled tracer records
/// nothing, so the same replay code serves as its own untraced baseline.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0;  ///< 0 for roots
  uint64_t Request = 0; ///< shared by every span of one request
  double Start = 0.0;   ///< seconds since the tracer's origin
  double End = 0.0;
  size_t Thread = 0;

  double seconds() const { return End - Start; }
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : On(Enabled) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - Origin).count();
  }

  /// Opens a span and returns its id (0 when disabled).
  uint64_t open() { return On ? NextId.fetch_add(1) : 0; }

  /// Records a finished span that started at \p Start (tracer time).
  void close(uint64_t Id, std::string Name, uint64_t Parent, uint64_t Request,
             double Start) {
    if (!On)
      return;
    Span S;
    S.Name = std::move(Name);
    S.Id = Id;
    S.Parent = Parent;
    S.Request = Request;
    S.Start = Start;
    S.End = now();
    S.Thread = std::hash<std::thread::id>()(std::this_thread::get_id());
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans.push_back(std::move(S));
  }

  /// Snapshot of every recorded span.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Spans;
  }

private:
  using Clock = std::chrono::steady_clock;
  const bool On;
  const Clock::time_point Origin = Clock::now();
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// RAII span: opened on construction, recorded on destruction.
class Scope {
public:
  Scope(Tracer &T, const char *Name, uint64_t Parent, uint64_t Request)
      : T(T), Name(Name), Parent(Parent), Request(Request), Id(T.open()),
        Start(T.now()) {}
  ~Scope() { T.close(Id, Name, Parent, Request, Start); }

  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  uint64_t id() const { return Id; }

private:
  Tracer &T;
  const char *Name;
  uint64_t Parent;
  uint64_t Request;
  uint64_t Id;
  double Start;
};

/// Self time of every span, by id: its duration minus the part of its
/// interval covered by the union of its children's intervals (children may
/// run on other threads and overlap each other).
std::map<uint64_t, double> selfTimes(const std::vector<Span> &Spans);

/// Writes \p Spans as Chrome trace-event JSON ("X" complete events,
/// microseconds), viewable in Perfetto or chrome://tracing.
bool writeChromeTrace(const std::vector<Span> &Spans, const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
