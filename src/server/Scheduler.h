//===- server/Scheduler.h - Request queue and batch scheduler ---*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission and dispatch layer between the daemon's connection
/// handlers and the SimulationService:
///
///   * bounded queue depth — a full queue rejects new submits ("queue-
///     full") instead of accumulating unbounded work;
///   * per-request deadlines — a request whose deadline passes while it
///     waits (or between streamed chunks) terminates Expired instead of
///     occupying an executor;
///   * fair-share dispatch — requests are drained round-robin across
///     client keys, so one chatty connection cannot starve the rest;
///   * executor threads owned by the scheduler — SchedulerOptions::Workers
///     of them, so each scheduler runs that many requests at once no
///     matter how many other schedulers share the process (a fleet's
///     in-process daemons run their ranges concurrently); the shot-level
///     fan-out underneath (TaskSpec::Jobs) draws helpers from
///     ThreadPool::shared(), which holds only those helpers.
///
/// Identical Hamiltonians coalesce on one MCFP solve without any
/// scheduler-level keying: every execution resolves its artifacts inside
/// SimulationService::run, and the ArtifactStore underneath is
/// single-flight per content key — concurrent requests for one
/// Hamiltonian block on the same in-flight solve instead of duplicating
/// it. A request's own solves therefore land in its TaskResult::Stats
/// (and a shard-submit's manifest), and a spec whose transition matrix
/// fails Theorem 4.1 fails in run() with the same error.
///
/// Streaming: a submit may attach a ShotSink; the executor then runs the
/// batch as consecutive ranged sub-runs (the PR 3 determinism contract
/// makes the concatenation bit-identical to one full run) and hands each
/// chunk's summaries + fidelities to the sink as they complete, checking
/// cancellation and the deadline between chunks.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SERVER_SCHEDULER_H
#define MARQSIM_SERVER_SCHEDULER_H

#include "service/SimulationService.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace marqsim {
namespace server {

struct SchedulerOptions {
  /// Maximum queued (admitted, not yet running) requests.
  size_t MaxQueueDepth = 64;

  /// Concurrently *executing* requests: the number of executor threads
  /// the scheduler owns. Each request's shot fan-out (TaskSpec::Jobs)
  /// runs on top, with helpers from ThreadPool::shared(). 0 selects the
  /// hardware thread count.
  unsigned Workers = 1;

  /// Shots per streamed chunk for sink-attached submits.
  size_t StreamChunkShots = 1;

  /// Terminal results retained for later `result`/`status` frames; the
  /// oldest are forgotten beyond this (a late query answers "not-found").
  size_t ResultRetention = 256;
};

enum class RequestState { Queued, Running, Done, Failed, Cancelled, Expired };

/// Wire spelling of a state ("queued", "running", ...).
const char *stateName(RequestState S);

/// Why a submit was not admitted.
enum class SubmitReject { None, Invalid, QueueFull, Draining };

/// Receives one streamed chunk: the global shot range, its per-shot
/// summaries, and its per-shot fidelities (empty when the task computes
/// none). Called on the executor thread, strictly in range order,
/// strictly before the request turns terminal.
using ShotSink = std::function<void(const ShotRange &,
                                    const std::vector<ShotSummary> &,
                                    const std::vector<double> &)>;

/// Terminal outcome of a request.
struct RequestOutcome {
  RequestState State = RequestState::Failed;
  std::string Error;
  /// The complete result (Done only). Shared: the scheduler retains it
  /// for later `result` frames until retention evicts it.
  std::shared_ptr<const TaskResult> Result;
  /// The spec as executed (manifest/QASM building needs it).
  std::shared_ptr<const TaskSpec> Spec;
};

/// Cumulative scheduler accounting, exposed by the daemon's stats frame.
struct SchedulerStats {
  size_t Admitted = 0;
  size_t RejectedFull = 0;
  size_t RejectedInvalid = 0;
  size_t RejectedDraining = 0;
  size_t Completed = 0;
  size_t Failed = 0;
  size_t Cancelled = 0;
  size_t Expired = 0;
  size_t QueueDepth = 0;
  size_t PeakQueueDepth = 0;
  size_t Running = 0;
  /// Summed per-shot evaluation CPU-seconds across completed requests.
  double EvalSeconds = 0.0;

  /// Submit-to-terminal latency histogram: bucket i counts requests with
  /// latency in [2^i, 2^(i+1)) ms (bucket 0 includes < 1 ms; the last
  /// bucket is open-ended at ~35 minutes).
  static constexpr size_t NumLatencyBuckets = 22;
  size_t LatencyBuckets[NumLatencyBuckets] = {};
  size_t LatencyCount = 0;

  /// Upper edge (ms) of the bucket containing quantile \p Q in [0, 1] —
  /// a conservative histogram quantile, 0 when empty.
  double latencyQuantileMs(double Q) const;

  /// The "server" section of the stats frame: counters, queue gauges,
  /// and the histogram with derived p50/p90/p99.
  json::Value toJson() const;
};

/// Thread-safe bounded scheduler over one SimulationService.
class BatchScheduler {
public:
  BatchScheduler(SimulationService &Service, SchedulerOptions Opts = {});

  /// Drains: refuses new work, then blocks until every admitted request
  /// has reached a terminal state (executor tasks reference this object).
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler &) = delete;
  BatchScheduler &operator=(const BatchScheduler &) = delete;

  /// Admits one request. \p ClientKey buckets the fair-share round-robin
  /// (the daemon passes a per-connection key). \p DeadlineMs > 0 bounds
  /// the submit-to-completion time. \p Range restricts execution to a
  /// contiguous global shot sub-range (the fleet's shard-submit path);
  /// ranged requests ignore \p Sink (no streaming) and keep the PR 3
  /// global-index seeding, so concatenating a partition's results is
  /// bit-identical to the full batch. Returns the request id (> 0), or 0
  /// with \p Reject/\p Error describing the refusal.
  uint64_t submit(TaskSpec Spec, const std::string &ClientKey,
                  SubmitReject *Reject = nullptr, std::string *Error = nullptr,
                  ShotSink Sink = nullptr, uint64_t DeadlineMs = 0,
                  std::optional<ShotRange> Range = std::nullopt);

  /// Current state of a request; std::nullopt when unknown (never
  /// admitted, or evicted by retention).
  std::optional<RequestState> status(uint64_t Id) const;

  /// Blocks until \p Id is terminal and returns its outcome;
  /// std::nullopt for unknown ids.
  std::optional<RequestOutcome> wait(uint64_t Id);

  /// Cancels a queued request outright; flags a running one so streaming
  /// executions stop at the next chunk boundary (single-run executions
  /// complete — compiled shots are not abandoned mid-batch). False for
  /// unknown or already-terminal ids.
  bool cancel(uint64_t Id);

  /// Stops admission and blocks until all admitted work is terminal.
  /// Idempotent.
  void drain();

  bool draining() const;

  SchedulerStats stats() const;

  /// Test hook: while held, nothing dispatches (queued requests
  /// accumulate). Releasing dispatches as usual.
  void holdDispatch(bool Hold);

private:
  struct Request;

  void maybeDispatchLocked();
  void execute(const std::shared_ptr<Request> &R);
  void finishLocked(std::unique_lock<std::mutex> &Lock,
                    const std::shared_ptr<Request> &R, RequestState Terminal,
                    std::string Error,
                    std::shared_ptr<const TaskResult> Result);

  SimulationService &Service;
  const SchedulerOptions Opts;
  const unsigned EffectiveWorkers;

  mutable std::mutex Mutex;
  std::condition_variable TerminalCV;

  std::map<uint64_t, std::shared_ptr<Request>> Requests;
  /// Round-robin ring of client keys with queued work; per-client FIFOs
  /// live in ClientQueues.
  std::deque<std::string> ClientRing;
  std::map<std::string, std::deque<std::shared_ptr<Request>>> ClientQueues;
  /// Terminal ids in completion order, for retention eviction.
  std::deque<uint64_t> Retired;

  uint64_t NextId = 1;
  size_t QueuedCount = 0;
  size_t RunningCount = 0;
  bool Draining = false;
  bool HoldForTesting = false;
  SchedulerStats Counters;

  /// The executor threads, one per concurrently running request, started
  /// at the first dispatch (an idle daemon holds none). Declared last so
  /// it is destroyed first: after the destructor's drain(), it joins
  /// executors that may still be unwinding out of execute().
  std::optional<ThreadPool> Executors;
};

} // namespace server
} // namespace marqsim

#endif // MARQSIM_SERVER_SCHEDULER_H
