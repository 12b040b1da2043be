//===- server/Scheduler.cpp - Request queue and batch scheduler -----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Scheduler.h"

#include "stats/Stats.h"

#include <algorithm>
#include <cmath>

namespace marqsim {
namespace server {

using Clock = std::chrono::steady_clock;

const char *stateName(RequestState S) {
  switch (S) {
  case RequestState::Queued:
    return "queued";
  case RequestState::Running:
    return "running";
  case RequestState::Done:
    return "done";
  case RequestState::Failed:
    return "failed";
  case RequestState::Cancelled:
    return "cancelled";
  case RequestState::Expired:
    return "expired";
  }
  return "failed";
}

//===----------------------------------------------------------------------===//
// SchedulerStats
//===----------------------------------------------------------------------===//

double SchedulerStats::latencyQuantileMs(double Q) const {
  if (!LatencyCount)
    return 0.0;
  Q = std::min(std::max(Q, 0.0), 1.0);
  // Rank of the quantile observation (1-based, ceil), then walk buckets.
  size_t Rank = static_cast<size_t>(std::ceil(Q * LatencyCount));
  Rank = std::max<size_t>(Rank, 1);
  size_t Seen = 0;
  for (size_t I = 0; I < NumLatencyBuckets; ++I) {
    Seen += LatencyBuckets[I];
    if (Seen >= Rank)
      return static_cast<double>(uint64_t(1) << (I + 1));
  }
  return static_cast<double>(uint64_t(1) << NumLatencyBuckets);
}

json::Value SchedulerStats::toJson() const {
  json::Value Buckets = json::Value::array();
  // Trailing zero buckets are elided; index i still means [2^i, 2^(i+1)).
  size_t Last = 0;
  for (size_t I = 0; I < NumLatencyBuckets; ++I)
    if (LatencyBuckets[I])
      Last = I + 1;
  for (size_t I = 0; I < Last; ++I)
    Buckets.push(LatencyBuckets[I]);
  return json::Value::object()
      .set("admitted", Admitted)
      .set("rejected_full", RejectedFull)
      .set("rejected_invalid", RejectedInvalid)
      .set("rejected_draining", RejectedDraining)
      .set("completed", Completed)
      .set("failed", Failed)
      .set("cancelled", Cancelled)
      .set("expired", Expired)
      .set("queue_depth", QueueDepth)
      .set("peak_queue_depth", PeakQueueDepth)
      .set("running", Running)
      .set("eval_seconds", EvalSeconds)
      .set("latency", json::Value::object()
                          .set("count", LatencyCount)
                          .set("p50_ms", latencyQuantileMs(0.50))
                          .set("p90_ms", latencyQuantileMs(0.90))
                          .set("p99_ms", latencyQuantileMs(0.99))
                          .set("log2_ms_buckets", std::move(Buckets)));
}

//===----------------------------------------------------------------------===//
// BatchScheduler
//===----------------------------------------------------------------------===//

struct BatchScheduler::Request {
  uint64_t Id = 0;
  std::string ClientKey;
  std::shared_ptr<const TaskSpec> Spec;
  ShotSink Sink;
  /// Set for fleet shard-submit requests: execute only this global range.
  std::optional<ShotRange> Range;
  Clock::time_point EnqueuedAt;
  /// Zero time_point means "no deadline".
  Clock::time_point Deadline{};

  RequestState State = RequestState::Queued;
  bool CancelRequested = false;
  std::string Error;
  std::shared_ptr<const TaskResult> Result;
};

BatchScheduler::BatchScheduler(SimulationService &Service,
                               SchedulerOptions Opts)
    : Service(Service), Opts(Opts),
      EffectiveWorkers(Opts.Workers ? Opts.Workers
                                    : ThreadPool::hardwareWorkers()) {}

BatchScheduler::~BatchScheduler() { drain(); }

uint64_t BatchScheduler::submit(TaskSpec Spec, const std::string &ClientKey,
                                SubmitReject *Reject, std::string *Error,
                                ShotSink Sink, uint64_t DeadlineMs,
                                std::optional<ShotRange> Range) {
  auto Fail = [&](SubmitReject Why, const std::string &Message) -> uint64_t {
    if (Reject)
      *Reject = Why;
    detail::fail(Error, Message);
    return 0;
  };
  std::string Validation;
  if (!Spec.validate(&Validation)) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.RejectedInvalid;
    return Fail(SubmitReject::Invalid, Validation);
  }
  if (Range && (Range->Count == 0 || Range->end() > Spec.Shots)) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.RejectedInvalid;
    return Fail(SubmitReject::Invalid,
                "shot range [" + std::to_string(Range->Begin) + ", " +
                    std::to_string(Range->end()) + ") outside batch of " +
                    std::to_string(Spec.Shots) + " shots");
  }

  std::unique_lock<std::mutex> Lock(Mutex);
  if (Draining) {
    ++Counters.RejectedDraining;
    return Fail(SubmitReject::Draining, "scheduler is draining");
  }
  if (QueuedCount >= Opts.MaxQueueDepth) {
    ++Counters.RejectedFull;
    return Fail(SubmitReject::QueueFull,
                "queue full (" + std::to_string(Opts.MaxQueueDepth) +
                    " requests)");
  }

  auto R = std::make_shared<Request>();
  R->Id = NextId++;
  R->ClientKey = ClientKey;
  R->Spec = std::make_shared<const TaskSpec>(std::move(Spec));
  // Ranged requests never stream: the shard-result frame carries the
  // whole manifest at once.
  R->Sink = Range ? nullptr : std::move(Sink);
  R->Range = Range;
  R->EnqueuedAt = Clock::now();
  if (DeadlineMs)
    R->Deadline = R->EnqueuedAt + std::chrono::milliseconds(DeadlineMs);

  Requests[R->Id] = R;
  auto &Queue = ClientQueues[ClientKey];
  if (Queue.empty())
    ClientRing.push_back(ClientKey);
  Queue.push_back(R);
  ++QueuedCount;
  ++Counters.Admitted;
  Counters.PeakQueueDepth = std::max(Counters.PeakQueueDepth, QueuedCount);

  uint64_t Id = R->Id;
  maybeDispatchLocked();
  return Id;
}

void BatchScheduler::maybeDispatchLocked() {
  while (!HoldForTesting && RunningCount < EffectiveWorkers &&
         !ClientRing.empty()) {
    // Round-robin: take the front client's oldest request, then move the
    // client to the back of the ring if it still has queued work.
    std::string Key = std::move(ClientRing.front());
    ClientRing.pop_front();
    auto QueueIt = ClientQueues.find(Key);
    std::shared_ptr<Request> R = QueueIt->second.front();
    QueueIt->second.pop_front();
    if (QueueIt->second.empty())
      ClientQueues.erase(QueueIt);
    else
      ClientRing.push_back(std::move(Key));
    --QueuedCount;

    R->State = RequestState::Running;
    ++RunningCount;
    if (!Executors)
      Executors.emplace(EffectiveWorkers);
    Executors->submit([this, R] { execute(R); });
  }
  Counters.QueueDepth = QueuedCount;
  Counters.Running = RunningCount;
}

void BatchScheduler::finishLocked(std::unique_lock<std::mutex> &Lock,
                                  const std::shared_ptr<Request> &R,
                                  RequestState Terminal, std::string Error,
                                  std::shared_ptr<const TaskResult> Result) {
  R->State = Terminal;
  R->Error = std::move(Error);
  R->Result = std::move(Result);

  switch (Terminal) {
  case RequestState::Done:
    ++Counters.Completed;
    if (R->Result)
      Counters.EvalSeconds += R->Result->Batch.EvalSeconds;
    break;
  case RequestState::Failed:
    ++Counters.Failed;
    break;
  case RequestState::Cancelled:
    ++Counters.Cancelled;
    break;
  case RequestState::Expired:
    ++Counters.Expired;
    break;
  case RequestState::Queued:
  case RequestState::Running:
    break;
  }
  double Ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                        R->EnqueuedAt)
                  .count();
  size_t Bucket = 0;
  while (Bucket + 1 < SchedulerStats::NumLatencyBuckets &&
         Ms >= static_cast<double>(uint64_t(1) << (Bucket + 1)))
    ++Bucket;
  ++Counters.LatencyBuckets[Bucket];
  ++Counters.LatencyCount;

  Retired.push_back(R->Id);
  while (Retired.size() > Opts.ResultRetention) {
    Requests.erase(Retired.front());
    Retired.pop_front();
  }

  TerminalCV.notify_all();
  (void)Lock;
}

void BatchScheduler::execute(const std::shared_ptr<Request> &R) {
  // Pool tasks must not throw; any escape turns into a Failed outcome.
  std::string Error;
  std::shared_ptr<TaskResult> Result;
  RequestState Terminal = RequestState::Failed;
  try {
    const TaskSpec &Spec = *R->Spec;
    bool Expired = false, Cancelled = false;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Cancelled = R->CancelRequested;
    }
    if (!Cancelled && R->Deadline != Clock::time_point{} &&
        Clock::now() >= R->Deadline)
      Expired = true;

    if (Cancelled) {
      Terminal = RequestState::Cancelled;
      Error = "cancelled before dispatch";
    } else if (Expired) {
      Terminal = RequestState::Expired;
      Error = "deadline passed before dispatch";
    } else if (R->Range) {
      std::optional<TaskResult> Run = Service.run(Spec, *R->Range, &Error);
      if (Run) {
        Result = std::make_shared<TaskResult>(std::move(*Run));
        Terminal = RequestState::Done;
      }
    } else if (!R->Sink) {
      std::optional<TaskResult> Run = Service.run(Spec, &Error);
      if (Run) {
        Result = std::make_shared<TaskResult>(std::move(*Run));
        Terminal = RequestState::Done;
      }
    } else {
      // Streamed execution: consecutive ranged sub-runs. Global shot
      // seeding makes the concatenation bit-identical to one full run;
      // recomputeAggregates is the same sequential pass compileBatch and
      // the shard merge use.
      const size_t Chunk = std::max<size_t>(Opts.StreamChunkShots, 1);
      Result = std::make_shared<TaskResult>();
      BatchResult &B = Result->Batch;
      bool First = true;
      bool Aborted = false;
      for (size_t Begin = 0; Begin < Spec.Shots; Begin += Chunk) {
        {
          std::lock_guard<std::mutex> Lock(Mutex);
          Cancelled = R->CancelRequested;
        }
        if (Cancelled) {
          Terminal = RequestState::Cancelled;
          Error = "cancelled after " + std::to_string(Begin) + " of " +
                  std::to_string(Spec.Shots) + " shots";
          Aborted = true;
          break;
        }
        if (R->Deadline != Clock::time_point{} &&
            Clock::now() >= R->Deadline) {
          Terminal = RequestState::Expired;
          Error = "deadline passed after " + std::to_string(Begin) + " of " +
                  std::to_string(Spec.Shots) + " shots";
          Aborted = true;
          break;
        }
        ShotRange Range{Begin, std::min(Chunk, Spec.Shots - Begin)};
        std::optional<TaskResult> Part = Service.run(Spec, Range, &Error);
        if (!Part) {
          Terminal = RequestState::Failed;
          Aborted = true;
          break;
        }
        if (First) {
          Result->Fingerprint = Part->Fingerprint;
          Result->NumSamples = Part->NumSamples;
          Result->HasFidelity = Part->HasFidelity;
          Result->HasShotZero = Part->HasShotZero;
          Result->ShotZero = std::move(Part->ShotZero);
          Result->GraphDot = std::move(Part->GraphDot);
          B.StrategyName = Part->Batch.StrategyName;
          B.Seed = Part->Batch.Seed;
          First = false;
        }
        B.JobsUsed = std::max(B.JobsUsed, Part->Batch.JobsUsed);
        B.Seconds += Part->Batch.Seconds;
        B.CompileSeconds += Part->Batch.CompileSeconds;
        B.EvalSeconds += Part->Batch.EvalSeconds;
        B.Shots.insert(B.Shots.end(), Part->Batch.Shots.begin(),
                       Part->Batch.Shots.end());
        Result->ShotFidelities.insert(Result->ShotFidelities.end(),
                                      Part->ShotFidelities.begin(),
                                      Part->ShotFidelities.end());
        Result->Stats += Part->Stats;
        // The sink observes the chunk outside the scheduler lock, after
        // it has been folded into the accumulating result.
        R->Sink(Range, Part->Batch.Shots, Part->ShotFidelities);
      }
      if (!Aborted) {
        B.NumShots = Spec.Shots;
        B.recomputeAggregates();
        if (Result->HasFidelity) {
          RunningStats Fids;
          for (double F : Result->ShotFidelities)
            Fids.add(F);
          Result->Fidelity.Mean = Fids.mean();
          Result->Fidelity.Std = Fids.stddev();
          Result->Fidelity.Min = Fids.min();
          Result->Fidelity.Max = Fids.max();
        }
        Terminal = RequestState::Done;
      } else {
        Result.reset();
      }
    }
  } catch (const std::exception &E) {
    Terminal = RequestState::Failed;
    Error = std::string("internal error: ") + E.what();
    Result.reset();
  } catch (...) {
    Terminal = RequestState::Failed;
    Error = "internal error";
    Result.reset();
  }

  std::unique_lock<std::mutex> Lock(Mutex);
  --RunningCount;
  finishLocked(Lock, R, Terminal, std::move(Error), std::move(Result));
  maybeDispatchLocked();
}

std::optional<RequestState> BatchScheduler::status(uint64_t Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Requests.find(Id);
  if (It == Requests.end())
    return std::nullopt;
  return It->second->State;
}

std::optional<RequestOutcome> BatchScheduler::wait(uint64_t Id) {
  std::unique_lock<std::mutex> Lock(Mutex);
  auto It = Requests.find(Id);
  if (It == Requests.end())
    return std::nullopt;
  std::shared_ptr<Request> R = It->second;
  TerminalCV.wait(Lock, [&] {
    return R->State != RequestState::Queued &&
           R->State != RequestState::Running;
  });
  RequestOutcome Out;
  Out.State = R->State;
  Out.Error = R->Error;
  Out.Result = R->Result;
  Out.Spec = R->Spec;
  return Out;
}

bool BatchScheduler::cancel(uint64_t Id) {
  std::unique_lock<std::mutex> Lock(Mutex);
  auto It = Requests.find(Id);
  if (It == Requests.end())
    return false;
  std::shared_ptr<Request> R = It->second;
  if (R->State == RequestState::Queued) {
    // Remove from its client queue so it never dispatches.
    auto QueueIt = ClientQueues.find(R->ClientKey);
    if (QueueIt != ClientQueues.end()) {
      auto &Queue = QueueIt->second;
      Queue.erase(std::remove(Queue.begin(), Queue.end(), R), Queue.end());
      if (Queue.empty()) {
        ClientQueues.erase(QueueIt);
        ClientRing.erase(std::remove(ClientRing.begin(), ClientRing.end(),
                                     R->ClientKey),
                         ClientRing.end());
      }
    }
    --QueuedCount;
    Counters.QueueDepth = QueuedCount;
    finishLocked(Lock, R, RequestState::Cancelled, "cancelled while queued",
                 nullptr);
    return true;
  }
  if (R->State == RequestState::Running) {
    R->CancelRequested = true;
    return true;
  }
  return false;
}

void BatchScheduler::drain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Draining = true;
  // Draining completes admitted work; it only refuses *new* submits. A
  // test hold would deadlock the drain, so it is released here.
  HoldForTesting = false;
  maybeDispatchLocked();
  TerminalCV.wait(Lock, [&] { return QueuedCount == 0 && RunningCount == 0; });
}

bool BatchScheduler::draining() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Draining;
}

SchedulerStats BatchScheduler::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  SchedulerStats S = Counters;
  S.QueueDepth = QueuedCount;
  S.Running = RunningCount;
  return S;
}

void BatchScheduler::holdDispatch(bool Hold) {
  std::unique_lock<std::mutex> Lock(Mutex);
  HoldForTesting = Hold;
  if (!Hold)
    maybeDispatchLocked();
}

} // namespace server
} // namespace marqsim
