//===- support/ThreadPool.cpp - Worker pool for batch compilation ------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <memory>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

using namespace marqsim;

#ifdef __linux__
namespace {

/// The CPU set the process started with.
struct StartupCpus {
  cpu_set_t Set;
  bool Valid;
  StartupCpus() {
    CPU_ZERO(&Set);
    Valid = sched_getaffinity(0, sizeof(Set), &Set) == 0;
  }
};

const StartupCpus &startupCpus() {
  static const StartupCpus Cpus;
  return Cpus;
}

// Captured during static initialization, before main can pin a thread.
[[maybe_unused]] const StartupCpus &CapturedAtStartup = startupCpus();

} // namespace
#endif

/// Runs on each new worker before its first task. A worker inherits the
/// CPU mask of the thread that spawned it; a pool first grown from a
/// pinned thread would otherwise keep every helper on that one CPU, long
/// after the pin is gone. No-op off Linux.
static void adoptStartupCpus() {
#ifdef __linux__
  const StartupCpus &Cpus = startupCpus();
  if (Cpus.Valid)
    pthread_setaffinity_np(pthread_self(), sizeof(Cpus.Set), &Cpus.Set);
#endif
}

unsigned ThreadPool::hardwareWorkers() {
  unsigned N = std::thread::hardware_concurrency();
  return N > 0 ? N : 1;
}

ThreadPool::ThreadPool(unsigned NumWorkers) {
  if (NumWorkers == 0)
    NumWorkers = hardwareWorkers();
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  assert(Task && "submitting an empty task");
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    assert(!ShuttingDown && "submit after shutdown");
    Queue.push_back(std::move(Task));
    ++InFlight;
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return InFlight == 0; });
}

void ThreadPool::workerLoop() {
  adoptStartupCpus();
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock,
                         [this] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty())
        return; // shutting down and drained
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      if (--InFlight == 0)
        AllDone.notify_all();
    }
  }
}

void ThreadPool::ensureWorkers(unsigned NumWorkers) {
  std::unique_lock<std::mutex> Lock(Mutex);
  assert(!ShuttingDown && "growing a pool after shutdown");
  while (Workers.size() < NumWorkers)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool &ThreadPool::shared() {
  // Intentionally leaked: helper stubs may still sit queued at static
  // destruction time, and the workers hold no resources beyond threads
  // the OS reclaims at exit.
  static ThreadPool *Pool = new ThreadPool(1);
  return *Pool;
}

namespace {

/// The state of one parallelFor call. Helper stubs on the shared pool hold
/// it by shared_ptr, so a stub that only gets scheduled after the call
/// finished (all indices claimed) finds an exhausted counter and returns
/// without touching the caller's Body.
struct ParallelCall {
  ParallelCall(size_t Count, const std::function<void(size_t)> &Body)
      : Count(Count), Body(&Body) {}

  const size_t Count;
  const std::function<void(size_t)> *Body; // alive until awaitCompletion ends
  std::mutex M;
  std::condition_variable Changed;
  size_t Next = 0;    // first unclaimed index
  size_t Running = 0; // bodies currently executing
  std::exception_ptr FirstError;

  /// Claims and runs indices until none are left. A thrown Body records the
  /// first error and stops further claims; already-claimed indices finish.
  void drain() {
    std::unique_lock<std::mutex> Lock(M);
    while (Next < Count) {
      const size_t I = Next++;
      ++Running;
      Lock.unlock();
      std::exception_ptr Error;
      try {
        (*Body)(I);
      } catch (...) {
        Error = std::current_exception();
      }
      Lock.lock();
      --Running;
      if (Error) {
        if (!FirstError)
          FirstError = Error;
        Next = Count; // stop early
      }
    }
    Changed.notify_all();
  }

  /// Blocks until every claimed index has finished, then rethrows the
  /// first recorded error, if any.
  void awaitCompletion() {
    std::unique_lock<std::mutex> Lock(M);
    Changed.wait(Lock, [this] { return Next >= Count && Running == 0; });
    if (FirstError)
      std::rethrow_exception(FirstError);
  }
};

} // namespace

void marqsim::parallelFor(size_t Count, unsigned Jobs,
                          const std::function<void(size_t)> &Body) {
  if (Jobs == 0)
    Jobs = ThreadPool::hardwareWorkers();
  if (Count == 0)
    return;
  if (Jobs <= 1 || Count <= 1) {
    for (size_t I = 0; I < Count; ++I)
      Body(I);
    return;
  }

  const unsigned Effective =
      static_cast<unsigned>(std::min<size_t>(Jobs, Count));
  auto Call = std::make_shared<ParallelCall>(Count, Body);
  // The caller participates as one worker, so Effective - 1 helper stubs
  // suffice. The pool is process-wide and lazily grown: a hot caller —
  // per-shot fidelity evaluation, say — pays an enqueue per call, never a
  // thread spawn/join. The caller draining its own counter also makes
  // nested parallelFor deadlock-free: a call progresses on its own thread
  // even when every pool worker is busy with (or blocked on) other calls,
  // and in-flight bodies always belong to an actively executing thread.
  ThreadPool &Pool = ThreadPool::shared();
  Pool.ensureWorkers(Effective - 1);
  for (unsigned W = 1; W < Effective; ++W)
    Pool.submit([Call] { Call->drain(); });
  Call->drain();
  Call->awaitCompletion();
}
