//===- support/ThreadPool.h - Worker pool for batch compilation -*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool used by CompilerEngine::compileBatch to
/// fan independent compilation shots across threads.
///
/// Determinism contract: the pool never influences results. Work items must
/// write only to their own output slot and draw randomness only from their
/// own RNG substream (RNG::forShot); under that discipline the batch output
/// is bit-identical for any worker count, including the inline Jobs <= 1
/// path.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SUPPORT_THREADPOOL_H
#define MARQSIM_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace marqsim {

/// Fixed pool of worker threads draining a FIFO task queue. Each worker
/// runs on the CPU set the process started with (Linux), whatever the
/// affinity of the thread that spawned it.
class ThreadPool {
public:
  /// Spawns \p NumWorkers threads; 0 selects the hardware thread count.
  explicit ThreadPool(unsigned NumWorkers = 0);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues one task. Tasks must not throw; wrap fallible work yourself.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished.
  void wait();

  /// Grows the pool to at least \p NumWorkers threads (never shrinks).
  /// Safe to call concurrently with running work.
  void ensureWorkers(unsigned NumWorkers);

  /// The process-wide pool parallelFor drains through. Lazily created,
  /// grown on demand, and never destroyed, so hot callers pay an enqueue
  /// per fan-out instead of a thread spawn/join.
  static ThreadPool &shared();

  unsigned numWorkers() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned hardwareWorkers();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t InFlight = 0; // queued + currently executing
  bool ShuttingDown = false;
};

/// Runs Body(0) .. Body(Count - 1), spreading the indices over up to
/// \p Jobs workers (0 selects the hardware thread count). Jobs <= 1 or
/// Count <= 1 runs inline on the calling thread. Indices are claimed from
/// a shared counter, so per-index work may be arbitrarily unbalanced.
/// The calling thread participates in the work and up to Jobs - 1 helpers
/// come from the persistent ThreadPool::shared() pool — no per-call thread
/// spawn/join — and because the caller always drains its own counter,
/// nesting parallelFor inside a Body cannot deadlock. The first exception
/// thrown by any index is rethrown on the caller after every claimed index
/// has finished.
void parallelFor(size_t Count, unsigned Jobs,
                 const std::function<void(size_t)> &Body);

} // namespace marqsim

#endif // MARQSIM_SUPPORT_THREADPOOL_H
