//===- runtime/ThreadPool.h - FIFO worker pool ----------------------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed worker pool shared by the significance-aware task runtime,
/// the sharded analysis (ParallelAnalysis::run) and the streaming merge.
///
/// Scheduling: one FIFO queue under one mutex.  Every caller knows its
/// whole batch before it starts (a taskwait batch, a shard list, a path
/// list), so none submits one job per item: fanOut() queues at most one
/// claim-loop runner per worker, and the runners take items from an
/// atomic index until the batch is exhausted.  Queue traffic therefore
/// stays bounded by the worker count, whatever the batch size, and load
/// balance comes from the claim loop, not from the queue.
///
/// Completion: a WaitGroup scopes completion to one batch, so several
/// callers can share one pool (ThreadPool::shared) without each other's
/// jobs extending their waits.
///
/// Shutdown: submit() after shutdown() began is a structured Status
/// error (SCORPIO_CHECK), never a silently dropped job; already-queued
/// jobs drain before the workers join.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_RUNTIME_THREADPOOL_H
#define SCORPIO_RUNTIME_THREADPOOL_H

#include "support/Diag.h"

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scorpio {
namespace rt {

/// Completion latch for one batch of pool jobs: submit(Job, &Group)
/// increments it, the pool decrements it after the job ran, wait()
/// blocks until the count is zero.  A job may itself submit follow-up
/// jobs into the same group (the increment happens before the parent's
/// decrement, so the count never dips to zero early).
class WaitGroup {
public:
  /// Adds \p N pending completions.
  void add(size_t N = 1);
  /// Signals one completion.
  void done();
  /// Blocks until every add() has been matched by a done().
  void wait();

private:
  std::mutex Mutex;
  std::condition_variable Cv;
  size_t Count = 0;
};

/// Fixed worker pool; jobs are void() callables, taken in FIFO order.
class ThreadPool {
public:
  /// \p NumThreads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues one job, optionally accounted against \p Group.  Fails
  /// with ErrC::InvalidState once shutdown() has begun — the job is NOT
  /// queued and \p Group is NOT incremented; callers that must make
  /// progress run the job inline on failure.
  [[nodiscard]] diag::Status submit(std::function<void()> Job,
                                    WaitGroup *Group = nullptr);

  /// Runs min(\p MaxRunners, numThreads()) copies of \p Runner on the
  /// pool and blocks until all of them returned.  A copy the pool
  /// refuses (shutdown during process teardown) runs inline, so every
  /// copy runs exactly once.  \p Runner is meant to be a claim loop
  /// over a batch the caller sized in advance.  A job of this pool that
  /// calls fanOut holds its own worker while it waits, so the copies
  /// complete only while some worker is not waiting in fanOut.
  void fanOut(size_t MaxRunners, const std::function<void()> &Runner);

  /// Drains already-queued jobs and joins the workers.  Idempotent;
  /// called by the destructor.  Not safe to race against submit() from
  /// another thread except for submit's documented error return.
  void shutdown();

  unsigned numThreads() const {
    return static_cast<unsigned>(Threads.size());
  }

  /// Process-wide pool registry, keyed by the resolved thread count:
  /// repeated ParallelAnalysis::run() / streaming-merge calls reuse one
  /// warm pool instead of re-spawning threads per call (thread churn
  /// was a measured reason sharded analysis lost to serial).  Pools
  /// live until process exit and are joined during static destruction.
  static ThreadPool &shared(unsigned NumThreads = 0);

private:
  struct Job {
    std::function<void()> Fn;
    WaitGroup *Group = nullptr;
  };

  void workerLoop();

  std::mutex SleepMutex;
  std::condition_variable WorkAvailable;
  std::deque<Job> Queue;     // guarded by SleepMutex
  bool ShuttingDown = false; // guarded by SleepMutex
  std::mutex JoinMutex;
  bool Joined = false; // guarded by JoinMutex
  /// Declared last: the workers use every member above.
  std::vector<std::thread> Threads;
};

} // namespace rt
} // namespace scorpio

#endif // SCORPIO_RUNTIME_THREADPOOL_H
