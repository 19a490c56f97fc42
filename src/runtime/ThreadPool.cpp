//===- runtime/ThreadPool.cpp - FIFO worker pool --------------------------===//

#include "runtime/ThreadPool.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

using namespace scorpio;
using namespace scorpio::rt;

void WaitGroup::add(size_t N) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Count += N;
}

void WaitGroup::done() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!SCORPIO_CHECK(Count != 0, diag::ErrC::InvalidState,
                     "WaitGroup::done without matching add"))
    return;
  if (--Count == 0)
    Cv.notify_all();
}

void WaitGroup::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Cv.wait(Lock, [this] { return Count == 0; });
}

namespace {

unsigned resolveThreads(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = std::thread::hardware_concurrency();
  return NumThreads != 0 ? NumThreads : 1;
}

} // namespace

ThreadPool::ThreadPool(unsigned NumThreads) {
  NumThreads = resolveThreads(NumThreads);
  Threads.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(SleepMutex);
    ShuttingDown = true;
  }
  // Notify with no lock held: a waking worker re-acquires SleepMutex in
  // its condvar wait and would otherwise bounce straight into a
  // still-held lock.
  WorkAvailable.notify_all();
  std::lock_guard<std::mutex> JoinLock(JoinMutex);
  if (Joined)
    return;
  for (std::thread &W : Threads)
    W.join();
  Joined = true;
}

diag::Status ThreadPool::submit(std::function<void()> Job, WaitGroup *Group) {
  if (!SCORPIO_CHECK(static_cast<bool>(Job), diag::ErrC::InvalidArgument,
                     "ThreadPool::submit: empty job"))
    return diag::Status::error(diag::ErrC::InvalidArgument,
                               "ThreadPool::submit: empty job");
  {
    // The shutdown flag and the enqueue form one atomic step with
    // respect to shutdown(): a job accepted here is in the queue before
    // any worker can observe ShuttingDown with an empty queue, so it
    // always runs.
    std::lock_guard<std::mutex> Lock(SleepMutex);
    if (!SCORPIO_CHECK(!ShuttingDown, diag::ErrC::InvalidState,
                       "ThreadPool::submit after shutdown"))
      return diag::Status::error(diag::ErrC::InvalidState,
                                 "ThreadPool::submit after shutdown");
    if (Group)
      Group->add();
    Queue.push_back(ThreadPool::Job{std::move(Job), Group});
  }
  // Wake outside the lock, so the woken worker does not block on it.
  WorkAvailable.notify_one();
  return diag::Status::ok();
}

void ThreadPool::fanOut(size_t MaxRunners,
                        const std::function<void()> &Runner) {
  const size_t Runners = std::min<size_t>(MaxRunners, numThreads());
  WaitGroup Group;
  for (size_t R = 0; R != Runners; ++R)
    if (!submit(Runner, &Group).isOk())
      Runner();
  Group.wait();
}

void ThreadPool::workerLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(SleepMutex);
      WorkAvailable.wait(Lock,
                         [this] { return ShuttingDown || !Queue.empty(); });
      // Shutdown drains: exit only once every queued job has been taken.
      if (Queue.empty())
        return;
      J = std::move(Queue.front());
      Queue.pop_front();
    }
    J.Fn();
    // Release the job's captures before signalling completion: a waiter
    // unblocked by done() may immediately destroy state the captures
    // referenced.
    J.Fn = nullptr;
    if (J.Group)
      J.Group->done();
  }
}

ThreadPool &ThreadPool::shared(unsigned NumThreads) {
  // Keyed by the *resolved* count so "auto" and an explicit
  // hardware_concurrency request share a pool.  Function-local static:
  // pools are joined during normal static destruction (leak-checker
  // clean), and nothing in scorpio submits work from static destructors.
  NumThreads = resolveThreads(NumThreads);
  struct Registry {
    std::mutex Mutex;
    std::map<unsigned, std::unique_ptr<ThreadPool>> Pools;
  };
  static Registry R;
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::unique_ptr<ThreadPool> &Slot = R.Pools[NumThreads];
  if (!Slot)
    Slot = std::make_unique<ThreadPool>(NumThreads);
  return *Slot;
}
