//===- tests/runtime_test.cpp - Significance-aware runtime tests ----------===//

#include "runtime/TaskRuntime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

using namespace scorpio;
using namespace scorpio::rt;

namespace {

std::vector<TaskFate> fates(std::vector<double> Sig,
                            std::vector<bool> HasApprox, double Ratio) {
  return TaskRuntime::decideFates(Sig, HasApprox, Ratio);
}

size_t countFate(const std::vector<TaskFate> &F, TaskFate Kind) {
  size_t N = 0;
  for (TaskFate T : F)
    if (T == Kind)
      ++N;
  return N;
}

TEST(DecideFates, RatioOneRunsEverythingAccurately) {
  const auto F = fates({0.1, 0.5, 0.9, 0.3}, {true, true, true, true}, 1.0);
  EXPECT_EQ(countFate(F, TaskFate::Accurate), 4u);
}

TEST(DecideFates, RatioZeroApproximatesAll) {
  const auto F = fates({0.1, 0.5, 0.9, 0.3}, {true, true, true, true}, 0.0);
  EXPECT_EQ(countFate(F, TaskFate::Accurate), 0u);
  EXPECT_EQ(countFate(F, TaskFate::Approximate), 4u);
}

TEST(DecideFates, HalfRatioPicksMostSignificant) {
  const auto F = fates({0.1, 0.5, 0.9, 0.3}, {true, true, true, true}, 0.5);
  EXPECT_EQ(F[2], TaskFate::Accurate); // 0.9
  EXPECT_EQ(F[1], TaskFate::Accurate); // 0.5
  EXPECT_EQ(F[0], TaskFate::Approximate);
  EXPECT_EQ(F[3], TaskFate::Approximate);
}

TEST(DecideFates, SignificanceOneAlwaysAccurate) {
  const auto F = fates({1.0, 0.5, 1.0}, {true, true, true}, 0.0);
  EXPECT_EQ(F[0], TaskFate::Accurate);
  EXPECT_EQ(F[2], TaskFate::Accurate);
  EXPECT_EQ(F[1], TaskFate::Approximate);
}

TEST(DecideFates, NoApproxFnMeansDrop) {
  const auto F = fates({0.2, 0.8}, {false, true}, 0.5);
  EXPECT_EQ(F[1], TaskFate::Accurate);
  EXPECT_EQ(F[0], TaskFate::Dropped);
}

TEST(DecideFates, CeilSemanticsAtLeastRatio) {
  // 3 tasks at ratio 0.5: ceil(1.5) = 2 accurate.
  const auto F = fates({0.3, 0.2, 0.1}, {true, true, true}, 0.5);
  EXPECT_EQ(countFate(F, TaskFate::Accurate), 2u);
}

TEST(DecideFates, ExactMultipleNotOverShot) {
  // 4 tasks at ratio 0.25: exactly 1 accurate.
  const auto F = fates({0.3, 0.2, 0.1, 0.05}, {true, true, true, true},
                       0.25);
  EXPECT_EQ(countFate(F, TaskFate::Accurate), 1u);
  EXPECT_EQ(F[0], TaskFate::Accurate);
}

TEST(DecideFates, TiesPreserveSpawnOrder) {
  const auto F = fates({0.5, 0.5, 0.5, 0.5}, {true, true, true, true},
                       0.5);
  EXPECT_EQ(F[0], TaskFate::Accurate);
  EXPECT_EQ(F[1], TaskFate::Accurate);
  EXPECT_EQ(F[2], TaskFate::Approximate);
  EXPECT_EQ(F[3], TaskFate::Approximate);
}

TEST(DecideFates, EmptyBatch) {
  EXPECT_TRUE(fates({}, {}, 0.5).empty());
}

TEST(DecideFates, RatioZeroAllSignificanceOneStillAccurate) {
  // Significance >= 1.0 forces accuracy regardless of ratio.
  const auto F = fates({1.0, 1.0, 1.0}, {true, true, true}, 0.0);
  EXPECT_EQ(countFate(F, TaskFate::Accurate), 3u);
}

TEST(DecideFates, NaNSignificanceTreatedAsZero) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  // NaN ranks below every finite significance and never forces accuracy.
  const auto F = fates({NaN, 0.5, NaN, 0.9}, {true, true, true, true}, 0.5);
  EXPECT_EQ(F[1], TaskFate::Accurate);
  EXPECT_EQ(F[3], TaskFate::Accurate);
  EXPECT_EQ(F[0], TaskFate::Approximate);
  EXPECT_EQ(F[2], TaskFate::Approximate);
}

TEST(DecideFates, NaNDoesNotForceAccurate) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const auto F = fates({NaN, NaN}, {true, true}, 0.0);
  EXPECT_EQ(countFate(F, TaskFate::Accurate), 0u);
  EXPECT_EQ(countFate(F, TaskFate::Approximate), 2u);
}

TEST(DecideFates, NaNTiesBreakBySpawnOrder) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  // All-NaN batch ties at key 0: the earliest-spawned tasks win the
  // accurate slots, deterministically.
  const auto F = fates({NaN, NaN, NaN, NaN}, {true, true, true, true}, 0.5);
  EXPECT_EQ(F[0], TaskFate::Accurate);
  EXPECT_EQ(F[1], TaskFate::Accurate);
  EXPECT_EQ(F[2], TaskFate::Approximate);
  EXPECT_EQ(F[3], TaskFate::Approximate);
  // And a NaN ties with an explicit zero the same way.
  const auto G = fates({0.0, NaN}, {true, true}, 0.5);
  EXPECT_EQ(G[0], TaskFate::Accurate);
  EXPECT_EQ(G[1], TaskFate::Approximate);
}

TEST(TaskRuntime, RunsAccurateTasks) {
  TaskRuntime RT(2);
  std::atomic<int> Counter{0};
  for (int I = 0; I < 10; ++I)
    RT.spawn([&Counter] { ++Counter; }, TaskOptions{});
  const TaskStats S = RT.taskwaitAll(1.0);
  EXPECT_EQ(Counter.load(), 10);
  EXPECT_EQ(S.NumAccurate, 10u);
  EXPECT_EQ(S.total(), 10u);
}

TEST(TaskRuntime, ApproxVersionRunsBelowRatio) {
  TaskRuntime RT(2);
  std::atomic<int> Accurate{0}, Approx{0};
  for (int I = 0; I < 10; ++I) {
    TaskOptions Opts;
    Opts.Significance = 0.5;
    Opts.Label = "g";
    Opts.ApproxFn = [&Approx] { ++Approx; };
    RT.spawn([&Accurate] { ++Accurate; }, std::move(Opts));
  }
  const TaskStats S = RT.taskwait("g", 0.3);
  EXPECT_EQ(S.NumAccurate, 3u);
  EXPECT_EQ(S.NumApproximate, 7u);
  EXPECT_EQ(Accurate.load(), 3);
  EXPECT_EQ(Approx.load(), 7);
}

TEST(TaskRuntime, DroppedTasksNeverRun) {
  TaskRuntime RT(2);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 8; ++I) {
    TaskOptions Opts;
    Opts.Significance = 0.5;
    Opts.Label = "d";
    RT.spawn([&Ran] { ++Ran; }, std::move(Opts));
  }
  const TaskStats S = RT.taskwait("d", 0.25);
  EXPECT_EQ(S.NumAccurate, 2u);
  EXPECT_EQ(S.NumDropped, 6u);
  EXPECT_EQ(Ran.load(), 2);
}

TEST(TaskRuntime, GroupsAreIndependent) {
  TaskRuntime RT(2);
  std::atomic<int> GroupA{0}, GroupB{0};
  for (int I = 0; I < 4; ++I) {
    TaskOptions OA;
    OA.Label = "a";
    RT.spawn([&GroupA] { ++GroupA; }, std::move(OA));
    TaskOptions OB;
    OB.Label = "b";
    RT.spawn([&GroupB] { ++GroupB; }, std::move(OB));
  }
  RT.taskwait("a", 1.0);
  EXPECT_EQ(GroupA.load(), 4);
  EXPECT_EQ(GroupB.load(), 0); // label b not yet released
  RT.taskwait("b", 1.0);
  EXPECT_EQ(GroupB.load(), 4);
}

TEST(TaskRuntime, TaskwaitOnEmptyGroupIsNoop) {
  TaskRuntime RT(1);
  const TaskStats S = RT.taskwait("nothing", 0.5);
  EXPECT_EQ(S.total(), 0u);
}

TEST(TaskRuntime, TotalsAccumulateAcrossWaits) {
  TaskRuntime RT(1);
  for (int Round = 0; Round < 3; ++Round) {
    for (int I = 0; I < 5; ++I) {
      TaskOptions Opts;
      Opts.Label = "t";
      Opts.Significance = 0.5;
      Opts.ApproxFn = [] {};
      RT.spawn([] {}, std::move(Opts));
    }
    RT.taskwait("t", 0.2);
  }
  EXPECT_EQ(RT.totals().total(), 15u);
  EXPECT_EQ(RT.totals().NumAccurate, 3u);
  EXPECT_EQ(RT.totals().NumApproximate, 12u);
}

TEST(TaskRuntime, ConcurrentTasksAllComplete) {
  TaskRuntime RT(4);
  std::atomic<long> Sum{0};
  for (int I = 1; I <= 1000; ++I)
    RT.spawn([&Sum, I] { Sum += I; }, TaskOptions{});
  RT.taskwaitAll(1.0);
  EXPECT_EQ(Sum.load(), 500500);
}

TEST(TaskRuntime, SingleThreadDeterministicOrderIndependence) {
  // Output buffers written by disjoint tasks match across thread counts.
  auto Run = [](unsigned Threads) {
    TaskRuntime RT(Threads);
    std::vector<int> Out(64, 0);
    for (int I = 0; I < 64; ++I) {
      TaskOptions Opts;
      Opts.Significance = (I % 7) / 7.0;
      Opts.ApproxFn = [&Out, I] { Out[static_cast<size_t>(I)] = -I; };
      RT.spawn([&Out, I] { Out[static_cast<size_t>(I)] = I; },
               std::move(Opts));
    }
    RT.taskwaitAll(0.5);
    return Out;
  };
  EXPECT_EQ(Run(1), Run(4));
}

// The claim loop behind taskwait: on 1 and 4 workers every released
// task runs exactly once, in the version its fate names, and a dropped
// task never runs.  Batches release 0, 1 and 1000 tasks.
TEST(TaskRuntime, ReleasedTasksRunExactlyOnceAndDroppedNever) {
  for (const unsigned Workers : {1u, 4u}) {
    for (const size_t Released : {size_t(0), size_t(1), size_t(1000)}) {
      TaskRuntime RT(Workers);
      // Released tasks alternate forced-accurate (significance 1.0) and
      // approximate (below the ratio, with an approxfun); 50 more tasks
      // have no approxfun and are dropped at ratio 0.
      const size_t Dropped = 50;
      const size_t N = Released + Dropped;
      std::vector<std::atomic<int>> AccurateRuns(N), ApproxRuns(N);
      for (size_t I = 0; I != N; ++I) {
        TaskOptions Opts;
        Opts.Label = "batch";
        Opts.Significance = 0.1;
        if (I < Released && I % 2 == 0)
          Opts.Significance = 1.0;
        else if (I < Released)
          Opts.ApproxFn = [&ApproxRuns, I] { ++ApproxRuns[I]; };
        RT.spawn([&AccurateRuns, I] { ++AccurateRuns[I]; }, std::move(Opts));
      }
      const TaskStats S = RT.taskwait("batch", 0.0);
      EXPECT_EQ(S.NumAccurate + S.NumApproximate, Released);
      EXPECT_EQ(S.NumDropped, Dropped);
      for (size_t I = 0; I != N; ++I) {
        const bool Accurate = I < Released && I % 2 == 0;
        const bool Approx = I < Released && I % 2 == 1;
        EXPECT_EQ(AccurateRuns[I].load(), Accurate ? 1 : 0)
            << "workers=" << Workers << " task " << I;
        EXPECT_EQ(ApproxRuns[I].load(), Approx ? 1 : 0)
            << "workers=" << Workers << " task " << I;
      }
    }
  }
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_GE(Pool.numThreads(), 1u);
}

// Regression (the silent-drop bug): submit after shutdown must be a
// structured Status error, never a job that vanishes or races the
// joining workers.
TEST(ThreadPool, SubmitAfterShutdownIsStatusError) {
  ThreadPool Pool(2);
  EXPECT_EQ(Pool.numThreads(), 2u);
  std::atomic<int> Ran{0};
  WaitGroup Group;
  ASSERT_TRUE(Pool.submit([&] { ++Ran; }, &Group).isOk());
  Group.wait();
  Pool.shutdown();
  const size_t DiagsBefore = diag::DiagSink::global().count();
  const diag::Status S = Pool.submit([&] { ++Ran; });
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), diag::ErrC::InvalidState);
  EXPECT_EQ(diag::DiagSink::global().count(), DiagsBefore + 1);
  EXPECT_EQ(Ran.load(), 1);
  Pool.shutdown(); // idempotent
}

// Jobs queued before shutdown() must drain, not drop.
TEST(ThreadPool, ShutdownDrainsQueuedJobs) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 64; ++I)
      ASSERT_TRUE(Pool.submit([&] { ++Ran; }).isOk());
  } // destructor == shutdown
  EXPECT_EQ(Ran.load(), 64);
}

TEST(ThreadPool, WaitGroupScopesOneBatch) {
  ThreadPool Pool(4);
  WaitGroup Mine;
  std::atomic<int> MineRan{0};
  std::atomic<bool> OtherDone{false};
  // A foreign long-running job on the same pool must not extend
  // Mine.wait().
  ASSERT_TRUE(Pool
                  .submit([&] {
                    while (!OtherDone.load())
                      std::this_thread::yield();
                  })
                  .isOk());
  for (int I = 0; I != 16; ++I)
    ASSERT_TRUE(Pool.submit([&] { ++MineRan; }, &Mine).isOk());
  Mine.wait();
  EXPECT_EQ(MineRan.load(), 16);
  OtherDone = true; // the destructor drains the foreign job
}

// A job may submit follow-up work into its own group (WaitGroup's
// documented contract); the group must not release early.
TEST(ThreadPool, NestedSubmitExtendsGroup) {
  ThreadPool Pool(4);
  WaitGroup Group;
  std::atomic<int> Stage2{0};
  for (int I = 0; I != 8; ++I) {
    ASSERT_TRUE(Pool
                    .submit(
                        [&] {
                          const diag::Status S =
                              Pool.submit([&] { ++Stage2; }, &Group);
                          if (!S.isOk())
                            ++Stage2;
                        },
                        &Group)
                    .isOk());
  }
  Group.wait();
  EXPECT_EQ(Stage2.load(), 8);
}

// Skewed-load smoke: a long job then a burst of short ones; the other
// workers drain the burst while the long job holds its worker.  (The
// name predates the single-queue pool.)
TEST(ThreadPool, WorkStealingCompletesSkewedLoad) {
  ThreadPool Pool(4);
  WaitGroup Group;
  std::atomic<int> Ran{0};
  ASSERT_TRUE(Pool
                  .submit(
                      [&] {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(5));
                        ++Ran;
                      },
                      &Group)
                  .isOk());
  for (int I = 0; I != 500; ++I)
    ASSERT_TRUE(Pool.submit([&] { ++Ran; }, &Group).isOk());
  Group.wait();
  EXPECT_EQ(Ran.load(), 501);
}

// fanOut starts one copy per worker at most, never more than asked,
// and runs refused copies inline once the pool is shut down.
TEST(ThreadPool, FanOutRunsAtMostOneCopyPerWorker) {
  ThreadPool Pool(3);
  for (const size_t Asked : {size_t(0), size_t(1), size_t(2), size_t(3),
                             size_t(100)}) {
    std::atomic<size_t> Copies{0};
    Pool.fanOut(Asked, [&] { ++Copies; });
    EXPECT_EQ(Copies.load(), std::min<size_t>(Asked, 3)) << Asked;
  }
  Pool.shutdown();
  std::atomic<size_t> Inline{0};
  Pool.fanOut(2, [&] { ++Inline; });
  EXPECT_EQ(Inline.load(), 2u);
}

TEST(ThreadPool, SharedRegistryReusesPools) {
  ThreadPool &A = ThreadPool::shared(2);
  ThreadPool &B = ThreadPool::shared(2);
  EXPECT_EQ(&A, &B);
  // Distinct thread counts are distinct pools.
  EXPECT_NE(&A, &ThreadPool::shared(3));
  // The auto count resolves before keying: 0 and the explicit value
  // share one pool.
  unsigned HW = std::thread::hardware_concurrency();
  if (HW == 0)
    HW = 1;
  EXPECT_EQ(&ThreadPool::shared(0), &ThreadPool::shared(HW));
  std::atomic<int> Ran{0};
  WaitGroup Group;
  for (int I = 0; I != 32; ++I)
    ASSERT_TRUE(A.submit([&] { ++Ran; }, &Group).isOk());
  Group.wait();
  EXPECT_EQ(Ran.load(), 32);
}

TEST(WaitGroup, WaitOnEmptyGroupReturnsImmediately) {
  WaitGroup Group;
  Group.wait();
  Group.add(2);
  Group.done();
  Group.done();
  Group.wait();
}

TEST(TaskStats, Addition) {
  TaskStats A{1, 2, 3}, B{10, 20, 30};
  A += B;
  EXPECT_EQ(A.NumAccurate, 11u);
  EXPECT_EQ(A.NumApproximate, 22u);
  EXPECT_EQ(A.NumDropped, 33u);
  EXPECT_EQ(A.total(), 66u);
}

} // namespace
