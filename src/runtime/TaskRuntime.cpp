//===- runtime/TaskRuntime.cpp - Significance-aware task runtime ---------===//

#include "runtime/TaskRuntime.h"

#include "simd/DoubleLanes.h"
#include "support/Diag.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

using namespace scorpio::rt;

TaskRuntime::TaskRuntime(unsigned NumThreads) : Pool(NumThreads) {}

TaskRuntime::~TaskRuntime() {
  // The old assert here spelled `A || B && "msg"`, whose precedence
  // (`A || (B && "msg")`) is the -Wparentheses footgun the build now
  // rejects; and being an assert it vanished under NDEBUG entirely.
  // Destructors cannot return a Status, so the violation is recorded as
  // a structured diagnostic and the pending tasks are released unrun.
  const bool AllReleased =
      std::all_of(Pending.begin(), Pending.end(),
                  [](const auto &KV) { return KV.second.empty(); });
  (void)SCORPIO_CHECK(AllReleased, diag::ErrC::InvalidState,
                      "TaskRuntime destroyed with unreleased tasks");
}

void TaskRuntime::spawn(std::function<void()> AccurateFn,
                        TaskOptions Options) {
  // A task without an accurate implementation could never honour a
  // ratio-1.0 taskwait; drop the spawn with a diagnostic.
  SCORPIO_REQUIRE(static_cast<bool>(AccurateFn), diag::ErrC::InvalidArgument,
                  "TaskRuntime::spawn: task needs an accurate "
                  "implementation");
  // NaN significance is sanitized by decideFates (ranked as 0); a
  // negative one is clamped to 0 here so the ranking invariants hold.
  if (!SCORPIO_CHECK(!(Options.Significance < 0.0),
                     diag::ErrC::InvalidArgument,
                     "TaskRuntime::spawn: negative significance"))
    Options.Significance = 0.0;
  PendingTask T;
  T.AccurateFn = std::move(AccurateFn);
  T.ApproxFn = std::move(Options.ApproxFn);
  T.Significance = Options.Significance;
  Pending[Options.Label].push_back(std::move(T));
}

std::vector<TaskFate>
TaskRuntime::decideFates(const std::vector<double> &Significances,
                         const std::vector<bool> &HasApprox, double Ratio) {
  // Invalid task metadata must degrade gracefully, not corrupt state
  // (Vassiliadis et al., arXiv:1412.5150): on a size mismatch the only
  // fate assignable without reading out of bounds is the conservative
  // one — run everything accurate (zero quality loss, energy win lost).
  SCORPIO_REQUIRE(Significances.size() == HasApprox.size(),
                  diag::ErrC::SizeMismatch,
                  "TaskRuntime::decideFates: significance/approx size "
                  "mismatch",
                  std::vector<TaskFate>(Significances.size(),
                                        TaskFate::Accurate));
  // std::vector<bool> is bit-packed; widen to bytes for the span form.
  std::vector<uint8_t> Approx(HasApprox.size());
  for (size_t I = 0; I != HasApprox.size(); ++I)
    Approx[I] = HasApprox[I] ? 1 : 0;
  std::vector<TaskFate> Fates(Significances.size(), TaskFate::Dropped);
  decideFatesBatch(Significances, Approx, Ratio, Fates);
  return Fates;
}

void TaskRuntime::decideFatesBatch(std::span<const double> Significances,
                                   std::span<const uint8_t> HasApprox,
                                   double Ratio, std::span<TaskFate> Fates) {
  const size_t N = Significances.size();
  if (!SCORPIO_CHECK(HasApprox.size() == N && Fates.size() == N,
                     diag::ErrC::SizeMismatch,
                     "TaskRuntime::decideFatesBatch: span size mismatch")) {
    std::fill(Fates.begin(), Fates.end(), TaskFate::Accurate);
    return;
  }
  // An out-of-range ratio is clamped; a NaN ratio means "no usable
  // knob" and resolves to 1.0, the all-accurate safe side.
  if (!SCORPIO_CHECK(Ratio >= 0.0 && Ratio <= 1.0, diag::ErrC::OutOfRange,
                     "TaskRuntime::decideFatesBatch: ratio out of [0, 1]"))
    Ratio = std::isnan(Ratio) ? 1.0 : std::clamp(Ratio, 0.0, 1.0);
  if (N == 0)
    return;

  // Per-task classification, lane-parallel.  NaN significances (a
  // diverged or failed analysis) would break the sort comparator's
  // strict weak ordering; rank them as 0 — no evidence the task matters
  // — and use the sanitized keys for the force-accurate check too (NaN
  // >= 1.0 is false either way).  Each task's base fate ignores its
  // rank: forced Accurate at key >= 1.0, else Approximate/Dropped by
  // HasApprox.  The ranking pass below only ever promotes to Accurate,
  // so base-then-promote decides identically to the single rank loop.
  std::vector<double> Keys(N);
  size_t I = 0;
  if constexpr (simd::NativeLanes > 1) {
    constexpr unsigned W = simd::NativeLanes;
    using DL = simd::DoubleLanes<W>;
    const DL One = DL::broadcast(1.0);
    for (; I + W <= N; I += W) {
      const DL S = DL::load(Significances.data() + I);
      const DL K = DL::select(S.unord(), DL::zero(), S);
      K.store(Keys.data() + I);
      // ge() lane order matches array order for plain double loads (the
      // interleave permutation applies only to Interval loads).
      const unsigned Forced = K.ge(One).bits();
      for (unsigned L = 0; L != W; ++L)
        Fates[I + L] = ((Forced >> L) & 1u)
                           ? TaskFate::Accurate
                           : (HasApprox[I + L] ? TaskFate::Approximate
                                               : TaskFate::Dropped);
    }
  }
  for (; I != N; ++I) {
    const double S = Significances[I];
    const double K = std::isnan(S) ? 0.0 : S;
    Keys[I] = K;
    Fates[I] = K >= 1.0 ? TaskFate::Accurate
                        : (HasApprox[I] ? TaskFate::Approximate
                                        : TaskFate::Dropped);
  }

  // Rank tasks by significance, descending; stable in spawn order.  The
  // top NumAccurate ranks run accurate regardless of their base fate.
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Keys[A] > Keys[B]; });

  const size_t NumAccurate =
      std::min(N, static_cast<size_t>(
                      std::ceil(Ratio * static_cast<double>(N) - 1e-9)));
  for (size_t Rank = 0; Rank != NumAccurate; ++Rank)
    Fates[Order[Rank]] = TaskFate::Accurate;
}

TaskStats TaskRuntime::runBatch(std::vector<PendingTask> Batch,
                                double Ratio) {
  std::vector<double> Significances;
  std::vector<uint8_t> HasApprox;
  Significances.reserve(Batch.size());
  HasApprox.reserve(Batch.size());
  for (const PendingTask &T : Batch) {
    Significances.push_back(T.Significance);
    HasApprox.push_back(static_cast<bool>(T.ApproxFn) ? 1 : 0);
  }
  std::vector<TaskFate> Fates(Batch.size(), TaskFate::Dropped);
  decideFatesBatch(Significances, HasApprox, Ratio, Fates);

  // Every fate is decided before any task runs, so the released tasks
  // form one batch of known size: claim-loop runners take them by index
  // and call each in place.  A dropped task is never released.
  TaskStats Stats;
  std::vector<const std::function<void()> *> Released;
  Released.reserve(Batch.size());
  for (size_t I = 0; I != Batch.size(); ++I) {
    switch (Fates[I]) {
    case TaskFate::Accurate:
      ++Stats.NumAccurate;
      Released.push_back(&Batch[I].AccurateFn);
      break;
    case TaskFate::Approximate:
      ++Stats.NumApproximate;
      Released.push_back(&Batch[I].ApproxFn);
      break;
    case TaskFate::Dropped:
      ++Stats.NumDropped;
      break;
    }
  }
  std::atomic<size_t> Next{0};
  Pool.fanOut(Released.size(), [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Released.size();)
      (*Released[I])();
  });
  return Stats;
}

TaskStats TaskRuntime::taskwait(const std::string &Label, double Ratio) {
  auto It = Pending.find(Label);
  if (It == Pending.end() || It->second.empty())
    return TaskStats();
  std::vector<PendingTask> Batch = std::move(It->second);
  Pending.erase(It);
  const TaskStats Stats = runBatch(std::move(Batch), Ratio);
  Totals += Stats;
  return Stats;
}

TaskStats TaskRuntime::taskwaitAll(double Ratio) {
  TaskStats Stats;
  while (!Pending.empty()) {
    const std::string Label = Pending.begin()->first;
    Stats += taskwait(Label, Ratio);
  }
  return Stats;
}
