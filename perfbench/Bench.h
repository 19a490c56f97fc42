//===- perfbench/Bench.h - End-to-end benchmark of the analysis pipeline --===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark driver (main.cpp) and its self-test
/// (selftest.cpp): the seeded input generators, the correctness oracles,
/// the in-memory span tracer and the workloads.
///
/// Every workload is driven through the library's public API only.
/// Inputs are generated from the workload seed by the benchmark's own
/// generator, so a change to the library can never change what is
/// measured.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_PERFBENCH_BENCH_H
#define SCORPIO_PERFBENCH_BENCH_H

#include "core/ParallelAnalysis.h"
#include "kernels/KernelRegistry.h"
#include "quality/Image.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using scorpio::Interval;

/// Pool workers of the timed multi-threaded calls unless --workers says
/// otherwise.
inline constexpr unsigned DefaultWorkers = 3;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the benchmark's own input generator, independent of the
/// library's support/Random so library changes cannot move the inputs.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory spans recorded by the benchmark around its calls into the
/// library.  Single-threaded: every span is opened and closed on the
/// calling thread; nesting follows the open-span stack.  Names must be
/// string literals (only the pointer is stored).
class Tracer {
public:
  struct Span {
    const char *Name = nullptr;
    /// Index of the enclosing span, or -1 for a root span.
    int64_t Parent = -1;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    /// Work items the span covered (tape nodes of a recording); 0 when
    /// not applicable.
    uint64_t Count = 0;
  };

  /// Reserves room for \p Capacity spans, so recording one does not
  /// reallocate inside a timed region (the driver stays below it).
  explicit Tracer(size_t Capacity) { Spans.reserve(Capacity); }

  size_t begin(const char *Name) {
    Span S;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : static_cast<int64_t>(Open.back());
    S.StartNs = nowNs();
    Spans.push_back(S);
    Open.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }
  void end(size_t Id) {
    Spans[Id].EndNs = nowNs();
    Open.pop_back();
  }
  void setCount(size_t Id, uint64_t N) { Spans[Id].Count = N; }

  const std::vector<Span> &spans() const { return Spans; }

  /// Durations (ns) of every span named \p Name.
  std::vector<double> durations(const char *Name) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds) with
  /// \p Metadata (already-encoded JSON object) attached.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &Metadata) const;

  /// One line per span name: count, median, total and self time (the
  /// span's duration minus the time its child spans cover).
  std::string summaryTable() const;

private:
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name)
      : T(T), Id(T ? T->begin(Name) : 0) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  void count(uint64_t N) {
    if (T)
      T->setCount(Id, N);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  size_t Id;
};

//===----------------------------------------------------------------------===//
// Inputs and oracles
//===----------------------------------------------------------------------===//

/// One registry kernel over one input box.
struct KernelInstance {
  const scorpio::KernelDescriptor *K = nullptr;
  /// Shard name, "<kernel>/<j>".
  std::string Name;
  std::vector<Interval> Box;
  /// Oracle points inside Box: the midpoint, then seeded interior points
  /// (empty where no oracle uses them).
  std::vector<std::vector<double>> Points;
};

/// \p PerKernel instances of every registry kernel (sorted by name), each
/// a seeded sub-box of the kernel's DefaultRanges on which recording
/// does not diverge.  Pure function of (Seed, PerKernel).
std::vector<KernelInstance> makeKernelInstances(uint64_t Seed,
                                                unsigned PerKernel = 16);

/// Byte encoding of the instances (names, boxes, oracle points) for the
/// same-seed determinism check.
std::string encodeInstances(const std::vector<KernelInstance> &Instances);

/// Expected point values of one instance: K->Evaluate at every oracle
/// point (the sum of the outputs for multi-output kernels).
std::vector<double> expectedValues(const KernelInstance &I);

/// Containment oracle: \p R is valid and the sum of its output
/// enclosures contains every expected point value.  \p Why names the
/// first violation.
bool checkKernelResult(const scorpio::AnalysisResult &R,
                       const std::vector<double> &Expected, std::string &Why);

/// A seeded W x H greyscale image: a few random plane waves plus noise.
scorpio::Image makeImage(uint64_t Seed, int W, int H);

/// `.stap` shard files: paths in shard index order, total file bytes and
/// total tape nodes.
struct ShardFiles {
  std::vector<std::string> Paths;
  uint64_t Bytes = 0;
  uint64_t Nodes = 0;
};

/// Writes every instance as a compressed `.stap` v2 shard with META
/// ("<Dir>/shard_<index>.stap", the scorpio_shardd layout) under the
/// default AnalysisOptions.  Each saveStap call is traced as
/// "tapeio.save".
ShardFiles writeShards(const std::vector<KernelInstance> &Instances,
                       const std::string &Dir, Tracer *T);

/// Writes back the dirty data of the filesystem holding \p Dir (a no-op
/// when \p Dir cannot be opened).
void syncFilesystem(const std::string &Dir);

/// The merged result of an in-process ParallelAnalysis::run over the
/// instances, on \p Workers pool workers.
scorpio::ParallelAnalysisResult
inProcessResult(const std::vector<KernelInstance> &Instances,
                unsigned Workers);

std::string jsonOf(const scorpio::ParallelAnalysisResult &R);

/// Byte-identity oracle of the merged reports.
bool checkSameReport(const std::string &Got, const std::string &Want,
                     std::string &Why);

/// Bitwise comparison of every field the merged report prints (per-shard
/// names, indices, node significances, variables, totals, graph stats):
/// the per-call form of checkSameReport, without rendering the JSON.
bool checkSameResult(const scorpio::ParallelAnalysisResult &Got,
                     const scorpio::ParallelAnalysisResult &Want,
                     std::string &Why);

/// Counter oracles of the merge that fills a cache (every shard missed,
/// analysed and stored) and of the warm merge (every shard a hit).
bool checkColdStats(const scorpio::StreamingMergeStats &S, size_t Stores,
                    size_t Shards, std::string &Why);
bool checkWarmStats(const scorpio::StreamingMergeStats &S, size_t Shards,
                    std::string &Why);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Counters a workload accumulates over its calls.
struct CallCounters {
  size_t Lookups = 0;
  size_t Hits = 0;
  size_t MaxTapesInFlight = 0;
};

/// One benchmark workload.  The driver calls setup() (timed, several
/// times), prepareOracle() once, then call() and check() in a closed
/// loop: only call() is timed.
class Workload {
public:
  /// \p WorkDir holds the files the workload writes; set-up and the
  /// oracle's reference run on \p Workers pool workers.
  Workload(std::string WorkDir, unsigned Workers)
      : Workers(Workers), Root(std::move(WorkDir)) {}
  virtual ~Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Generates every input from \p Seed and prepares the state a user
  /// would have before the first call (shard files, a filled cache),
  /// finishing with one warm-up call.  Replaces any previous set-up.
  virtual void setup(uint64_t Seed, Tracer *T) = 0;
  /// Builds the oracle's reference outputs (not part of set-up time).
  virtual void prepareOracle() = 0;
  /// One top-level call on \p Workers pool workers.  Returns the number
  /// of shards it analysed or served.
  virtual size_t call(unsigned Workers, Tracer *T) = 0;
  /// Checks the last call's outputs.
  virtual bool check(std::string &Why) = 0;
  /// Whether set-up writes files (the driver then writes back the
  /// previous set-up's dirty data before timing the next).
  virtual bool writesFiles() const { return false; }

  /// The per-layer breakdown: records walkInstances() and writes them as
  /// `.stap` shards, then takes every shard through load, key, analyse
  /// (with its sweep and graph stages), cache store, lookup and audit,
  /// one traced span per public call.
  void walkLayers(Tracer &T);

  const CallCounters &counters() const { return Counters; }
  /// The shard files the last walk wrote.
  const ShardFiles &walkedFiles() const { return Walked; }

protected:
  /// The shards the layer walk takes through every layer.
  virtual std::vector<KernelInstance> walkInstances() const = 0;
  /// A new, empty directory under the work directory.  Nothing under it
  /// is deleted while the benchmark runs (see MergeWarmWorkload).
  std::string freshDir(const char *Stem);

  const unsigned Workers;
  CallCounters Counters;

private:
  std::string Root;
  unsigned NextDir = 0;
  ShardFiles Walked;
};

/// Creates the named workload ("kernels", "sobel_tiles", "merge_warm")
/// working under \p WorkDir with \p Workers pool workers; nullptr for an
/// unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const std::string &WorkDir,
                                       unsigned Workers);

} // namespace perfbench

#endif // SCORPIO_PERFBENCH_BENCH_H
