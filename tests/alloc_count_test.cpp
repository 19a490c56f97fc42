//===- tests/alloc_count_test.cpp - Allocation ceilings per shard ---------===//
//
// Counts heap allocations (every global operator new) made while one
// registry kernel is recorded, while its analyse() runs, while readStap
// decodes its compressed shard and while analyseShardTape adopts and
// analyses the loaded shard, on each of the 17 registry kernels, and
// holds all four below committed ceilings; checks that an Analysis
// reused through reset() records and sweeps without allocating; and
// counts what mergeShards makes over perfbench's 144 Sobel tiles.
// Per-shard fixed costs are paid once per task-sized shard, so an
// allocation that creeps into any stage shows up here first.
//
// The Record and Analyse ceilings are the counts measured when
// registration stopped building a label map and analyse() began
// reserving its variable lists; the Load ceilings are the counts
// measured when readStap became one decode pass into an adopted Tape;
// the ShardTape ceilings are the counts measured when adopt() began
// taking the registration by value.  Lower a ceiling when a change
// removes allocations; never raise one.
//
//===----------------------------------------------------------------------===//

#include "apps/sobel/Sobel.h"
#include "core/ParallelAnalysis.h"
#include "core/SweepBackends.h"
#include "kernels/KernelRegistry.h"
#include "quality/Image.h"
#include "tape/TapeIO.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <string_view>

namespace {

/// Allocations made by this thread since process start.  The test body
/// runs on one thread; other threads never reach the kernels.
thread_local size_t Allocations = 0;

void *countedAlloc(size_t Size) {
  ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(size_t Size, std::align_val_t Align) {
  ++Allocations;
  const size_t A = static_cast<size_t>(Align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void *P = std::aligned_alloc(A, (Size + A - 1) / A * A))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(size_t Size) { return countedAlloc(Size); }
void *operator new[](size_t Size) { return countedAlloc(Size); }
void *operator new(size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
// std::stable_sort's buffer comes from the nothrow form; left to the
// runtime, it would not pair with the free() below under ASan.
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  ++Allocations;
  return std::malloc(Size ? Size : 1);
}
void *operator new[](size_t Size, const std::nothrow_t &) noexcept {
  ++Allocations;
  return std::malloc(Size ? Size : 1);
}
void *operator new[](size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace {

using namespace scorpio;

struct Ceiling {
  const char *Kernel;
  size_t Record;
  size_t Analyse;
  size_t Load;
  size_t ShardTape;
};

/// Per-kernel ceilings: allocations while recording the default box into
/// a fresh Analysis, while analyse() runs with default options, while
/// readStap(std::string_view) decodes the kernel's compressed shard
/// (what scorpio_shardd writes), and while analyseShardTape adopts and
/// analyses that loaded shard.  When the graph stage still built a
/// DynDFG, analyse() made 2,675 allocations over the 17 kernels (dct8:
/// 964).  When every registration still inserted into a label map, the
/// Record ceilings summed to 690 and the Analyse ceilings to 238; they
/// now sum to 624 and 177.  When readStap still copied every section
/// and re-recorded the tape, readStap(std::istream) over the same bytes
/// made 1,091; the Load ceilings sum to 328.  When analyseShardTape
/// still copied the registration into adopt(), it made 454
/// allocations; the ShardTape ceilings sum to 214.
constexpr Ceiling Ceilings[] = {
    {"blackscholes-call", 45, 11, 25, 14},
    {"conv3", 28, 10, 15, 12},
    {"dct8", 64, 11, 36, 13},
    {"dot4", 36, 10, 20, 12},
    {"fisheye-bicubic", 57, 11, 35, 13},
    {"fisheye-inverse-mapping", 40, 11, 19, 14},
    {"geo-mean3", 32, 10, 15, 12},
    {"horner-poly4", 27, 10, 13, 12},
    {"listing1", 23, 10, 13, 12},
    {"lj-potential", 32, 10, 15, 12},
    {"maclaurin", 35, 11, 21, 13},
    {"nbody-lj-pair", 42, 11, 19, 13},
    {"newton-sqrt-step", 26, 10, 15, 13},
    {"rms3", 32, 10, 15, 12},
    {"sobel-pixel", 45, 11, 24, 13},
    {"softmax2", 26, 10, 14, 12},
    {"trapezoid-exp", 34, 10, 14, 12},
};

struct Counts {
  size_t Record = 0, Analyse = 0, Nodes = 0, Variables = 0;
};

Counts measure(const KernelDescriptor &K) {
  Counts C;
  Analysis A;
  size_t Before = Allocations;
  K.Analyse(A, K.DefaultRanges);
  C.Record = Allocations - Before;
  Before = Allocations;
  const AnalysisResult R = A.analyse();
  C.Analyse = Allocations - Before;
  C.Nodes = A.tape().size();
  C.Variables = R.inputs().size() + R.intermediates().size() +
                R.outputs().size();
  EXPECT_TRUE(R.isValid()) << K.Name;
  return C;
}

/// \p K's compressed shard with META, as scorpio_shardd writes it.
std::string shardBytes(const KernelDescriptor &K, size_t Index) {
  Analysis A;
  K.Analyse(A, K.DefaultRanges);
  const TapeMeta Meta = makeShardMeta(K.Name, Index, AnalysisOptions());
  StapWriteOptions Opts;
  Opts.Compress = true;
  std::ostringstream OS(std::ios::binary);
  EXPECT_TRUE(
      writeStap(OS, A.tape(), A.registration(), {}, Opts, &Meta).isOk());
  return OS.str();
}

/// Allocations made by readStap(std::string_view) on \p K's shard,
/// recorded on the default box and written compressed with shard META.
size_t measureLoad(const KernelDescriptor &K, size_t Index) {
  const std::string Bytes = shardBytes(K, Index);
  const size_t Before = Allocations;
  const diag::Expected<LoadedTape> Loaded = readStap(std::string_view(Bytes));
  const size_t Made = Allocations - Before;
  EXPECT_TRUE(Loaded.hasValue()) << K.Name << ": "
                                 << Loaded.status().message();
  return Made;
}

TEST(AllocCount, EveryRegistryKernelHasACeiling) {
  EXPECT_EQ(std::size(Ceilings), KernelRegistry::global().size());
  for (const Ceiling &C : Ceilings)
    EXPECT_NE(KernelRegistry::global().find(C.Kernel), nullptr) << C.Kernel;
}

TEST(AllocCount, RecordAndAnalyseStayUnderTheirCeilings) {
  for (const Ceiling &C : Ceilings) {
    const KernelDescriptor *K = KernelRegistry::global().find(C.Kernel);
    ASSERT_NE(K, nullptr) << C.Kernel;
    measure(*K); // warm-up: first-use statics and thread-locals
    const Counts Got = measure(*K);
    EXPECT_LE(Got.Record, C.Record) << C.Kernel;
    EXPECT_LE(Got.Analyse, C.Analyse) << C.Kernel;
    // analyse() allocates per registered variable, not per tape node:
    // a fixed handful of arrays plus the variable lists.
    EXPECT_LE(Got.Analyse, 10 + Got.Variables) << C.Kernel;
    std::cout << C.Kernel << ": " << Got.Nodes << " nodes, "
              << Got.Variables << " variables, record " << Got.Record
              << ", analyse " << Got.Analyse << " allocations\n";
  }
}

TEST(AllocCount, LoadStaysUnderItsCeiling) {
  size_t Index = 0;
  for (const Ceiling &C : Ceilings) {
    const KernelDescriptor *K = KernelRegistry::global().find(C.Kernel);
    ASSERT_NE(K, nullptr) << C.Kernel;
    measureLoad(*K, Index); // warm-up: first-use statics
    const size_t Got = measureLoad(*K, Index++);
    EXPECT_LE(Got, C.Load) << C.Kernel;
    std::cout << C.Kernel << ": load " << Got << " allocations\n";
  }
}

/// Allocations made by ParallelAnalysis::analyseShardTape on \p K's
/// loaded shard: adopt, analyse, no re-verification.
size_t measureShardTape(const KernelDescriptor &K, size_t Index) {
  const std::string Bytes = shardBytes(K, Index);
  diag::Expected<LoadedTape> Loaded = readStap(std::string_view(Bytes));
  EXPECT_TRUE(Loaded.hasValue()) << K.Name;
  const size_t Before = Allocations;
  const ShardResult SR = ParallelAnalysis::analyseShardTape(
      std::move(Loaded.value()), AnalysisOptions());
  const size_t Made = Allocations - Before;
  EXPECT_TRUE(SR.Result.isValid()) << K.Name;
  return Made;
}

TEST(AllocCount, ShardTapeStaysUnderItsCeiling) {
  size_t Index = 0;
  for (const Ceiling &C : Ceilings) {
    const KernelDescriptor *K = KernelRegistry::global().find(C.Kernel);
    ASSERT_NE(K, nullptr) << C.Kernel;
    measureShardTape(*K, Index); // warm-up: first-use statics
    const size_t Got = measureShardTape(*K, Index++);
    EXPECT_LE(Got, C.ShardTape) << C.Kernel;
    std::cout << C.Kernel << ": shard tape " << Got << " allocations\n";
  }
}

/// Allocations of the steady state of one Analysis reused through
/// reset(): recording \p Record, and the default backend's sweep under
/// \p Options.  Two warm-up rounds size every array first.
struct SteadyState {
  size_t Record = 0, Sweep = 0;
};

template <typename RecordFn>
SteadyState measureReused(RecordFn Record, const AnalysisOptions &Options) {
  Analysis A;
  std::vector<double> PerNode;
  SteadyState S;
  for (int Round = 0; Round != 3; ++Round) {
    A.reset();
    size_t Before = Allocations;
    Record(A);
    S.Record = Allocations - Before;
    PerNode.assign(A.tape().size(), 0.0);
    double Total = 0.0;
    Before = Allocations;
    sweepBackendFor(AnalysisBackend::Significance)
        .run(A.tape(), A.outputNodes(), Options, PerNode, Total);
    S.Sweep = Allocations - Before;
  }
  return S;
}

/// A kernel recorded through the Analysis API alone: two inputs, an
/// intermediate and twelve outputs (a width-8 and a width-4 batch).
void recordTwelveOutputs(Analysis &A) {
  static const char *const Names[] = {"y0", "y1", "y2", "y3",
                                      "y4", "y5", "y6", "y7",
                                      "y8", "y9", "y10", "y11"};
  const IAValue X = A.input("x", 1.0, 2.0);
  const IAValue Y = A.input("y", -1.0, 3.0);
  IAValue S = X * Y + X;
  A.registerIntermediate(S, "s");
  for (const char *Name : Names) {
    S = S * X - Y;
    A.registerOutput(S, Name);
  }
}

std::vector<AnalysisOptions> sweepModes() {
  std::vector<AnalysisOptions> Modes(3);
  Modes[1].Mode = AnalysisOptions::OutputMode::PerOutput;
  Modes[2].Mode = AnalysisOptions::OutputMode::PerOutput;
  Modes[2].BatchWidth = 1;
  return Modes;
}

TEST(AllocCount, AReusedAnalysisRecordsAndSweepsWithoutAllocating) {
  for (const AnalysisOptions &O : sweepModes()) {
    const SteadyState S = measureReused(recordTwelveOutputs, O);
    EXPECT_EQ(S.Record, 0u) << "mode " << static_cast<int>(O.Mode);
    EXPECT_EQ(S.Sweep, 0u) << "mode " << static_cast<int>(O.Mode);
  }
  for (const Ceiling &C : Ceilings) {
    const KernelDescriptor *K = KernelRegistry::global().find(C.Kernel);
    ASSERT_NE(K, nullptr) << C.Kernel;
    for (const AnalysisOptions &O : sweepModes()) {
      const SteadyState S = measureReused(
          [K](Analysis &A) { K->Analyse(A, K->DefaultRanges); }, O);
      // What is left is the registry adapter's own std::vector<IAValue>
      // of inputs, and of outputs for the paper kernels.
      EXPECT_LE(S.Record, 2u) << C.Kernel;
      EXPECT_EQ(S.Sweep, 0u) << C.Kernel;
    }
  }
}

TEST(AllocCount, MergeShardsAllocatesPerShardNotPerVariable) {
  // perfbench's sobel_tiles call: a 48x48 image in 144 4x4 tiles, 132
  // registered variables per tile.
  const apps::SobelTileSignificance S =
      apps::analyseSobelTiles(testimages::scene(48, 48, 7919), 4, 8.0, 1);
  const std::vector<ShardResult> &Shards = S.Result.shards();
  ASSERT_EQ(Shards.size(), 144u);
  size_t Variables = 0;
  for (const ShardResult &Shard : Shards)
    Variables += Shard.Result.inputs().size() +
                 Shard.Result.intermediates().size() +
                 Shard.Result.outputs().size();
  std::vector<ShardResult> Copy = Shards;
  const size_t Before = Allocations;
  const ParallelAnalysisResult R =
      ParallelAnalysis::mergeShards(std::move(Copy));
  const size_t Made = Allocations - Before;
  ASSERT_EQ(R.shards().size(), Shards.size());
  // The merge may allocate per shard (prefixed divergences and
  // findings, the sort buffer) but never per variable: the variable
  // list is built only when variables() is called.
  EXPECT_LE(Made, Shards.size());
  std::cout << "mergeShards: " << Shards.size() << " shards, " << Variables
            << " variables, " << Made << " allocations\n";
}

} // namespace
