//===- tests/alloc_count_test.cpp - Allocation ceilings per shard ---------===//
//
// Counts heap allocations (every global operator new) made while one
// registry kernel is recorded, while its analyse() runs, and while
// readStap decodes its compressed shard, on each of the 17 registry
// kernels, and holds all three below committed ceilings; and counts
// what mergeShards makes over perfbench's 144 Sobel tiles.  Per-shard
// fixed costs are paid once per task-sized shard, so an allocation that
// creeps into any stage shows up here first.
//
// The Record and Analyse ceilings are the counts measured when the
// S4/S5 stage moved onto the tape's arrays; the Load ceilings are the
// counts measured when readStap became one decode pass into an adopted
// Tape.  Lower a ceiling when a change removes allocations; never raise
// one.
//
//===----------------------------------------------------------------------===//

#include "apps/sobel/Sobel.h"
#include "core/ParallelAnalysis.h"
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
};

/// Per-kernel ceilings: allocations while recording the default box into
/// a fresh Analysis, while analyse() runs with default options, and
/// while readStap(std::string_view) decodes the kernel's compressed
/// shard (what scorpio_shardd writes).  When the graph stage still built
/// a DynDFG, analyse() made 2,675 allocations over the 17 kernels (dct8:
/// 964); the Analyse ceilings sum to 238.  When readStap still copied
/// every section and re-recorded the tape, readStap(std::istream) over
/// the same bytes made 1,091; the Load ceilings sum to 328.
constexpr Ceiling Ceilings[] = {
    {"blackscholes-call", 52, 17, 25},
    {"conv3", 29, 12, 15},
    {"dct8", 82, 20, 36},
    {"dot4", 40, 13, 20},
    {"fisheye-bicubic", 74, 18, 35},
    {"fisheye-inverse-mapping", 42, 14, 19},
    {"geo-mean3", 33, 12, 15},
    {"horner-poly4", 27, 10, 13},
    {"listing1", 23, 10, 13},
    {"lj-potential", 33, 12, 15},
    {"maclaurin", 39, 14, 21},
    {"nbody-lj-pair", 45, 15, 19},
    {"newton-sqrt-step", 26, 11, 15},
    {"rms3", 33, 12, 15},
    {"sobel-pixel", 52, 16, 24},
    {"softmax2", 26, 11, 14},
    {"trapezoid-exp", 34, 11, 14},
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

/// Allocations made by readStap(std::string_view) on \p K's shard,
/// recorded on the default box and written compressed with shard META.
size_t measureLoad(const KernelDescriptor &K, size_t Index) {
  Analysis A;
  K.Analyse(A, K.DefaultRanges);
  const TapeMeta Meta = makeShardMeta(K.Name, Index, AnalysisOptions());
  StapWriteOptions Opts;
  Opts.Compress = true;
  std::ostringstream OS(std::ios::binary);
  EXPECT_TRUE(
      writeStap(OS, A.tape(), A.registration(), {}, Opts, &Meta).isOk());
  const std::string Bytes = OS.str();
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
