//===- tests/alloc_count_test.cpp - Allocation ceilings per shard ---------===//
//
// Counts heap allocations (every global operator new) made while one
// registry kernel is recorded and while its analyse() runs, on each of
// the 17 registry kernels, and holds both below committed ceilings.
// Per-shard fixed costs are paid once per task-sized shard, so an
// allocation that creeps into either stage shows up here first.
//
// The ceilings are the counts measured when the S4/S5 stage moved onto
// the tape's arrays.  Lower a ceiling when a change removes
// allocations; never raise one.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <new>

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
void *operator new[](size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
void operator delete(void *P) noexcept { std::free(P); }
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
};

/// Per-kernel ceilings: allocations while recording the default box into
/// a fresh Analysis, and while analyse() runs with default options.
/// When the graph stage still built a DynDFG, analyse() made 2,675
/// allocations over the 17 kernels (dct8: 964); these sum to 238.
constexpr Ceiling Ceilings[] = {
    {"blackscholes-call", 52, 17},
    {"conv3", 29, 12},
    {"dct8", 82, 20},
    {"dot4", 40, 13},
    {"fisheye-bicubic", 74, 18},
    {"fisheye-inverse-mapping", 42, 14},
    {"geo-mean3", 33, 12},
    {"horner-poly4", 27, 10},
    {"listing1", 23, 10},
    {"lj-potential", 33, 12},
    {"maclaurin", 39, 14},
    {"nbody-lj-pair", 45, 15},
    {"newton-sqrt-step", 26, 11},
    {"rms3", 33, 12},
    {"sobel-pixel", 52, 16},
    {"softmax2", 26, 11},
    {"trapezoid-exp", 34, 11},
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

} // namespace
