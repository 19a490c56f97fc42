//===- tests/simd_sweep_test.cpp - SIMD vs scalar sweep bit-identity ------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
//
// The composed half of the SIMD bit-identity contract: on every tape the
// project can produce — all registry kernels, plus randomized tapes
// engineered to hit infinities, zero-width intervals and exact-zero
// partials — the Auto (SIMD) sweep backend must produce byte-identical
// adjoints to the forced scalar backend, at every batch width across
// the vector-body/scalar-tail split, and the batched lanes must match
// dedicated single-seed sweeps.  Also pins decideFatesBatch to
// decideFates and the cache-line alignment of the adjoint storage.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "kernels/KernelRegistry.h"
#include "runtime/TaskRuntime.h"
#include "simd/AlignedAlloc.h"
#include "tape/Tape.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace {

using namespace scorpio;

bool bitEqual(const Interval &A, const Interval &B) {
  const double AB[2] = {A.lower(), A.upper()};
  const double BB[2] = {B.lower(), B.upper()};
  return std::memcmp(AB, BB, sizeof(AB)) == 0;
}

/// Sweeps \p Outs through both backends at batch widths 1 through 9
/// (straddling every vector/tail split for native widths up to 8) and
/// expects byte-identical adjoints for every node and lane; width
/// MaxW+1 also cross-checks each batch lane against a dedicated
/// single-seed scalar sweep.
void expectBackendsIdentical(const Tape &T, const std::vector<NodeId> &Outs,
                             const char *Label) {
  ASSERT_FALSE(Outs.empty()) << Label;
  BatchAdjoints Auto, Scalar, Single;
  for (unsigned Width = 1; Width <= 9; ++Width) {
    std::vector<std::pair<NodeId, Interval>> Seeds;
    for (size_t B = 0; B < Outs.size(); B += Width) {
      const size_t E = std::min(B + Width, Outs.size());
      Seeds.clear();
      for (size_t O = B; O != E; ++O)
        Seeds.emplace_back(Outs[O], Interval(1.0));
      const std::span<const std::pair<NodeId, Interval>> S(Seeds);
      T.reverseSweepBatch(S, Auto, SweepBackend::Auto);
      T.reverseSweepBatch(S, Scalar, SweepBackend::Scalar);
      for (size_t I = 0; I != T.size(); ++I)
        for (unsigned L = 0; L != Seeds.size(); ++L)
          ASSERT_TRUE(bitEqual(Auto.at(static_cast<NodeId>(I), L),
                               Scalar.at(static_cast<NodeId>(I), L)))
              << Label << ": node u" << I << " lane " << L << " width "
              << Width;
      // Each lane against a dedicated scalar single-seed sweep (only at
      // one width; the lanes were just shown width-invariant).
      if (Width != 9)
        continue;
      for (unsigned L = 0; L != Seeds.size(); ++L) {
        const std::pair<NodeId, Interval> One[] = {Seeds[L]};
        T.reverseSweepBatch(std::span<const std::pair<NodeId, Interval>>(One),
                            Single, SweepBackend::Scalar);
        for (size_t I = 0; I != T.size(); ++I)
          ASSERT_TRUE(bitEqual(Auto.at(static_cast<NodeId>(I), L),
                               Single.at(static_cast<NodeId>(I), 0)))
              << Label << ": node u" << I << " lane " << L
              << " vs dedicated sweep";
      }
    }
  }
}

TEST(SimdSweep, AllRegistryKernelsBitIdentical) {
  KernelRegistry &Registry = KernelRegistry::global();
  const std::vector<std::string> Names = Registry.names();
  ASSERT_FALSE(Names.empty());
  for (const std::string &Name : Names) {
    const KernelDescriptor *K = Registry.find(Name);
    ASSERT_NE(K, nullptr) << Name;
    Analysis A;
    K->Analyse(A, K->DefaultRanges);
    ASSERT_FALSE(A.outputNodes().empty()) << Name;
    expectBackendsIdentical(A.tape(), A.outputNodes(), Name.c_str());
  }
}

TEST(SimdSweep, ScalarSingleSweepBackendsBitIdentical) {
  // The non-batched reverseSweep also has an Auto fast path (the
  // point-partial classification); it must match the textbook backend.
  KernelRegistry &Registry = KernelRegistry::global();
  for (const std::string &Name : Registry.names()) {
    const KernelDescriptor *K = Registry.find(Name);
    Analysis A;
    K->Analyse(A, K->DefaultRanges);
    Tape &T = A.tape();
    const auto Sweep = [&](SweepBackend Backend) {
      T.clearAdjoints();
      for (NodeId Out : A.outputNodes())
        T.seedAdjoint(Out, Interval(1.0));
      T.reverseSweep(Backend);
      std::vector<Interval> Adj;
      Adj.reserve(T.size());
      for (size_t I = 0; I != T.size(); ++I)
        Adj.push_back(T.adjoint(static_cast<NodeId>(I)));
      return Adj;
    };
    const std::vector<Interval> Auto = Sweep(SweepBackend::Auto);
    const std::vector<Interval> Scalar = Sweep(SweepBackend::Scalar);
    for (size_t I = 0; I != Auto.size(); ++I)
      ASSERT_TRUE(bitEqual(Auto[I], Scalar[I])) << Name << ": node u" << I;
  }
}

/// Records a randomized expression DAG designed to exercise the sweep's
/// special cases: exact-zero partials (multiplication by the 0.0
/// constant), zero-width inputs, huge ranges whose products overflow to
/// infinity, and heavy argument sharing (so adjoints accumulate).
std::vector<NodeId> recordAdversarialTape(Analysis &A, uint64_t Seed,
                                          int NumOps, int NumOutputs) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> U(-2.0, 2.0);
  std::uniform_int_distribution<int> Pick(0, 7);
  std::vector<IAValue> Pool;
  Pool.push_back(A.input("a", -1.5, 2.5));
  Pool.push_back(A.input("b", 3.0, 3.0));              // zero-width
  Pool.push_back(A.input("c", -1e200, 1e200));         // overflow fodder
  Pool.push_back(A.input("d", -5e-324, 5e-324));       // subnormal-wide
  auto Any = [&]() -> IAValue & {
    return Pool[std::uniform_int_distribution<size_t>(
        0, Pool.size() - 1)(Rng)];
  };
  for (int I = 0; I != NumOps; ++I) {
    switch (Pick(Rng)) {
    case 0:
      Pool.push_back(Any() + Any());
      break;
    case 1:
      Pool.push_back(Any() - Any());
      break;
    case 2:
      Pool.push_back(Any() * Any());
      break;
    case 3: {
      IAValue &X = Any();
      Pool.push_back(X * X); // aliased arguments
      break;
    }
    case 4:
      Pool.push_back(Any() * 0.0); // exact-zero partial for the operand
      break;
    case 5:
      Pool.push_back(Any() * 1e300); // drive bounds toward infinity
      break;
    case 6:
      Pool.push_back(Any() + U(Rng));
      break;
    default:
      Pool.push_back(Any() * U(Rng));
      break;
    }
  }
  std::vector<NodeId> Outs;
  for (int O = 0; O != NumOutputs; ++O) {
    IAValue &Y = Pool[Pool.size() - 1 - static_cast<size_t>(O)];
    A.registerOutput(Y, "y" + std::to_string(O));
    Outs.push_back(Y.node());
  }
  return Outs;
}

TEST(SimdSweep, RandomizedAdversarialTapesBitIdentical) {
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
    Analysis A;
    const std::vector<NodeId> Outs =
        recordAdversarialTape(A, Seed, 400, 9);
    expectBackendsIdentical(A.tape(), Outs,
                            ("adversarial-" + std::to_string(Seed)).c_str());
  }
}

TEST(SimdSweep, DecideFatesBatchMatchesDecideFates) {
  std::mt19937_64 Rng(0xfa7e5u);
  std::uniform_real_distribution<double> Sig(-0.5, 2.0);
  std::uniform_int_distribution<int> Coin(0, 1);
  const double QNaN = std::numeric_limits<double>::quiet_NaN();
  for (size_t N : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                   size_t{8}, size_t{33}, size_t{257}}) {
    for (double Ratio : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      std::vector<double> S(N);
      std::vector<bool> HasApprox(N);
      std::vector<uint8_t> HasApproxBytes(N);
      for (size_t I = 0; I != N; ++I) {
        S[I] = I % 11 == 0 ? QNaN : Sig(Rng);
        const bool HA = Coin(Rng) != 0;
        HasApprox[I] = HA;
        HasApproxBytes[I] = HA ? 1 : 0;
      }
      const std::vector<rt::TaskFate> Ref =
          rt::TaskRuntime::decideFates(S, HasApprox, Ratio);
      std::vector<rt::TaskFate> Batch(N, rt::TaskFate::Dropped);
      rt::TaskRuntime::decideFatesBatch(S, HasApproxBytes, Ratio, Batch);
      ASSERT_EQ(Ref.size(), Batch.size());
      for (size_t I = 0; I != N; ++I)
        EXPECT_EQ(Ref[I], Batch[I]) << "N=" << N << " ratio=" << Ratio
                                    << " task " << I;
    }
  }
}

TEST(SimdSweep, AdjointStorageIsCacheLineAligned) {
  Analysis A;
  recordAdversarialTape(A, 42, 100, 2);
  // BatchAdjoints rows live in an AlignedAllocator vector.
  BatchAdjoints Batch;
  A.tape().reverseSweepBatch(A.outputNodes(), Batch);
  ASSERT_GT(Batch.numNodes(), size_t{0});
  EXPECT_TRUE(simd::isCacheLineAligned(Batch.row(0)));
}

} // namespace
