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
// dedicated single-seed sweeps.  Pins the live-row bookkeeping of
// BatchAdjoints exactly: after each batch the live rows are the seeds'
// backward cone over non-zero partials, everything else is [0, 0], and
// a reused matrix matches a fresh one.  Also pins decideFatesBatch to
// decideFates and the cache-line alignment of the adjoint storage.
//
//===----------------------------------------------------------------------===//

#include "apps/sobel/Sobel.h"
#include "core/Analysis.h"
#include "kernels/KernelRegistry.h"
#include "quality/Image.h"
#include "runtime/TaskRuntime.h"
#include "simd/AlignedAlloc.h"
#include "tape/Tape.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
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

/// The rows a batch sweep seeded with \p Seeds must leave live, sorted:
/// the seeded nodes plus every argument reached backward from them over
/// edges with a non-zero partial.  A plain BFS over the per-node
/// accessors, sharing no code with the sweep.
std::vector<NodeId>
backwardCone(const Tape &T,
             std::span<const std::pair<NodeId, Interval>> Seeds) {
  const Interval Zero(0.0);
  std::vector<char> Seen(T.size(), 0);
  std::vector<NodeId> Work;
  auto Visit = [&](NodeId Id) {
    if (!Seen[static_cast<size_t>(Id)]) {
      Seen[static_cast<size_t>(Id)] = 1;
      Work.push_back(Id);
    }
  };
  for (const auto &S : Seeds)
    Visit(S.first);
  std::vector<NodeId> Cone;
  while (!Work.empty()) {
    const NodeId Id = Work.back();
    Work.pop_back();
    Cone.push_back(Id);
    for (unsigned A = 0; A != T.numArgs(Id); ++A)
      if (!(T.partial(Id, A) == Zero))
        Visit(T.arg(Id, A));
  }
  std::sort(Cone.begin(), Cone.end());
  return Cone;
}

/// Sweeps \p Outs in batches of each width in turn through one reused
/// matrix per backend (so every batch starts from the previous batch's
/// leftovers: same-shape reuse within a width, a reshape between
/// widths and at a ragged last batch) and checks each batch exactly:
/// live() is the backward cone, every other row is [0, 0], the reused
/// matrix equals a fresh one bit for bit, the scalar backend agrees,
/// and every lane equals a dedicated reverseSweep().
void expectLiveRowsExact(Tape &T, const std::vector<NodeId> &Outs,
                         const char *Label) {
  ASSERT_FALSE(Outs.empty()) << Label;
  const Interval Zero(0.0);
  // The last seed list repeats outputs, so two lanes share a seed node.
  std::vector<std::vector<std::pair<NodeId, Interval>>> Batches;
  for (unsigned Width : {8u, 3u, 16u, 1u, 8u}) {
    for (size_t B = 0; B < Outs.size(); B += Width) {
      const size_t E = std::min(B + Width, Outs.size());
      Batches.emplace_back();
      for (size_t O = B; O != E; ++O)
        Batches.back().emplace_back(Outs[O], Interval(1.0));
    }
  }
  Batches.push_back({{Outs[0], Interval(1.0)},
                     {Outs.back(), Interval(1.0)},
                     {Outs[0], Interval(1.0)}});

  BatchAdjoints Reused, ReusedScalar;
  for (const auto &Seeds : Batches) {
    const std::span<const std::pair<NodeId, Interval>> S(Seeds);
    const unsigned W = static_cast<unsigned>(Seeds.size());
    T.reverseSweepBatch(S, Reused, SweepBackend::Auto);
    T.reverseSweepBatch(S, ReusedScalar, SweepBackend::Scalar);
    BatchAdjoints Fresh;
    T.reverseSweepBatch(S, Fresh, SweepBackend::Auto);

    const std::vector<NodeId> Cone = backwardCone(T, S);
    for (const BatchAdjoints *M : {&Reused, &ReusedScalar, &Fresh}) {
      std::vector<NodeId> Live(M->live().begin(), M->live().end());
      std::sort(Live.begin(), Live.end());
      ASSERT_EQ(Live, Cone) << Label << ": live rows of a width-" << W
                            << " batch seeded at u" << Seeds[0].first;
    }
    for (size_t I = 0; I != T.size(); ++I) {
      const NodeId Id = static_cast<NodeId>(I);
      ASSERT_EQ(Reused.isLive(Id),
                std::binary_search(Cone.begin(), Cone.end(), Id))
          << Label << ": u" << I;
      for (unsigned L = 0; L != W; ++L) {
        const Interval &A = std::as_const(Reused).at(Id, L);
        if (!Reused.isLive(Id)) {
          ASSERT_TRUE(bitEqual(A, Zero))
              << Label << ": non-live row u" << I << " lane " << L;
        }
        ASSERT_TRUE(bitEqual(A, std::as_const(Fresh).at(Id, L)))
            << Label << ": reused vs fresh, u" << I << " lane " << L;
        ASSERT_TRUE(bitEqual(A, std::as_const(ReusedScalar).at(Id, L)))
            << Label << ": Auto vs Scalar, u" << I << " lane " << L;
      }
    }
    for (unsigned L = 0; L != W; ++L) {
      T.clearAdjoints();
      T.seedAdjoint(Seeds[L].first, Seeds[L].second);
      T.reverseSweep();
      for (size_t I = 0; I != T.size(); ++I) {
        const NodeId Id = static_cast<NodeId>(I);
        ASSERT_TRUE(bitEqual(std::as_const(Reused).at(Id, L), T.adjoint(Id)))
            << Label << ": lane " << L << " vs dedicated sweep, u" << I;
      }
    }
  }
}

TEST(SimdSweep, LiveRowsAreExactlyTheSeedConeOnSobelTiles) {
  const Image In = testimages::scene(12, 12, 7919);
  for (int Y0 : {0, 4, 8})
    for (int X0 : {0, 8}) {
      Analysis A;
      apps::recordSobelTile(In, X0, Y0, X0 + 4, Y0 + 4);
      ASSERT_EQ(A.outputNodes().size(), 32u);
      expectLiveRowsExact(A.tape(), A.outputNodes(),
                          ("sobel tile " + std::to_string(X0) + "," +
                           std::to_string(Y0))
                              .c_str());
    }
}

TEST(SimdSweep, LiveRowsAreExactlyTheSeedConeOnRandomTapes) {
  for (uint64_t Seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    Analysis A;
    const std::vector<NodeId> Outs = recordAdversarialTape(A, Seed, 300, 17);
    expectLiveRowsExact(A.tape(), Outs,
                        ("adversarial-" + std::to_string(Seed)).c_str());
  }
}

TEST(SimdSweep, ResizeToANewShapeClearsEveryRow) {
  BatchAdjoints M(4, 2);
  M.at(1, 0) = Interval(1.0, 2.0);
  M.row(3)[1] = Interval(-1.0);
  EXPECT_EQ(M.live().size(), 2u);
  EXPECT_TRUE(M.isLive(1));
  EXPECT_FALSE(M.isLive(2));
  M.resize(4, 2);
  EXPECT_TRUE(M.live().empty());
  EXPECT_TRUE(bitEqual(std::as_const(M).at(1, 0), Interval(0.0)));
  EXPECT_TRUE(bitEqual(std::as_const(M).at(3, 1), Interval(0.0)));
  M.at(2, 1) = Interval(5.0);
  M.resize(2, 4);
  EXPECT_TRUE(M.live().empty());
  for (NodeId Id = 0; Id != 2; ++Id)
    for (unsigned L = 0; L != 4; ++L)
      EXPECT_TRUE(bitEqual(std::as_const(M).at(Id, L), Interval(0.0)));
}

/// A kernel with an unbounded intermediate outside most outputs' cones,
/// and an unbounded dead branch outside every cone: under
/// WidthTimesDerivative their [0, 0] lanes still cost NaN -> cap, so the
/// batched accumulation must visit them even where they are not live.
/// Returns the outputs; \p Dead receives the dead branch's last node.
std::vector<NodeId> recordUnboundedSideBranch(Analysis &A, NodeId &Dead) {
  IAValue X = A.input("x", -1.0, 2.0);
  IAValue C = A.input("c", -1e200, 1e200);
  IAValue U = C * 1e300 * 1e300; // [-inf, inf]
  A.registerIntermediate(U, "u");
  IAValue D = A.input("d", -1e200, 1e200) * 1e300; // [-inf, inf]
  A.registerIntermediate(D, "dead");
  Dead = D.node();
  std::vector<NodeId> Outs;
  for (int O = 0; O != 7; ++O) {
    IAValue Y = O == 2 ? U + X : X * (O + 1.0) + 0.5;
    A.registerOutput(Y, "y" + std::to_string(O));
    Outs.push_back(Y.node());
  }
  return Outs;
}

TEST(SimdSweep, UnboundedNodeOutsideTheConeMatchesBatchWidthOne) {
  for (AnalysisBackend Backend :
       {AnalysisBackend::Significance, AnalysisBackend::FpError}) {
    for (auto Metric : {AnalysisOptions::Metric::WidthTimesDerivative,
                        AnalysisOptions::Metric::Eq11WorstCase}) {
      AnalysisOptions O;
      O.Mode = AnalysisOptions::OutputMode::PerOutput;
      O.Backend = Backend;
      O.SignificanceMetric = Metric;
      O.BatchWidth = 1;
      O.BuildGraph = false;
      Analysis Ref;
      NodeId Dead = -1;
      recordUnboundedSideBranch(Ref, Dead);
      const AnalysisResult R1 = Ref.analyse(O);
      ASSERT_FALSE(Ref.tape().values()[2].isBounded());
      ASSERT_FALSE(Ref.tape().value(Dead).isBounded());
      // The dead node is in no output's cone, so its significance is
      // all NaN -> cap under WidthTimesDerivative and 0 under Eq. 11.
      if (Backend == AnalysisBackend::Significance) {
        EXPECT_EQ(R1.nodeSignificances()[static_cast<size_t>(Dead)],
                  Metric == AnalysisOptions::Metric::WidthTimesDerivative
                      ? O.SignificanceCap
                      : 0.0);
      }
      for (unsigned W : {2u, 3u, 8u}) {
        O.BatchWidth = W;
        Analysis A;
        recordUnboundedSideBranch(A, Dead);
        const AnalysisResult RW = A.analyse(O);
        ASSERT_EQ(RW.nodeSignificances().size(),
                  R1.nodeSignificances().size());
        for (size_t I = 0; I != R1.nodeSignificances().size(); ++I)
          EXPECT_EQ(std::memcmp(&RW.nodeSignificances()[I],
                                &R1.nodeSignificances()[I], sizeof(double)),
                    0)
              << "width " << W << " node u" << I;
        const double TotW = RW.outputSignificance();
        const double Tot1 = R1.outputSignificance();
        EXPECT_EQ(std::memcmp(&TotW, &Tot1, sizeof(double)), 0)
            << "width " << W;
      }
    }
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
