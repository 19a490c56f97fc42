//===- tests/simd_lanes_test.cpp - SIMD lane bit-identity properties ------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
//
// The lane-level half of the SIMD bit-identity contract: every
// DoubleLanes / IntervalLanes operation must match its scalar reference
// bit for bit, at every supported width (1, 2, the native width, and 8),
// over the IEEE edge cases the branch-free reformulations are most
// likely to get wrong — signed zeros, subnormals, infinities, NaN, and
// exact-zero intervals.  tests/simd_sweep_test.cpp covers the composed
// sweep; this file pins the primitives those proofs compose from.
//
//===----------------------------------------------------------------------===//

#include "simd/AlignedAlloc.h"
#include "simd/IntervalLanes.h"
#include "simd/IntervalOps.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace {

using namespace scorpio;

constexpr double Inf = std::numeric_limits<double>::infinity();
constexpr double QNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double Den = std::numeric_limits<double>::denorm_min();
constexpr double Max = std::numeric_limits<double>::max();

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(A)) == 0;
}

bool sameBits(const Interval &A, const Interval &B) {
  const double AB[2] = {A.lower(), A.upper()};
  const double BB[2] = {B.lower(), B.upper()};
  return std::memcmp(AB, BB, sizeof(AB)) == 0;
}

/// The awkward doubles every branch-free reformulation must survive.
std::vector<double> edgeValues() {
  return {0.0,  -0.0, Den,  -Den,  1.0,   -1.0, 1.5,  -2.5,
          Max,  -Max, Inf,  -Inf,  QNaN,  -QNaN, 0.1, -0.1,
          1e300, -1e300, 5e-324, -5e-324, 2.0,  -3.0};
}

/// Deterministic mixed stream: edge values first, then pseudo-random
/// finite doubles across many magnitudes.
std::vector<double> valueStream(size_t N) {
  std::vector<double> V = edgeValues();
  std::mt19937_64 Rng(0x5c0421bull);
  std::uniform_real_distribution<double> Mant(-1.0, 1.0);
  std::uniform_int_distribution<int> Exp(-300, 300);
  while (V.size() < N)
    V.push_back(std::ldexp(Mant(Rng), Exp(Rng)));
  V.resize(N);
  return V;
}

/// Deterministic interval stream including exact zeros, points,
/// zero-width non-zero intervals, and infinite bounds.
std::vector<Interval> intervalStream(size_t N, uint64_t Seed) {
  std::vector<Interval> V = {
      Interval(0.0),         Interval(1.0),
      Interval(-1.0),        Interval(-2.0, 3.0),
      Interval(0.5, 0.5),    Interval(-Inf, 2.0),
      Interval(1.0, Inf),    Interval(-Inf, Inf),
      Interval(Den),         Interval(-Den, Den),
      Interval(-Max, Max),   Interval(1e300, 1e301)};
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Mant(-1.0, 1.0);
  std::uniform_int_distribution<int> Exp(-40, 40);
  std::uniform_int_distribution<int> Kind(0, 9);
  while (V.size() < N) {
    const double A = std::ldexp(Mant(Rng), Exp(Rng));
    switch (Kind(Rng)) {
    case 0:
      V.push_back(Interval(0.0)); // exact zero: the identity special case
      break;
    case 1:
      V.push_back(Interval(A)); // point
      break;
    default: {
      const double B = std::ldexp(Mant(Rng), Exp(Rng));
      V.push_back(Interval(std::min(A, B), std::max(A, B)));
      break;
    }
    }
  }
  V.resize(N);
  return V;
}

template <unsigned W> void checkStepLanes() {
  const std::vector<double> Xs = valueStream(512);
  for (size_t Base = 0; Base + W <= Xs.size(); Base += W) {
    const auto L = simd::DoubleLanes<W>::load(Xs.data() + Base);
    const auto Down = L.stepDown();
    const auto Up = L.stepUp();
    for (unsigned I = 0; I != W; ++I) {
      const double X = Xs[Base + I];
      EXPECT_TRUE(sameBits(Down.lane(I), detail::stepDown(X)))
          << "stepDown W=" << W << " x=" << X;
      EXPECT_TRUE(sameBits(Up.lane(I), detail::stepUp(X)))
          << "stepUp W=" << W << " x=" << X;
    }
  }
}

TEST(SimdLanes, StepDownUpMatchesScalarAtEveryWidth) {
  checkStepLanes<1>();
  checkStepLanes<2>();
  checkStepLanes<4>();
  checkStepLanes<8>();
  if (simd::NativeLanes != 1 && simd::NativeLanes != 2 &&
      simd::NativeLanes != 4 && simd::NativeLanes != 8)
    FAIL() << "untested native width " << simd::NativeLanes;
}

template <unsigned W> void checkMinMaxLanes() {
  const std::vector<double> Xs = valueStream(256);
  for (size_t A = 0; A + W <= Xs.size(); A += W) {
    for (size_t B = 0; B + W <= Xs.size(); B += 3 * W) {
      const auto LA = simd::DoubleLanes<W>::load(Xs.data() + A);
      const auto LB = simd::DoubleLanes<W>::load(Xs.data() + B);
      const auto Mn = simd::DoubleLanes<W>::minStd(LA, LB);
      const auto Mx = simd::DoubleLanes<W>::maxStd(LA, LB);
      for (unsigned I = 0; I != W; ++I) {
        const double X = Xs[A + I], Y = Xs[B + I];
        // std::min/max by value: (b < a) ? b : a and (a < b) ? b : a.
        EXPECT_TRUE(sameBits(Mn.lane(I), Y < X ? Y : X))
            << "minStd W=" << W << " " << X << " " << Y;
        EXPECT_TRUE(sameBits(Mx.lane(I), X < Y ? Y : X))
            << "maxStd W=" << W << " " << X << " " << Y;
      }
    }
  }
}

TEST(SimdLanes, MinMaxStdSemantics) {
  checkMinMaxLanes<1>();
  checkMinMaxLanes<2>();
  checkMinMaxLanes<4>();
  checkMinMaxLanes<8>();
}

template <unsigned W> void checkMulBoundLanes() {
  const std::vector<double> Xs = valueStream(256);
  for (size_t A = 0; A + W <= Xs.size(); A += W) {
    for (size_t B = 0; B + W <= Xs.size(); B += 5 * W) {
      const auto LA = simd::DoubleLanes<W>::load(Xs.data() + A);
      const auto LB = simd::DoubleLanes<W>::load(Xs.data() + B);
      const auto P = simd::mulBoundLanes(LA, LB);
      for (unsigned I = 0; I != W; ++I)
        EXPECT_TRUE(
            sameBits(P.lane(I), detail::mulBound(Xs[A + I], Xs[B + I])))
            << "mulBound W=" << W << " " << Xs[A + I] << " " << Xs[B + I];
    }
  }
}

TEST(SimdLanes, MulBoundZeroTimesInfinityConvention) {
  checkMulBoundLanes<1>();
  checkMulBoundLanes<2>();
  checkMulBoundLanes<4>();
  checkMulBoundLanes<8>();
}

template <unsigned W> void checkLoadStoreRoundTrip() {
  const std::vector<Interval> In = intervalStream(8 * W, 0xfeedu);
  std::vector<Interval> Out(In.size(), Interval(0.0));
  for (size_t Base = 0; Base + W <= In.size(); Base += W)
    simd::storeIntervals<W>(Out.data() + Base,
                            simd::loadIntervals<W>(In.data() + Base));
  for (size_t I = 0; I != In.size(); ++I)
    EXPECT_TRUE(sameBits(In[I], Out[I])) << "round-trip W=" << W << " " << I;
}

TEST(SimdLanes, LoadStoreRoundTripPreservesArrayOrder) {
  // Backends may permute array slots across lanes (the AVX2 unpack
  // order is 0,2,1,3); the contract is only that slot i round-trips to
  // slot i.
  checkLoadStoreRoundTrip<1>();
  checkLoadStoreRoundTrip<2>();
  checkLoadStoreRoundTrip<4>();
  checkLoadStoreRoundTrip<8>();
}

template <unsigned W> void checkIntervalOps() {
  const std::vector<Interval> As = intervalStream(512, 1);
  const std::vector<Interval> Bs = intervalStream(512, 2);
  std::vector<Interval> Out(W, Interval(0.0));
  for (size_t Base = 0; Base + W <= As.size(); Base += W) {
    const auto LA = simd::loadIntervals<W>(As.data() + Base);
    const auto LB = simd::loadIntervals<W>(Bs.data() + Base);

    simd::storeIntervals<W>(Out.data(), simd::addIA(LA, LB));
    for (unsigned I = 0; I != W; ++I)
      EXPECT_TRUE(sameBits(Out[I], As[Base + I] + Bs[Base + I]))
          << "addIA W=" << W << " " << Base + I;

    simd::storeIntervals<W>(Out.data(), simd::mulIA(LA, LB));
    for (unsigned I = 0; I != W; ++I)
      EXPECT_TRUE(sameBits(Out[I], As[Base + I] * Bs[Base + I]))
          << "mulIA W=" << W << " " << Base + I;

    simd::storeIntervals<W>(Out.data(), simd::hullIA(LA, LB));
    for (unsigned I = 0; I != W; ++I)
      EXPECT_TRUE(sameBits(Out[I], hull(As[Base + I], Bs[Base + I])))
          << "hullIA W=" << W << " " << Base + I;

    simd::storeIntervals<W>(Out.data(), simd::outward1(LA));
    for (unsigned I = 0; I != W; ++I)
      EXPECT_TRUE(sameBits(Out[I],
                           detail::outward(As[Base + I].lower(),
                                           As[Base + I].upper(), 1)))
          << "outward1 W=" << W << " " << Base + I;
  }
}

TEST(SimdLanes, IntervalOpsMatchScalarOperators) {
  checkIntervalOps<1>();
  checkIntervalOps<2>();
  checkIntervalOps<4>();
  checkIntervalOps<8>();
}

template <unsigned W> void checkMulPoint() {
  const std::vector<Interval> As = intervalStream(512, 3);
  const std::vector<double> Ps = {0.5,  -0.5, 1.0,   -1.0,  2.0,
                                  -3.0, 1e20, -1e20, 1e-20, -5e-324};
  std::vector<Interval> Out(W, Interval(0.0));
  for (double Pv : Ps) {
    const auto PL = simd::DoubleLanes<W>::broadcast(Pv);
    for (size_t Base = 0; Base + W <= As.size(); Base += W) {
      const auto LA = simd::loadIntervals<W>(As.data() + Base);
      if (Pv > 0.0)
        simd::storeIntervals<W>(Out.data(), simd::mulPoint<true>(PL, LA));
      else
        simd::storeIntervals<W>(Out.data(), simd::mulPoint<false>(PL, LA));
      for (unsigned I = 0; I != W; ++I) {
        const Interval &A = As[Base + I];
        // The sweep's contract: for nonzero adjoint lanes, mulPoint ==
        // operator* with a point factor.  Zero lanes are the caller's
        // responsibility (the sweep selects them to [0, 0]).
        if (A == Interval(0.0))
          continue;
        EXPECT_TRUE(sameBits(Out[I], Interval(Pv) * A))
            << "mulPoint W=" << W << " Pv=" << Pv << " " << Base + I;
      }
    }
  }
}

TEST(SimdLanes, MulPointMatchesGeneralProductOnNonzeroLanes) {
  checkMulPoint<1>();
  checkMulPoint<2>();
  checkMulPoint<4>();
  checkMulPoint<8>();
}

TEST(SimdLanes, RunKernelsMatchScalarLoopsAtAwkwardLengths) {
  // Lengths straddling every vector-body/scalar-tail split, including
  // 0 and lengths below the native width.
  for (size_t N : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5},
                   size_t{8}, size_t{13}, size_t{64}, size_t{129}}) {
    const std::vector<Interval> A = intervalStream(N ? N : 1, 7);
    const std::vector<Interval> B = intervalStream(N ? N : 1, 8);
    std::vector<Interval> Simd(N ? N : 1, Interval(0.0));
    std::vector<Interval> Ref(N ? N : 1, Interval(0.0));

    simd::addRun(A.data(), B.data(), Simd.data(), N);
    for (size_t I = 0; I != N; ++I)
      Ref[I] = A[I] + B[I];
    for (size_t I = 0; I != N; ++I)
      EXPECT_TRUE(sameBits(Simd[I], Ref[I])) << "addRun N=" << N << " " << I;

    simd::mulRun(A.data(), B.data(), Simd.data(), N);
    for (size_t I = 0; I != N; ++I)
      Ref[I] = A[I] * B[I];
    for (size_t I = 0; I != N; ++I)
      EXPECT_TRUE(sameBits(Simd[I], Ref[I])) << "mulRun N=" << N << " " << I;

    simd::hullRun(A.data(), B.data(), Simd.data(), N);
    for (size_t I = 0; I != N; ++I)
      Ref[I] = hull(A[I], B[I]);
    for (size_t I = 0; I != N; ++I)
      EXPECT_TRUE(sameBits(Simd[I], Ref[I])) << "hullRun N=" << N << " " << I;

    simd::zeroFillRun(Simd.data(), N);
    for (size_t I = 0; I != N; ++I)
      EXPECT_TRUE(sameBits(Simd[I], Interval(0.0)))
          << "zeroFillRun N=" << N << " " << I;
  }
}

TEST(SimdLanes, AlignedAllocationIsCacheLineAligned) {
  std::vector<Interval, simd::AlignedAllocator<Interval>> V(17,
                                                            Interval(0.0));
  EXPECT_TRUE(simd::isCacheLineAligned(V.data()));
}

} // namespace
