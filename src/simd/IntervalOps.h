//===- simd/IntervalOps.h - Interval kernels over contiguous runs ---------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward-value interval kernels over contiguous Interval runs (the
/// shape the tape's adjoint array and BatchAdjoints rows have): a
/// NativeLanes-wide vector body plus a scalar tail calling the exact
/// scalar operator, so every element's result is bit-identical to a
/// plain scalar loop regardless of how the run length divides the lane
/// width.  With SCORPIO_SIMD_DISABLED the vector body compiles away
/// and only the scalar loop remains.
///
/// Input and output runs may alias only exactly (Out == A or Out == B);
/// partial overlap is undefined, as with std::transform.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_SIMD_INTERVALOPS_H
#define SCORPIO_SIMD_INTERVALOPS_H

#include "simd/IntervalLanes.h"

#include <cstddef>

namespace scorpio {
namespace simd {

/// Out[i] = A[i] + B[i] (scorpio::operator+, outward-rounded).
inline void addRun(const Interval *A, const Interval *B, Interval *Out,
                   std::size_t N) {
  std::size_t I = 0;
  if constexpr (NativeLanes > 1) {
    constexpr unsigned W = NativeLanes;
    for (; I + W <= N; I += W)
      storeIntervals<W>(Out + I, addIA(loadIntervals<W>(A + I),
                                       loadIntervals<W>(B + I)));
  }
  for (; I != N; ++I)
    Out[I] = A[I] + B[I];
}

/// Out[i] = A[i] * B[i] (scorpio::operator*, outward-rounded).
inline void mulRun(const Interval *A, const Interval *B, Interval *Out,
                   std::size_t N) {
  std::size_t I = 0;
  if constexpr (NativeLanes > 1) {
    constexpr unsigned W = NativeLanes;
    for (; I + W <= N; I += W)
      storeIntervals<W>(Out + I, mulIA(loadIntervals<W>(A + I),
                                       loadIntervals<W>(B + I)));
  }
  for (; I != N; ++I)
    Out[I] = A[I] * B[I];
}

/// Out[i] = hull(A[i], B[i]).
inline void hullRun(const Interval *A, const Interval *B, Interval *Out,
                    std::size_t N) {
  std::size_t I = 0;
  if constexpr (NativeLanes > 1) {
    constexpr unsigned W = NativeLanes;
    for (; I + W <= N; I += W)
      storeIntervals<W>(Out + I, hullIA(loadIntervals<W>(A + I),
                                        loadIntervals<W>(B + I)));
  }
  for (; I != N; ++I)
    Out[I] = hull(A[I], B[I]);
}

/// Out[i] = A[i] widened outward by one ulp per side — the directed-
/// rounding primitive every interval operation ends with.
inline void outwardRun(const Interval *A, Interval *Out, std::size_t N) {
  std::size_t I = 0;
  if constexpr (NativeLanes > 1) {
    constexpr unsigned W = NativeLanes;
    for (; I + W <= N; I += W)
      storeIntervals<W>(Out + I, outward1(loadIntervals<W>(A + I)));
  }
  for (; I != N; ++I)
    Out[I] = scorpio::detail::outward(A[I].lower(), A[I].upper(), 1);
}

/// Out[i] = [0, 0] — the adjoint-clearing kernel.
inline void zeroFillRun(Interval *Out, std::size_t N) {
  std::size_t I = 0;
  if constexpr (NativeLanes > 1) {
    constexpr unsigned W = NativeLanes;
    const IntervalLanes<W> Z = IntervalLanes<W>::zero();
    for (; I + W <= N; I += W)
      storeIntervals<W>(Out + I, Z);
  }
  const Interval Zero(0.0);
  for (; I != N; ++I)
    Out[I] = Zero;
}

} // namespace simd
} // namespace scorpio

#endif // SCORPIO_SIMD_INTERVALOPS_H
