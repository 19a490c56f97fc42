//===- simd/AlignedAlloc.h - Cache-line-aligned allocation helpers --------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An allocator giving the SoA hot-path arrays (BatchAdjoints rows)
/// cache-line-aligned starts, so vector loads of the leading lanes never
/// straddle a line and the rows tile cleanly.
/// Alignment is an optimization contract, not a correctness one — the
/// SIMD kernels use unaligned loads — but debug builds assert it so a
/// regression is caught at the allocation site, not in a profile.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_SIMD_ALIGNEDALLOC_H
#define SCORPIO_SIMD_ALIGNEDALLOC_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>

namespace scorpio {
namespace simd {

/// One x86/ARM cache line; also a multiple of every vector register
/// size in use.
inline constexpr std::size_t CacheLineBytes = 64;

/// True iff \p P starts on a cache-line boundary.
inline bool isCacheLineAligned(const void *P) {
  return reinterpret_cast<std::uintptr_t>(P) % CacheLineBytes == 0;
}

/// Minimal C++17 allocator handing out cache-line-aligned storage;
/// drop-in for std::vector's default allocator.
template <typename T> struct AlignedAllocator {
  using value_type = T;
  static_assert((CacheLineBytes & (CacheLineBytes - 1)) == 0,
                "alignment must be a power of two");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U> &) noexcept {}

  T *allocate(std::size_t N) {
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t{CacheLineBytes}));
  }
  void deallocate(T *P, std::size_t) noexcept {
    ::operator delete(P, std::align_val_t{CacheLineBytes});
  }

  template <typename U> struct rebind {
    using other = AlignedAllocator<U>;
  };
  friend bool operator==(const AlignedAllocator &,
                         const AlignedAllocator &) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator &,
                         const AlignedAllocator &) {
    return false;
  }
};

} // namespace simd
} // namespace scorpio

#endif // SCORPIO_SIMD_ALIGNEDALLOC_H
