//===- apps/sobel/Sobel.h - Sobel edge filter benchmark -------------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Sobel Filter benchmark of Section 4.1.1.  A 3x3 edge detector:
/// Gx/Gy convolutions, magnitude t = sqrt(tx^2 + ty^2), clipped to
/// [0, 255].
///
/// Following the paper's analysis, the convolution is split into three
/// coefficient blocks:
///
///   A — the +-2-weighted taps (E/W for Gx, N/S for Gy),
///   B — the four +-1 corner taps of the row above,
///   C — the four +-1 corner taps of the row below.
///
/// The analysis finds A twice as significant as B or C; the task version
/// tags A tasks with significance 1.0 (always accurate) and B/C with 0.5,
/// approximating them *by dropping* their contribution, exactly as in the
/// paper.  A second task group combines the partial convolutions and
/// always runs accurately.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_APPS_SOBEL_SOBEL_H
#define SCORPIO_APPS_SOBEL_SOBEL_H

#include "core/Analysis.h"
#include "core/ParallelAnalysis.h"
#include "quality/Image.h"
#include "runtime/TaskRuntime.h"

namespace scorpio {
namespace apps {

/// Plain sequential, fully accurate Sobel.  Charges the WorkMeter.
Image sobelReference(const Image &In);

/// Significance-driven task version; \p Ratio is the taskwait knob and
/// \p BandRows the task granularity (rows per band).  Equals
/// sobelReference at Ratio == 1.  A non-positive \p BandRows records a
/// diagnostic and returns the empty image.
Image sobelTasks(rt::TaskRuntime &RT, const Image &In, double Ratio,
                 int BandRows = 32);

/// Loop-perforated baseline (Section 4.2): only a \p Rate fraction of
/// rows is computed, evenly spread; skipped rows replicate the nearest
/// computed row.
Image sobelPerforated(const Image &In, double Rate);

/// Significance of the three convolution blocks for one output pixel.
struct SobelBlockSignificance {
  /// Summed (Gx + Gy contribution) significances per block.
  double A = 0.0, B = 0.0, C = 0.0;
  AnalysisResult Result;
};

/// Runs dco/scorpio on the computation of output pixel (X, Y) with every
/// neighborhood pixel treated as an input in [p - HalfWidth,
/// p + HalfWidth].  Expect A ~ 2 * B and B ~ C.
SobelBlockSignificance analyseSobelBlocks(const Image &In, int X, int Y,
                                          double HalfWidth = 8.0);

/// Records every pixel of the tile [X0, X1) x [Y0, Y1) of \p In into the
/// calling thread's current Analysis as one DynDFG: one input per
/// (clamped) neighborhood grid position in [p - HalfWidth,
/// p + HalfWidth], per-pixel block intermediates Ax/Ay/Bx/Cy_<lx>_<ly>
/// and per-pixel outputs gx/gy_<lx>_<ly> (local tile coordinates).
/// This is one shard of analyseSobelTiles.
void recordSobelTile(const Image &In, int X0, int Y0, int X1, int Y1,
                     double HalfWidth = 8.0);

/// Whole-image block significances from the sharded tile analysis.
struct SobelTileSignificance {
  /// Block significances summed over every analysed pixel of every tile;
  /// the same A ~ 2B ~ 2C ranking as the single-pixel analysis, but
  /// profiled over the full image.
  double A = 0.0, B = 0.0, C = 0.0;
  ParallelAnalysisResult Result;
};

/// Sharded whole-image analysis: the image is cut into TileSize x
/// TileSize tiles and each tile is analysed as one independent
/// ParallelAnalysis shard (its own tape, all tile pixels recorded as one
/// DynDFG with per-pixel gx/gy outputs, PerOutput mode).  Per-pixel
/// block significances match analyseSobelBlocks exactly; the merge is
/// deterministic in tile order for any \p NumThreads.  \p Verify
/// forwards to ParallelAnalysis::run(): each tile's sub-tape is
/// re-verified on its worker and the merged findings land in
/// Result.verification().  A non-positive \p TileSize records a
/// diagnostic and returns an empty result (no shards).
SobelTileSignificance
analyseSobelTiles(const Image &In, int TileSize, double HalfWidth = 8.0,
                  unsigned NumThreads = 0,
                  ShardVerification Verify = ShardVerification::Off);

} // namespace apps
} // namespace scorpio

#endif // SCORPIO_APPS_SOBEL_SOBEL_H
