//===- tests/peroutput_golden_test.cpp - PerOutput report goldens ---------===//
//
// Byte-exact goldens of the PerOutput significance path: the sharded
// Sobel-tile report (ParallelAnalysis::run over 4x4 tiles, the batched
// sweep's main customer) and the dct8 registry kernel's PerOutput
// report under both error-analysis backends.  A third golden pins every
// per-node significance bit of the same analyses (and of dct8 at other
// batch widths and under the WidthTimesDerivative metric, and of every
// registry kernel in PerOutput mode) as one FNV-1a digest per analysis,
// so a change that moves a node no report prints still shows.
// Regenerate with SCORPIO_UPDATE_GOLDENS=1 in the environment — only for
// an intended change of the reports.
//
//===----------------------------------------------------------------------===//

#include "apps/sobel/Sobel.h"
#include "core/Analysis.h"
#include "kernels/KernelRegistry.h"
#include "quality/Image.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <span>
#include <sstream>
#include <string>

using namespace scorpio;

#ifndef SCORPIO_GOLDEN_DIR
#error "SCORPIO_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

std::string goldenPath(const std::string &Name) {
  return std::string(SCORPIO_GOLDEN_DIR) + "/" + Name;
}

std::string readFile(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  EXPECT_TRUE(IS.good()) << "cannot open " << Path;
  std::ostringstream OS;
  OS << IS.rdbuf();
  return OS.str();
}

/// Compares \p Actual against the golden file, or rewrites the golden
/// when SCORPIO_UPDATE_GOLDENS is set.
void expectGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = goldenPath(Name);
  if (std::getenv("SCORPIO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream OS(Path, std::ios::binary);
    ASSERT_TRUE(OS.good()) << "cannot write " << Path;
    OS << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  EXPECT_EQ(Actual, readFile(Path)) << "golden mismatch for " << Name
                                    << " (set SCORPIO_UPDATE_GOLDENS=1 to "
                                       "regenerate)";
}

/// FNV-1a over the bit patterns of \p Sig.
uint64_t digest(std::span<const double> Sig) {
  uint64_t H = 1469598103934665603ull;
  for (double D : Sig) {
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    for (int B = 0; B != 8; ++B) {
      H ^= (Bits >> (8 * B)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  return H;
}

void appendDigest(std::ostringstream &OS, const std::string &Label,
                  const AnalysisResult &R) {
  OS << Label << ' ' << R.nodeSignificances().size() << ' ' << std::hex
     << std::setw(16) << std::setfill('0') << digest(R.nodeSignificances())
     << std::dec << '\n';
}

/// The small seeded Sobel image every Sobel golden analyses: 12x12, so
/// nine 4x4 tiles of 32 outputs each (four width-8 batches per tile).
apps::SobelTileSignificance sobelTiles(unsigned NumThreads) {
  return apps::analyseSobelTiles(testimages::scene(12, 12, 7919), 4, 8.0,
                                 NumThreads);
}

AnalysisResult perOutput(const std::string &Kernel, AnalysisBackend Backend,
                         unsigned BatchWidth = 8,
                         AnalysisOptions::Metric M =
                             AnalysisOptions::Metric::Eq11WorstCase) {
  AnalysisOptions O;
  O.Mode = AnalysisOptions::OutputMode::PerOutput;
  O.Backend = Backend;
  O.BatchWidth = BatchWidth;
  O.SignificanceMetric = M;
  return KernelRegistry::global().analyse(Kernel, {}, O);
}

AnalysisResult dct8(AnalysisBackend Backend, unsigned BatchWidth = 8,
                    AnalysisOptions::Metric M =
                        AnalysisOptions::Metric::Eq11WorstCase) {
  return perOutput("dct8", Backend, BatchWidth, M);
}

const char *tag(AnalysisBackend B) {
  return B == AnalysisBackend::Significance ? "significance" : "fperr";
}

std::string json(const AnalysisResult &R) {
  std::ostringstream OS;
  R.writeJson(OS);
  return OS.str();
}

TEST(PerOutputGolden, SobelTilesReportMatchesGolden) {
  const apps::SobelTileSignificance S = sobelTiles(1);
  ASSERT_EQ(S.Result.shards().size(), 9u);
  std::ostringstream OS;
  S.Result.writeJson(OS);
  expectGolden("peroutput_sobel_tiles.json", OS.str());
}

TEST(PerOutputGolden, Dct8SignificanceReportMatchesGolden) {
  expectGolden("peroutput_dct8_significance.json",
               json(dct8(AnalysisBackend::Significance)));
}

TEST(PerOutputGolden, Dct8FpErrorReportMatchesGolden) {
  expectGolden("peroutput_dct8_fperr.json",
               json(dct8(AnalysisBackend::FpError)));
}

TEST(PerOutputGolden, PerNodeSignificancesMatchGolden) {
  std::ostringstream OS;
  const apps::SobelTileSignificance S = sobelTiles(3);
  for (const ShardResult &Shard : S.Result.shards())
    appendDigest(OS, "sobel/" + Shard.Name, Shard.Result);
  for (AnalysisBackend B :
       {AnalysisBackend::Significance, AnalysisBackend::FpError}) {
    for (unsigned W : {1u, 3u, 8u, 16u})
      appendDigest(OS, std::string("dct8/") + tag(B) + "/w" +
                           std::to_string(W),
                   dct8(B, W));
  }
  for (unsigned W : {1u, 3u, 8u})
    appendDigest(OS, "dct8/width-times-derivative/w" + std::to_string(W),
                 dct8(AnalysisBackend::Significance, W,
                      AnalysisOptions::Metric::WidthTimesDerivative));
  // dct8's outputs and intermediates are centred on 0, where the FP
  // error model is 0, so every registry kernel is pinned too.
  for (const std::string &Name : KernelRegistry::global().names())
    for (AnalysisBackend B :
         {AnalysisBackend::Significance, AnalysisBackend::FpError})
      for (unsigned W : {3u, 8u})
        appendDigest(OS, Name + "/" + tag(B) + "/w" + std::to_string(W),
                     perOutput(Name, B, W));
  expectGolden("peroutput_node_digests.txt", OS.str());
}

} // namespace
