//===- perfbench/selftest.cpp - Tests of the benchmark itself -------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the benchmark's own guarantees:
///  - the same seed gives byte-identical instances, images and `.stap`
///    shard files (and another seed gives different ones);
///  - every oracle accepts the honest result and rejects a tampered one.
/// That the printed metric names match BENCHMARK.json is checked by
/// `run.py --self-test`, which runs this binary first.
///
///   perfbench_selftest <scratch dir>
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/sobel/Sobel.h"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>

using namespace perfbench;
using namespace scorpio;
namespace fs = std::filesystem;

namespace {

unsigned Failures = 0;

void expect(bool Cond, const std::string &What) {
  std::cout << (Cond ? "ok    " : "FAIL  ") << What << "\n";
  if (!Cond)
    ++Failures;
}

std::string slurp(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(IS), {});
}

bool sameImage(const Image &A, const Image &B) {
  if (A.width() != B.width() || A.height() != B.height())
    return false;
  for (int Y = 0; Y != A.height(); ++Y)
    for (int X = 0; X != A.width(); ++X)
      if (A.at(X, Y) != B.at(X, Y))
        return false;
  return true;
}

void testDeterminism(const std::string &Scratch) {
  const std::vector<KernelInstance> A = makeKernelInstances(7, 4);
  const std::vector<KernelInstance> B = makeKernelInstances(7, 4);
  const std::vector<KernelInstance> C = makeKernelInstances(8, 4);
  expect(encodeInstances(A) == encodeInstances(B),
         "same seed: byte-identical kernel instances");
  expect(encodeInstances(A) != encodeInstances(C),
         "other seed: different kernel instances");
  expect(sameImage(makeImage(7, 32, 32), makeImage(7, 32, 32)),
         "same seed: identical image");
  expect(!sameImage(makeImage(7, 32, 32), makeImage(8, 32, 32)),
         "other seed: different image");

  const std::string DirA = Scratch + "/a", DirB = Scratch + "/b";
  fs::create_directories(DirA);
  fs::create_directories(DirB);
  const ShardFiles FA = writeShards(A, DirA, nullptr);
  const ShardFiles FB = writeShards(B, DirB, nullptr);
  bool Same = FA.Paths.size() == FB.Paths.size() && !FA.Paths.empty();
  for (size_t I = 0; Same && I != FA.Paths.size(); ++I)
    Same = slurp(FA.Paths[I]) == slurp(FB.Paths[I]);
  expect(Same, "same seed: byte-identical .stap shards (" +
                   std::to_string(FA.Paths.size()) + " files)");

  StreamingMergeOptions O;
  O.NumThreads = 3;
  diag::Expected<ParallelAnalysisResult> Merged =
      ParallelAnalysis::mergeStapStreaming(FA.Paths, O);
  const ParallelAnalysisResult InProcess = inProcessResult(A, 3);
  std::string Why;
  expect(Merged && checkSameReport(jsonOf(Merged.value()), jsonOf(InProcess),
                                   Why),
         "report oracle accepts the streaming merge of the shards");
  expect(Merged && checkSameResult(Merged.value(), InProcess, Why),
         "field oracle accepts the streaming merge of the shards");
  expect(!checkSameResult(Merged.value(), inProcessResult(C, 3), Why),
         "field oracle rejects the merge of other instances");
}

void testKernelOracle() {
  const std::vector<KernelInstance> Instances = makeKernelInstances(11, 2);
  bool Honest = true, Tampered = true;
  for (const KernelInstance &I : Instances) {
    Analysis A;
    I.K->Analyse(A, I.Box);
    const AnalysisResult R = A.analyse();
    std::string Why;
    const std::vector<double> Expected = expectedValues(I);
    Honest &= checkKernelResult(R, Expected, Why);
    // A point value just outside the reported output enclosure.
    double Hi = R.outputs().front().Value.upper();
    for (size_t O = 1; O < R.outputs().size(); ++O)
      Hi += R.outputs()[O].Value.upper();
    std::vector<double> Outside = Expected;
    Outside.back() = Hi + 1e-6 * (1.0 + std::fabs(Hi));
    Tampered &= !checkKernelResult(R, Outside, Why);
  }
  expect(Honest, "kernels oracle accepts every honest result");
  expect(Tampered, "kernels oracle rejects a value outside the enclosure");
}

void testReportOracles() {
  const Image Img = makeImage(3, 16, 16);
  const ParallelAnalysisResult RefOne =
      apps::analyseSobelTiles(Img, 8, 8.0, 1).Result;
  const ParallelAnalysisResult RefThree =
      apps::analyseSobelTiles(Img, 8, 8.0, 3).Result;
  const std::string One = jsonOf(RefOne), Three = jsonOf(RefThree);
  std::string Why;
  expect(checkSameReport(Three, One, Why),
         "report oracle accepts the 3-worker sobel report");
  expect(checkSameResult(RefThree, RefOne, Why),
         "field oracle accepts the 3-worker sobel result");
  // One pixel changed by one grey level: a different, equally valid run.
  Image Other = Img;
  Other.at(5, 5) = static_cast<uint8_t>(Other.at(5, 5) ^ 1);
  expect(!checkSameResult(apps::analyseSobelTiles(Other, 8, 8.0, 3).Result,
                          RefOne, Why),
         "field oracle rejects the result of a one-pixel-different image");
  std::string Tampered = Three;
  Tampered[Tampered.size() / 2] ^= 1;
  expect(!checkSameReport(Tampered, One, Why),
         "report oracle rejects a one-bit change");
  expect(!checkSameReport(Three.substr(0, Three.size() - 1), One, Why),
         "report oracle rejects a truncated report");
}

void testStatsOracles() {
  const size_t N = 272;
  StreamingMergeStats Cold;
  Cold.ShardsMerged = Cold.CacheMisses = Cold.Analysed = N;
  std::string Why;
  expect(checkColdStats(Cold, N, N, Why), "cold oracle accepts N stores");
  expect(!checkColdStats(Cold, N - 1, N, Why),
         "cold oracle rejects a missing store");
  StreamingMergeStats ColdHit = Cold;
  ColdHit.CacheMisses = N - 1;
  expect(!checkColdStats(ColdHit, N, N, Why),
         "cold oracle rejects a cache hit");

  StreamingMergeStats Warm;
  Warm.ShardsMerged = Warm.CacheHits = N;
  expect(checkWarmStats(Warm, N, Why), "warm oracle accepts all hits");
  StreamingMergeStats WarmMiss = Warm;
  WarmMiss.CacheHits = N - 1;
  WarmMiss.Analysed = 1;
  expect(!checkWarmStats(WarmMiss, N, Why),
         "warm oracle rejects an analysed shard");
  StreamingMergeStats WarmAudit = Warm;
  WarmAudit.CacheAuditRejected = 1;
  expect(!checkWarmStats(WarmAudit, N, Why),
         "warm oracle rejects an audit rejection");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::cerr << "usage: perfbench_selftest <scratch dir>\n";
    return 2;
  }
  const std::string Scratch = std::string(Argv[1]) + "/selftest";
  fs::remove_all(Scratch);
  try {
    testDeterminism(Scratch);
    testKernelOracle();
    testReportOracles();
    testStatsOracles();
  } catch (const std::exception &E) {
    std::cout << "FAIL  exception: " << E.what() << "\n";
    ++Failures;
  }
  fs::remove_all(Scratch);
  std::cout << (Failures ? "selftest: FAILED\n" : "selftest: passed\n");
  return Failures ? 1 : 0;
}
