//===- tests/transport_test.cpp - Cross-process shard transport tests -----===//
//
// The cross-process contract: recording every shard to a `.stap` v2
// file (ParallelAnalysis::saveShards), then reloading each through the
// full trust boundary, re-analysing and merging it
// (ParallelAnalysis::mergeStapStreaming) must produce a merged report
// byte-identical to the in-process run() — on every registry kernel,
// compressed and raw, with and without re-verification — and a failed
// write must surface as an error naming the shard file, never as a
// half-written directory that claims success.
//
//===----------------------------------------------------------------------===//

#include "core/ParallelAnalysis.h"

#include "kernels/KernelRegistry.h"
#include "support/Diag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

using namespace scorpio;

namespace {

class TransportTest : public ::testing::Test {
protected:
  void SetUp() override {
    diag::DiagSink::global().clear();
    diag::setCheckPolicy(diag::CheckPolicy::ReturnStatus);
  }
  void TearDown() override { diag::DiagSink::global().clear(); }
};

/// Registers every registry kernel (sorted) as one shard.
void addRegistryShards(ParallelAnalysis &P) {
  KernelRegistry &Registry = KernelRegistry::global();
  std::vector<std::string> Names = Registry.names();
  std::sort(Names.begin(), Names.end());
  for (const std::string &Name : Names) {
    const KernelDescriptor *K = Registry.find(Name);
    ASSERT_NE(K, nullptr);
    P.addShard(Name, [K] {
      K->Analyse(Analysis::current(), K->DefaultRanges);
    });
  }
}

std::string mergedJson(const ParallelAnalysisResult &R) {
  std::ostringstream OS;
  R.writeJson(OS);
  return OS.str();
}

/// Self-cleaning scratch directory under the gtest temp root.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Name)
      : Path(::testing::TempDir() + "/" + Name) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
};

/// The in-process merged report of \p P.
std::string runJson(ParallelAnalysis &P,
                    ShardVerification Verify = ShardVerification::Off) {
  return mergedJson(P.run({}, /*NumThreads=*/4, Verify));
}

/// \p P's shards written by saveShards into a fresh directory, then
/// merged by mergeStapStreaming: the cross-process pipeline in one
/// process.  The directory is named after the running test, since ctest
/// runs the tests of this binary concurrently.
std::string viaStap(const ParallelAnalysis &P, bool Compress = true,
                    ShardVerification Verify = ShardVerification::Off) {
  TempDir Dir(
      std::string("scorpio_transport_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
  diag::Expected<std::vector<std::string>> Paths =
      P.saveShards(Dir.Path, {}, Compress);
  EXPECT_TRUE(Paths.hasValue()) << Paths.status().message();
  if (!Paths.hasValue())
    return {};
  StreamingMergeOptions Options;
  Options.NumThreads = 4;
  Options.Verify = Verify;
  diag::Expected<ParallelAnalysisResult> R =
      ParallelAnalysis::mergeStapStreaming(Paths.value(), Options);
  EXPECT_TRUE(R.hasValue()) << R.status().message();
  return R.hasValue() ? mergedJson(R.value()) : std::string();
}

TEST_F(TransportTest, StapTransportIsByteIdenticalOnAllRegistryKernels) {
  ParallelAnalysis P;
  addRegistryShards(P);
  const std::string InProcess = runJson(P);
  EXPECT_EQ(InProcess, viaStap(P, /*Compress=*/true));
  EXPECT_EQ(InProcess, viaStap(P, /*Compress=*/false));
}

TEST_F(TransportTest, DirectoryTransportIsByteIdenticalAndLeavesTapes) {
  TempDir Dir("scorpio_transport_dir");
  ParallelAnalysis P;
  addRegistryShards(P);
  diag::Expected<std::vector<std::string>> Paths = P.saveShards(Dir.Path);
  ASSERT_TRUE(Paths.hasValue()) << Paths.status().message();
  // One file per shard, in shard order, under the one shard file name.
  ASSERT_EQ(Paths.value().size(), P.numShards());
  EXPECT_EQ(Paths.value()[0], Dir.Path + "/shard_000000.stap");
  EXPECT_EQ(listStapShards(Dir.Path).valueOr({}), Paths.value());

  // Each file loads through the trust boundary with its META intact —
  // exactly what scorpio_merge consumes.
  for (size_t I = 0; I != Paths.value().size(); ++I) {
    diag::Expected<LoadedTape> Loaded = loadStap(Paths.value()[I]);
    ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
    ASSERT_TRUE(Loaded.value().Meta.has_value());
    EXPECT_TRUE(Loaded.value().Meta->HasOptions);
    EXPECT_EQ(Loaded.value().Meta->ShardIndex, I);
  }
  diag::Expected<ParallelAnalysisResult> R =
      ParallelAnalysis::mergeStapStreaming(Paths.value());
  ASSERT_TRUE(R.hasValue()) << R.status().message();
  EXPECT_EQ(runJson(P), mergedJson(R.value()));
}

TEST_F(TransportTest, TransportPreservesVerificationFindings) {
  ParallelAnalysis P;
  addRegistryShards(P);
  EXPECT_EQ(runJson(P, ShardVerification::Incremental),
            viaStap(P, /*Compress=*/true, ShardVerification::Incremental));
}

TEST_F(TransportTest, UnwritableDirectoryBecomesTransportDivergence) {
  // The transport failure now surfaces where it happens: saveShards
  // refuses with an error naming the shard file it could not write.
  ParallelAnalysis P;
  P.addShard("affine", [] {
    Analysis &A = Analysis::current();
    IAValue X = A.input("x", 1.0, 2.0);
    IAValue Y = X * 3.0;
    A.registerOutput(Y, "y");
  });
  const std::string Dir = ::testing::TempDir() + "/scorpio-no-such-dir-xyzzy";
  diag::Expected<std::vector<std::string>> Paths = P.saveShards(Dir);
  ASSERT_FALSE(Paths.hasValue());
  EXPECT_NE(Paths.status().message().find(Dir + "/shard_000000.stap"),
            std::string::npos)
      << Paths.status().message();
}

TEST_F(TransportTest, AnalyseShardTapeReplaysMetaIdentity) {
  Analysis A;
  IAValue X = A.input("x", 0.5, 1.5);
  IAValue Y = X * X + 2.0;
  A.registerOutput(Y, "y");

  const TapeMeta Meta = makeShardMeta("tile_9", 9, {});
  std::ostringstream OS(std::ios::binary);
  StapWriteOptions WOpts;
  WOpts.Compress = true;
  ASSERT_TRUE(
      writeStap(OS, A.tape(), A.registration(), {}, WOpts, &Meta).isOk());
  std::istringstream IS(OS.str(), std::ios::binary);
  diag::Expected<LoadedTape> Loaded = readStap(IS);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();

  const ShardResult S =
      ParallelAnalysis::analyseShardTape(std::move(Loaded.value()));
  EXPECT_EQ(S.Name, "tile_9");
  EXPECT_EQ(S.Index, 9u);
  ASSERT_TRUE(S.Result.isValid());
  const AnalysisResult Direct = A.analyse();
  EXPECT_EQ(S.Result.outputSignificance(), Direct.outputSignificance());
  EXPECT_EQ(S.Result.find("x")->Significance, Direct.find("x")->Significance);
}

TEST_F(TransportTest, MergeShardsSortsByIndexDeterministically) {
  // Feed shards in scrambled completion order; the merge must emit
  // registration (index) order, exactly like run() does.
  auto Make = [](const std::string &Name, size_t Index, double Slope) {
    Analysis A;
    IAValue X = A.input("x", 1.0, 2.0);
    IAValue Y = X * Slope;
    A.registerOutput(Y, "y");
    ShardResult S;
    S.Name = Name;
    S.Index = Index;
    S.Result = A.analyse();
    return S;
  };
  std::vector<ShardResult> Scrambled;
  Scrambled.push_back(Make("c", 2, 4.0));
  Scrambled.push_back(Make("a", 0, 2.0));
  Scrambled.push_back(Make("b", 1, 3.0));
  const ParallelAnalysisResult R =
      ParallelAnalysis::mergeShards(std::move(Scrambled));
  ASSERT_EQ(R.shards().size(), 3u);
  EXPECT_EQ(R.shards()[0].Name, "a");
  EXPECT_EQ(R.shards()[1].Name, "b");
  EXPECT_EQ(R.shards()[2].Name, "c");
  EXPECT_EQ(R.variables()[0].Name, "a/x");
}

TEST_F(TransportTest, MetaOptionHelpersRoundTrip) {
  AnalysisOptions Options;
  Options.Mode = AnalysisOptions::OutputMode::PerOutput;
  Options.SignificanceMetric =
      AnalysisOptions::Metric::WidthTimesDerivative;
  Options.BatchWidth = 3;
  Options.Simplify = false;
  Options.BuildGraph = false;
  Options.VerifyTape = VerifyLevel::AbsInt;
  Options.Delta = 0.125;
  Options.SignificanceCap = 1e200;

  const TapeMeta Meta = makeShardMeta("m", 4, Options);
  EXPECT_TRUE(shardMetaMatches(Meta, Options));
  EXPECT_FALSE(shardMetaMatches(Meta, AnalysisOptions{}));
  EXPECT_FALSE(shardMetaMatches(TapeMeta{}, Options)); // no options carried

  const AnalysisOptions Back = shardMetaOptions(Meta);
  EXPECT_EQ(Back.Mode, Options.Mode);
  EXPECT_EQ(Back.SignificanceMetric, Options.SignificanceMetric);
  EXPECT_EQ(Back.BatchWidth, Options.BatchWidth);
  EXPECT_EQ(Back.Simplify, Options.Simplify);
  EXPECT_EQ(Back.BuildGraph, Options.BuildGraph);
  EXPECT_EQ(Back.VerifyTape, Options.VerifyTape);
  EXPECT_EQ(Back.Delta, Options.Delta);
  EXPECT_EQ(Back.SignificanceCap, Options.SignificanceCap);
}

TEST_F(TransportTest, NoOutputShardIsValidButEmptyInBothModes) {
  ParallelAnalysis P;
  P.addShard("silent", [] {
    // Records work but never registers an output.
    Analysis &A = Analysis::current();
    IAValue X = A.input("x", 1.0, 2.0);
    IAValue Y = X * X;
    A.registerIntermediate(Y, "unused");
  });
  P.addShard("real", [] {
    Analysis &A = Analysis::current();
    IAValue X = A.input("x", 1.0, 2.0);
    A.registerOutput(X * 2.0, "y");
  });

  const ParallelAnalysisResult InProcess = P.run({}, 1);
  // The empty shard neither invalidates the merge nor fabricates a
  // divergence; the real shard's contribution is intact.
  EXPECT_TRUE(InProcess.isValid())
      << (InProcess.divergences().empty() ? std::string()
                                          : InProcess.divergences()[0]);
  ASSERT_EQ(InProcess.shards().size(), 2u);
  EXPECT_TRUE(InProcess.shards()[0].Result.inputs().empty());
  EXPECT_EQ(InProcess.shards()[0].Result.outputSignificance(), 0.0);
  EXPECT_NE(InProcess.find("real/y"), nullptr);
  EXPECT_GT(InProcess.outputSignificance(), 0.0);
  EXPECT_EQ(mergedJson(InProcess), viaStap(P));
}

TEST_F(TransportTest, DivergedShardStaysDivergedThroughTransport) {
  ParallelAnalysis P;
  P.addShard("branchy", [] {
    Analysis &A = Analysis::current();
    IAValue X = A.input("x", 0.0, 2.0);
    IAValue Y = A.input("y", 1.0, 3.0);
    (void)(X < Y); // ambiguous: diverges
    A.registerOutput(X + Y, "z");
  });
  const ParallelAnalysisResult InProcess = P.run({}, 1);
  EXPECT_FALSE(InProcess.isValid());
  const std::string Transported = viaStap(P);
  EXPECT_NE(Transported.find("\"valid\":false"), std::string::npos)
      << Transported;
  EXPECT_EQ(mergedJson(InProcess), Transported);
}

} // namespace
