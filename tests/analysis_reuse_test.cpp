//===- tests/analysis_reuse_test.cpp - Reset Analysis equals a fresh one --===//
//
// ParallelAnalysis's runners keep one Analysis each and reset() it for
// every shard they claim.  These tests hold that reuse to bit-identity:
// after reset(), an Analysis that has recorded, analysed, adopted or
// diverged before gives exactly the AnalysisResult, labels(),
// registration() and .stap bytes a fresh Analysis gives on the same
// recording.
//
//===----------------------------------------------------------------------===//

#include "apps/sobel/Sobel.h"
#include "core/Analysis.h"
#include "kernels/KernelRegistry.h"
#include "quality/Image.h"
#include "tape/TapeIO.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace scorpio;

namespace {

/// Everything a recording is observed through, captured while the
/// Analysis that produced it is still alive.
struct Snapshot {
  std::string Json;
  std::vector<double> Sig;
  std::map<NodeId, std::string> Labels;
  TapeRegistration Reg;
  std::string Stap;
};

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

Snapshot snapshot(const Analysis &A, const AnalysisResult &R) {
  Snapshot S;
  std::ostringstream Json;
  R.writeJson(Json);
  S.Json = Json.str();
  S.Sig.assign(R.nodeSignificances().begin(), R.nodeSignificances().end());
  S.Labels = A.labels();
  S.Reg = A.registration();
  std::ostringstream Stap(std::ios::binary);
  EXPECT_TRUE(writeStap(Stap, A.tape(), S.Reg, S.Sig).isOk());
  S.Stap = Stap.str();
  return S;
}

/// Bitwise comparison of two snapshots, variable lists included.
void expectSame(const Snapshot &Fresh, const Snapshot &Reused,
                const AnalysisResult &FreshR, const AnalysisResult &ReusedR,
                const std::string &What) {
  EXPECT_EQ(Reused.Json, Fresh.Json) << What;
  ASSERT_EQ(Reused.Sig.size(), Fresh.Sig.size()) << What;
  for (size_t I = 0; I != Fresh.Sig.size(); ++I)
    ASSERT_TRUE(sameBits(Reused.Sig[I], Fresh.Sig[I])) << What << " node " << I;
  EXPECT_TRUE(sameBits(ReusedR.outputSignificance(),
                       FreshR.outputSignificance()))
      << What;
  const std::vector<VariableSignificance> *FL[] = {
      &FreshR.inputs(), &FreshR.intermediates(), &FreshR.outputs()};
  const std::vector<VariableSignificance> *RL[] = {
      &ReusedR.inputs(), &ReusedR.intermediates(), &ReusedR.outputs()};
  for (int L = 0; L != 3; ++L) {
    ASSERT_EQ(RL[L]->size(), FL[L]->size()) << What;
    for (size_t I = 0; I != FL[L]->size(); ++I) {
      const VariableSignificance &F = (*FL[L])[I], &G = (*RL[L])[I];
      EXPECT_EQ(G.Name, F.Name) << What;
      EXPECT_EQ(G.Node, F.Node) << What;
      EXPECT_TRUE(sameBits(G.Value.lower(), F.Value.lower()) &&
                  sameBits(G.Value.upper(), F.Value.upper()) &&
                  sameBits(G.Significance, F.Significance) &&
                  sameBits(G.Normalized, F.Normalized))
          << What << " " << F.Name;
    }
  }
  EXPECT_EQ(Reused.Labels, Fresh.Labels) << What;
  EXPECT_EQ(Reused.Reg.Outputs, Fresh.Reg.Outputs) << What;
  EXPECT_EQ(Reused.Reg.Labels, Fresh.Reg.Labels) << What;
  EXPECT_EQ(Reused.Reg.InputVars, Fresh.Reg.InputVars) << What;
  EXPECT_EQ(Reused.Reg.IntermediateVars, Fresh.Reg.IntermediateVars) << What;
  EXPECT_EQ(Reused.Reg.OutputVars, Fresh.Reg.OutputVars) << What;
  EXPECT_EQ(Reused.Stap, Fresh.Stap) << What;
}

using Recorder = std::function<void(Analysis &)>;

/// Records \p Record into a fresh Analysis and, after reset(), into
/// \p Reused, analyses both with \p Options and compares them.  The
/// fresh Analysis is gone before \p Reused records, so \p Reused is the
/// thread's current Analysis again.
void expectResetMatchesFresh(Analysis &Reused, const Recorder &Record,
                             const AnalysisOptions &Options,
                             const std::string &What) {
  AnalysisResult FreshR;
  Snapshot Fresh;
  {
    Analysis A;
    Record(A);
    FreshR = A.analyse(Options);
    Fresh = snapshot(A, FreshR);
  }
  Reused.reset();
  Record(Reused);
  const AnalysisResult ReusedR = Reused.analyse(Options);
  expectSame(Fresh, snapshot(Reused, ReusedR), FreshR, ReusedR, What);
}

Recorder kernel(const KernelDescriptor &K) {
  return [&K](Analysis &A) { K.Analyse(A, K.DefaultRanges); };
}

AnalysisOptions perOutput(AnalysisBackend B, unsigned W) {
  AnalysisOptions O;
  O.Mode = AnalysisOptions::OutputMode::PerOutput;
  O.Backend = B;
  O.BatchWidth = W;
  return O;
}

TEST(AnalysisReuse, EveryKernelMatchesAFreshAnalysis) {
  const KernelRegistry &Reg = KernelRegistry::global();
  for (AnalysisBackend B :
       {AnalysisBackend::Significance, AnalysisBackend::FpError})
    for (unsigned W : {1u, 3u, 8u}) {
      // One Analysis across every kernel: each reset follows a tape of
      // a different size, some larger and some smaller.
      Analysis Reused;
      for (const std::string &Name : Reg.names())
        expectResetMatchesFresh(
            Reused, kernel(*Reg.find(Name)), perOutput(B, W),
            Name + "/" + std::to_string(static_cast<int>(B)) + "/w" +
                std::to_string(W));
    }
}

TEST(AnalysisReuse, SobelTilesMatchAFreshAnalysis) {
  const Image In = testimages::scene(12, 12, 7919);
  Analysis Reused;
  // The 4x4 tiles of the Sobel golden, then 5x5 tiles whose edge tiles
  // are smaller, then the 4x4 tiles again after every other shape.
  for (int TileSize : {4, 5, 4})
    for (int Y0 = 0; Y0 < 12; Y0 += TileSize)
      for (int X0 = 0; X0 < 12; X0 += TileSize) {
        const int X1 = std::min(X0 + TileSize, 12);
        const int Y1 = std::min(Y0 + TileSize, 12);
        expectResetMatchesFresh(
            Reused,
            [&](Analysis &) { apps::recordSobelTile(In, X0, Y0, X1, Y1); },
            perOutput(AnalysisBackend::Significance, 8),
            "tile " + std::to_string(TileSize) + " at " +
                std::to_string(X0) + "," + std::to_string(Y0));
      }
}

/// A diverging recording: the branch on an interval straddling 0 is
/// ambiguous, so the tape notes a divergence.
void recordDiverging(Analysis &A) {
  IAValue X = A.input("x", -1.0, 1.0);
  const bool Positive = X > 0.0;
  (void)Positive;
  A.registerOutput(X * X + X, "y");
}

TEST(AnalysisReuse, ResetAfterADivergedRecordingForgetsTheDivergence) {
  Analysis Reused;
  recordDiverging(Reused);
  ASSERT_FALSE(Reused.analyse().isValid());
  const KernelDescriptor &K = *KernelRegistry::global().find("dct8");
  expectResetMatchesFresh(Reused, kernel(K), {}, "after divergence");
  EXPECT_TRUE(Reused.tape().divergences().empty());
  // And the other way round: the diverged recording itself, reused.
  expectResetMatchesFresh(Reused, recordDiverging, {}, "diverged");
  EXPECT_FALSE(Reused.analyse().isValid());
}

/// \p K's recording as the .stap bytes a shard file would hold.
std::string stapOf(const KernelDescriptor &K) {
  Analysis A;
  K.Analyse(A, K.DefaultRanges);
  std::ostringstream OS(std::ios::binary);
  EXPECT_TRUE(writeStap(OS, A.tape(), A.registration()).isOk());
  return OS.str();
}

TEST(AnalysisReuse, ResetAfterAdoptMatchesAFreshAnalysis) {
  const KernelRegistry &Reg = KernelRegistry::global();
  const KernelDescriptor &Dct = *Reg.find("dct8");
  const KernelDescriptor &Dot = *Reg.find("dot4");
  const std::string Bytes = stapOf(Dct);

  Analysis Reused;
  Dot.Analyse(Reused, Dot.DefaultRanges);
  (void)Reused.analyse();
  // adopt() is valid on a reset Analysis and gives a fresh one's result.
  Reused.reset();
  diag::Expected<LoadedTape> L = readStap(std::string_view(Bytes));
  ASSERT_TRUE(L.hasValue()) << L.status().message();
  ASSERT_TRUE(Reused.adopt(std::move(L.value().T), std::move(L.value().Reg))
                  .isOk());
  const AnalysisResult ReusedR = Reused.analyse();
  {
    Analysis Fresh;
    diag::Expected<LoadedTape> M = readStap(std::string_view(Bytes));
    ASSERT_TRUE(M.hasValue());
    ASSERT_TRUE(Fresh.adopt(std::move(M.value().T), M.value().Reg).isOk());
    const AnalysisResult FreshR = Fresh.analyse();
    expectSame(snapshot(Fresh, FreshR), snapshot(Reused, ReusedR), FreshR,
               ReusedR, "adopted");
  }
  // Nothing of the adopted tape or its labels survives the next reset.
  expectResetMatchesFresh(Reused, kernel(Dot), {}, "after adopt");
  expectResetMatchesFresh(Reused, kernel(Dct), {}, "after adopt, larger");
}

TEST(AnalysisReuse, AnAdoptedTapeKeepsTheLabelsItWasLoadedWith) {
  const KernelDescriptor &K = *KernelRegistry::global().find("dot4");
  Analysis A;
  K.Analyse(A, K.DefaultRanges);
  TapeRegistration Reg = A.registration();
  ASSERT_FALSE(Reg.Labels.empty());
  // A LABL section that the lists would not derive: renamed, and one
  // node that no list names.
  Reg.Labels.begin()->second = "renamed";
  NodeId Unlisted = 0;
  while (Reg.Labels.count(Unlisted) != 0)
    ++Unlisted;
  ASSERT_LT(static_cast<size_t>(Unlisted), A.tape().size());
  Reg.Labels[Unlisted] = "unlisted";
  std::ostringstream OS(std::ios::binary);
  ASSERT_TRUE(writeStap(OS, A.tape(), Reg).isOk());
  const std::string Bytes = OS.str();

  Analysis B;
  B.reset();
  diag::Expected<LoadedTape> L = readStap(std::string_view(Bytes));
  ASSERT_TRUE(L.hasValue());
  ASSERT_TRUE(B.adopt(std::move(L.value().T), L.value().Reg).isOk());
  EXPECT_EQ(B.labels(), Reg.Labels);
  EXPECT_EQ(B.registration().Labels, Reg.Labels);
  std::ostringstream Again(std::ios::binary);
  ASSERT_TRUE(writeStap(Again, B.tape(), B.registration()).isOk());
  EXPECT_EQ(Again.str(), Bytes);
}

/// Registers one node as an output and as an intermediate under
/// different names, in the order \p OutputFirst picks; an input node is
/// re-registered as an output too.
void recordDoublyNamed(Analysis &A, bool OutputFirst) {
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Y = A.input("y", 3.0, 4.0);
  IAValue Z = X * Y;
  if (OutputFirst) {
    A.registerOutput(Z, "out");
    A.registerIntermediate(Z, "mid");
  } else {
    A.registerIntermediate(Z, "mid");
    A.registerOutput(Z, "out");
  }
  A.registerOutput(X, "x_out");
  A.registerIntermediate(Z + Y, "sum");
}

TEST(AnalysisReuse, TheFirstRegistrationOfANodeNamesIt) {
  Analysis Reused;
  for (bool OutputFirst : {true, false}) {
    const std::string What =
        OutputFirst ? "output first" : "intermediate first";
    expectResetMatchesFresh(
        Reused, [&](Analysis &A) { recordDoublyNamed(A, OutputFirst); },
        perOutput(AnalysisBackend::Significance, 8), What);
    const std::map<NodeId, std::string> Labels = Reused.labels();
    ASSERT_EQ(Labels.size(), 4u) << What;
    EXPECT_EQ(Labels.at(0), "x") << What;
    EXPECT_EQ(Labels.at(1), "y") << What;
    EXPECT_EQ(Labels.at(2), OutputFirst ? "out" : "mid") << What;
    EXPECT_EQ(Labels.at(3), "sum") << What;
    EXPECT_EQ(Reused.registration().Labels, Labels) << What;
  }
}

} // namespace
