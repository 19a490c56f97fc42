//===- tests/parallel_analysis_test.cpp - Sharded analysis tests ----------===//

#include "core/ParallelAnalysis.h"

#include "apps/blackscholes/BlackScholes.h"
#include "apps/sobel/Sobel.h"
#include "core/Macros.h"
#include "quality/Image.h"
#include "support/Diag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

using namespace scorpio;

namespace {

/// Records y = a * x + b with distinct per-shard coefficients.
void recordAffine(double Slope, double Offset) {
  Analysis &A = Analysis::current();
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Y = X * Slope + Offset;
  A.registerOutput(Y, "y");
}

TEST(ParallelAnalysis, ZeroShardsIsValidAndEmpty) {
  ParallelAnalysis P;
  EXPECT_EQ(P.numShards(), 0u);
  const ParallelAnalysisResult R = P.run();
  EXPECT_TRUE(R.isValid());
  EXPECT_TRUE(R.shards().empty());
  EXPECT_TRUE(R.variables().empty());
  EXPECT_EQ(R.outputSignificance(), 0.0);
}

TEST(ParallelAnalysis, ShardsKeepRegistrationOrder) {
  ParallelAnalysis P;
  for (int I = 0; I != 8; ++I)
    P.addShard("shard" + std::to_string(I),
               [I] { recordAffine(1.0 + I, 0.5 * I); });
  const ParallelAnalysisResult R = P.run({}, /*NumThreads=*/3);
  ASSERT_EQ(R.shards().size(), 8u);
  for (size_t I = 0; I != 8; ++I) {
    EXPECT_EQ(R.shards()[I].Index, I);
    EXPECT_EQ(R.shards()[I].Name, "shard" + std::to_string(I));
  }
  // Variables concatenate in shard order with "<shard>/" prefixes.
  ASSERT_EQ(R.variables().size(), 16u); // x and y per shard
  EXPECT_EQ(R.variables()[0].Name, "shard0/x");
  EXPECT_EQ(R.variables()[1].Name, "shard0/y");
  EXPECT_EQ(R.variables()[14].Name, "shard7/x");
  EXPECT_NE(R.find("shard3/x"), nullptr);
  EXPECT_EQ(R.find("shard9/x"), nullptr);
}

TEST(ParallelAnalysis, ShardMatchesSequentialAnalysisExactly) {
  ParallelAnalysis P;
  P.addShard("affine", [] { recordAffine(3.0, 1.0); });
  const ParallelAnalysisResult R = P.run();

  Analysis A;
  recordAffine(3.0, 1.0);
  const AnalysisResult Seq = A.analyse();

  ASSERT_EQ(R.shards().size(), 1u);
  const AnalysisResult &Sharded = R.shards()[0].Result;
  ASSERT_NE(Seq.find("x"), nullptr);
  EXPECT_EQ(Sharded.find("x")->Significance, Seq.find("x")->Significance);
  EXPECT_EQ(Sharded.outputSignificance(), Seq.outputSignificance());
  EXPECT_EQ(R.outputSignificance(), Seq.outputSignificance());
}

TEST(ParallelAnalysis, MergedJsonByteIdenticalAcrossThreadCounts) {
  auto RunWith = [](unsigned NumThreads) {
    ParallelAnalysis P;
    for (int I = 0; I != 7; ++I)
      P.addShard("s" + std::to_string(I),
                 [I] { recordAffine(2.0 + I, -1.0 * I); });
    const ParallelAnalysisResult R = P.run({}, NumThreads);
    std::ostringstream OS;
    R.writeJson(OS);
    return OS.str();
  };
  const std::string OneThread = RunWith(1);
  EXPECT_EQ(RunWith(2), OneThread);
  EXPECT_EQ(RunWith(5), OneThread);
  EXPECT_FALSE(OneThread.empty());
}

TEST(ParallelAnalysis, DivergentShardInvalidatesMergeAndNamesShard) {
  ParallelAnalysis P;
  P.addShard("clean", [] { recordAffine(1.0, 0.0); });
  P.addShard("branchy", [] {
    Analysis &A = Analysis::current();
    IAValue X = A.input("x", 0.0, 2.0);
    IAValue Y = A.input("y", 1.0, 3.0);
    (void)(X < Y); // ambiguous: diverges
    IAValue Z = X + Y;
    A.registerOutput(Z, "z");
  });
  const ParallelAnalysisResult R = P.run({}, /*NumThreads=*/2);
  EXPECT_FALSE(R.isValid());
  ASSERT_EQ(R.divergences().size(), 1u);
  EXPECT_EQ(R.divergences()[0].find("branchy: "), 0u);
  // The clean shard alone is valid; the diverged one is not.
  EXPECT_TRUE(R.shards()[0].Result.isValid());
  EXPECT_FALSE(R.shards()[1].Result.isValid());
}

TEST(ParallelAnalysis, NoOutputShardYieldsValidEmptyResultAndDiagnostic) {
  diag::DiagSink::global().clear();
  ParallelAnalysis P;
  P.addShard("silent", [] {
    // Records work but never registers an output.  Analysis::analyse
    // would reject this tape; the shard driver must instead produce a
    // valid-but-empty result so one forgotten registerOutput cannot
    // poison a thousand-shard merge.
    Analysis &A = Analysis::current();
    IAValue X = A.input("x", 1.0, 2.0);
    A.registerIntermediate(X * X, "unused");
  });
  P.addShard("real", [] { recordAffine(2.0, 0.0); });
  const ParallelAnalysisResult R = P.run({}, /*NumThreads=*/1);
  EXPECT_TRUE(R.isValid());
  ASSERT_EQ(R.shards().size(), 2u);
  EXPECT_TRUE(R.shards()[0].Result.isValid());
  EXPECT_TRUE(R.shards()[0].Result.inputs().empty());
  EXPECT_EQ(R.shards()[0].Result.outputSignificance(), 0.0);
  EXPECT_NE(R.find("real/x"), nullptr);
  EXPECT_GT(R.outputSignificance(), 0.0);
  // The condition is still reported through the structured sink so the
  // omission is visible, just not fatal.
  EXPECT_GE(diag::DiagSink::global().countOf(diag::ErrC::EmptyInput), 1u);
  diag::DiagSink::global().clear();
}

TEST(ParallelAnalysis, EmptyShardNameStillPrefixesVariables) {
  ParallelAnalysis P;
  P.addShard("", [] { recordAffine(2.0, 1.0); });
  const ParallelAnalysisResult R = P.run();
  EXPECT_TRUE(R.isValid());
  // An empty name degrades to a bare "/" prefix: stable, findable, and
  // never colliding with an unprefixed sequential report.
  EXPECT_NE(R.find("/x"), nullptr);
  EXPECT_NE(R.find("/y"), nullptr);
  EXPECT_EQ(R.find("x"), nullptr);
  ASSERT_EQ(R.variables().size(), 2u);
  EXPECT_EQ(R.variables()[0].Name, "/x");
}

/// The list mergeShards used to build eagerly: every shard's inputs,
/// intermediates and outputs in shard order, names prefixed
/// "<shard>/".  Source[i] is the shard entry Eager[i] was copied from.
struct EagerVariables {
  std::vector<VariableSignificance> Eager;
  std::vector<const VariableSignificance *> Source;
};

EagerVariables eagerVariables(const ParallelAnalysisResult &R) {
  EagerVariables E;
  for (const ShardResult &S : R.shards())
    for (const auto *List : {&S.Result.inputs(), &S.Result.intermediates(),
                             &S.Result.outputs()})
      for (const VariableSignificance &V : *List) {
        VariableSignificance P = V;
        P.Name = S.Name + "/" + V.Name;
        E.Eager.push_back(std::move(P));
        E.Source.push_back(&V);
      }
  return E;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

void expectVariablesMatchEagerList(const ParallelAnalysisResult &R) {
  const EagerVariables E = eagerVariables(R);
  const std::vector<VariableSignificance> Got = R.variables();
  ASSERT_EQ(Got.size(), E.Eager.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].Name, E.Eager[I].Name) << I;
    EXPECT_EQ(Got[I].Node, E.Eager[I].Node) << I;
    EXPECT_TRUE(sameBits(Got[I].Value.lower(), E.Eager[I].Value.lower()));
    EXPECT_TRUE(sameBits(Got[I].Value.upper(), E.Eager[I].Value.upper()));
    EXPECT_TRUE(sameBits(Got[I].Significance, E.Eager[I].Significance));
    EXPECT_TRUE(sameBits(Got[I].Normalized, E.Eager[I].Normalized));
  }
}

TEST(ParallelAnalysis, VariablesAndFindMatchTheEagerMergedList) {
  ParallelAnalysis P;
  // Shard and variable names that contain '/' make one prefixed name
  // reachable from several shards ("a/b" + "c" and "a" + "b/c"); the
  // first shard in shard order must win, as in a scan of the eager
  // list.  "dup" registers one name in all three lists, and a repeated
  // shard name is shadowed by its first occurrence.
  const auto Record = [](std::vector<std::string> In,
                         std::vector<std::string> Mid,
                         std::vector<std::string> Out) {
    return [In, Mid, Out] {
      Analysis &A = Analysis::current();
      IAValue Acc = A.input("seed", 1.0, 2.0);
      for (const std::string &N : In)
        Acc = Acc * A.input(N, 0.5, 1.5);
      for (const std::string &N : Mid) {
        Acc = Acc + 1.0;
        A.registerIntermediate(Acc, N);
      }
      for (const std::string &N : Out) {
        Acc = Acc * 2.0;
        A.registerOutput(Acc, N);
      }
    };
  };
  P.addShard("a/b", Record({"c"}, {"m"}, {"y"}));
  P.addShard("a", Record({"b/c", "b/m"}, {"//z"}, {"y"}));
  P.addShard("", Record({"x"}, {""}, {"y"}));
  P.addShard("dup", Record({"x"}, {"x"}, {"x"}));
  P.addShard("a/b", Record({"c", "q"}, {}, {"y"}));
  P.addShard("a/", Record({"/z"}, {}, {"y"}));
  const ParallelAnalysisResult R = P.run({}, /*NumThreads=*/2);
  ASSERT_EQ(R.shards().size(), 6u);
  expectVariablesMatchEagerList(R);

  const EagerVariables E = eagerVariables(R);
  std::vector<std::string> Queries = {
      "",      "/",     "a",       "a/",    "a/b",       "a/b/",
      "a/b/c", "a/b/m", "a/b/q",   "a//z",  "a///z",     "/x",
      "/",     "//",    "dup/x",   "dup/",  "dup",       "x",
      "y",     "a/y",   "nosuch/x", "a/b/c/", "seed",    "a/b/seed"};
  for (const VariableSignificance &V : E.Eager)
    Queries.push_back(V.Name);
  for (const std::string &Q : Queries) {
    const auto It = std::find_if(
        E.Eager.begin(), E.Eager.end(),
        [&](const VariableSignificance &V) { return V.Name == Q; });
    const VariableSignificance *Got = R.find(Q);
    if (It == E.Eager.end()) {
      EXPECT_EQ(Got, nullptr) << '"' << Q << '"';
      continue;
    }
    EXPECT_EQ(Got, E.Source[static_cast<size_t>(It - E.Eager.begin())])
        << '"' << Q << '"';
  }
  // The cases above must really shadow: "a/b/c" is reachable from
  // shards 0, 1 and 4, and shard 0's input wins.
  EXPECT_EQ(R.find("a/b/c"), &R.shards()[0].Result.inputs()[1]);
  EXPECT_EQ(R.find("dup/x"), &R.shards()[3].Result.inputs()[1]);
  EXPECT_EQ(R.find("/"), &R.shards()[2].Result.intermediates()[0]);
}

TEST(ParallelAnalysis, SobelTileVariablesMatchTheEagerMergedList) {
  const apps::SobelTileSignificance S =
      apps::analyseSobelTiles(testimages::scene(12, 12, 7919), 4, 8.0, 2);
  ASSERT_EQ(S.Result.shards().size(), 9u);
  expectVariablesMatchEagerList(S.Result);
  const EagerVariables E = eagerVariables(S.Result);
  for (size_t I = 0; I < E.Eager.size(); I += 7)
    EXPECT_EQ(S.Result.find(E.Eager[I].Name), E.Source[I]) << I;
}

TEST(ParallelAnalysis, TapeSizeHintDoesNotChangeResults) {
  auto Run = [](size_t Hint) {
    ParallelAnalysis P;
    P.addShard("affine", [] { recordAffine(4.0, 2.0); }, Hint);
    std::ostringstream OS;
    P.run().writeJson(OS);
    return OS.str();
  };
  EXPECT_EQ(Run(0), Run(100000));
}

TEST(ParallelAnalysis, MacrosWorkInsideShards) {
  // The Table-1 macros route through Analysis::current(), which is
  // thread-local — they must work verbatim inside a shard body.
  ParallelAnalysis P;
  P.addShard("macro", [] {
    IAValue X;
    SCORPIO_INPUT(X, 1.0, 2.0);
    IAValue Y = X * X;
    SCORPIO_OUTPUT(Y);
  });
  const ParallelAnalysisResult R = P.run({}, /*NumThreads=*/2);
  EXPECT_TRUE(R.isValid());
  EXPECT_NE(R.find("macro/X"), nullptr);
  EXPECT_GT(R.outputSignificance(), 0.0);
}

TEST(SobelTiles, BlockSignificancesMatchPerPixelAnalysis) {
  Image In(12, 10);
  for (int Y = 0; Y < In.height(); ++Y)
    for (int X = 0; X < In.width(); ++X)
      In.at(X, Y) = static_cast<uint8_t>((X * 37 + Y * 91 + 13) % 256);

  const apps::SobelTileSignificance Tiles =
      apps::analyseSobelTiles(In, /*TileSize=*/4, /*HalfWidth=*/8.0,
                              /*NumThreads=*/2);
  ASSERT_TRUE(Tiles.Result.isValid());
  ASSERT_EQ(Tiles.Result.shards().size(), 9u); // 3x3 tiles

  // Every pixel's per-block significances must equal the dedicated
  // single-pixel analysis bit for bit: the tile DynDFG contains the same
  // sub-graph, and foreign outputs contribute exactly zero.
  double SumA = 0.0, SumB = 0.0, SumC = 0.0;
  for (const ShardResult &S : Tiles.Result.shards()) {
    int TX = 0, TY = 0;
    ASSERT_EQ(std::sscanf(S.Name.c_str(), "tile_%d_%d", &TX, &TY), 2);
    for (const VariableSignificance &V : S.Result.intermediates()) {
      int LX = 0, LY = 0;
      char Block[3] = {V.Name[0], V.Name[1], 0};
      ASSERT_EQ(std::sscanf(V.Name.c_str() + 2, "_%d_%d", &LX, &LY), 2);
      const int PX = TX * 4 + LX, PY = TY * 4 + LY;
      const apps::SobelBlockSignificance Ref =
          apps::analyseSobelBlocks(In, PX, PY, 8.0);
      const VariableSignificance *RefV = Ref.Result.find(Block);
      ASSERT_NE(RefV, nullptr) << V.Name;
      EXPECT_EQ(V.Significance, RefV->Significance)
          << "pixel (" << PX << ", " << PY << ") block " << Block;
    }
  }
  for (int Y = 0; Y < In.height(); ++Y)
    for (int X = 0; X < In.width(); ++X) {
      const apps::SobelBlockSignificance Ref =
          apps::analyseSobelBlocks(In, X, Y, 8.0);
      SumA += Ref.A;
      SumB += Ref.B;
      SumC += Ref.C;
    }
  // The tile path sums per tile, the reference loop sums row-major: the
  // addends are bitwise equal (checked above) but associate differently.
  EXPECT_NEAR(Tiles.A, SumA, 1e-9 * SumA);
  EXPECT_NEAR(Tiles.B, SumB, 1e-9 * SumB);
  EXPECT_NEAR(Tiles.C, SumC, 1e-9 * SumC);
}

TEST(SobelTiles, DeterministicAcrossThreadCounts) {
  Image In(8, 8);
  for (int Y = 0; Y < 8; ++Y)
    for (int X = 0; X < 8; ++X)
      In.at(X, Y) = static_cast<uint8_t>((X * 53 + Y * 17) % 256);
  auto JsonWith = [&](unsigned NumThreads) {
    std::ostringstream OS;
    apps::analyseSobelTiles(In, 4, 8.0, NumThreads).Result.writeJson(OS);
    return OS.str();
  };
  const std::string One = JsonWith(1);
  EXPECT_EQ(JsonWith(2), One);
  EXPECT_EQ(JsonWith(5), One);
}

TEST(BlackScholesSharded, PerOptionMatchesSequential) {
  const std::vector<apps::Option> Portfolio =
      apps::generatePortfolio(6, 2016);
  const apps::BlackScholesPortfolioSignificance Sharded =
      apps::analyseBlackScholesSharded(Portfolio, 0.15, /*NumThreads=*/3);
  ASSERT_TRUE(Sharded.Result.isValid());
  ASSERT_EQ(Sharded.PerOption.size(), Portfolio.size());
  for (size_t I = 0; I != Portfolio.size(); ++I) {
    const apps::BlackScholesBlockSignificance Seq =
        apps::analyseBlackScholes(Portfolio[I], 0.15);
    EXPECT_EQ(Sharded.PerOption[I].A, Seq.A) << "option " << I;
    EXPECT_EQ(Sharded.PerOption[I].B, Seq.B) << "option " << I;
    EXPECT_EQ(Sharded.PerOption[I].C, Seq.C) << "option " << I;
    EXPECT_EQ(Sharded.PerOption[I].D, Seq.D) << "option " << I;
    // The paper's ranking survives the sharded path.
    EXPECT_GT(Sharded.PerOption[I].A, Sharded.PerOption[I].C);
    EXPECT_GT(Sharded.PerOption[I].B, Sharded.PerOption[I].C);
  }
}

TEST(BlackScholesSharded, JsonDeterministicAcrossThreadCounts) {
  const std::vector<apps::Option> Portfolio =
      apps::generatePortfolio(5, 7);
  auto JsonWith = [&](unsigned NumThreads) {
    std::ostringstream OS;
    apps::analyseBlackScholesSharded(Portfolio, 0.15, NumThreads)
        .Result.writeJson(OS);
    return OS.str();
  };
  const std::string One = JsonWith(1);
  EXPECT_EQ(JsonWith(4), One);
}

//===----------------------------------------------------------------------===//
// Incremental shard re-verification
//===----------------------------------------------------------------------===//

TEST(ShardVerificationMode, OffByDefault) {
  ParallelAnalysis P;
  P.addShard("affine", [] { recordAffine(3.0, 1.0); });
  const ParallelAnalysisResult R = P.run();
  EXPECT_FALSE(R.wasVerified());
  EXPECT_TRUE(R.verification().findings().empty());
  EXPECT_EQ(R.verification().errorCount(), 0u);
}

TEST(ShardVerificationMode, IncrementalAndFullVerifyCleanShards) {
  for (const ShardVerification Mode :
       {ShardVerification::Incremental, ShardVerification::Full}) {
    ParallelAnalysis P;
    for (int I = 0; I != 4; ++I)
      P.addShard("shard" + std::to_string(I),
                 [I] { recordAffine(1.0 + I, 0.5 * I); });
    const ParallelAnalysisResult R = P.run({}, /*NumThreads=*/2, Mode);
    EXPECT_TRUE(R.wasVerified());
    EXPECT_EQ(R.verification().errorCount(), 0u);
    EXPECT_EQ(R.verification().warningCount(), 0u);
    for (const ShardResult &S : R.shards())
      EXPECT_EQ(S.Verification.errorCount(), 0u) << S.Name;
  }
}

TEST(ShardVerificationMode, MergedFindingsCarryShardNamePrefix) {
  // An unread input makes the shard's graph warn (SCORPIO-G005) under
  // Full verification; the merged report must attribute the finding to
  // the shard by name.
  ParallelAnalysis P;
  P.addShard("clean", [] { recordAffine(2.0, 0.0); });
  P.addShard("deadcode", [] {
    Analysis &A = Analysis::current();
    IAValue X = A.input("x", 1.0, 2.0);
    IAValue Unused = A.input("unused", 0.0, 1.0);
    (void)Unused;
    IAValue Y = X * X;
    A.registerOutput(Y, "y");
  });
  const ParallelAnalysisResult R =
      P.run({}, /*NumThreads=*/2, ShardVerification::Full);
  EXPECT_TRUE(R.wasVerified());
  EXPECT_EQ(R.verification().errorCount(), 0u);
  ASSERT_GE(R.verification().warningCount(), 1u);
  bool FoundPrefixed = false;
  for (const verify::Finding &F : R.verification().findings())
    if (F.Message.rfind("deadcode: ", 0) == 0)
      FoundPrefixed = true;
  EXPECT_TRUE(FoundPrefixed) << "finding not attributed to its shard";
  // Per-shard reports stay unprefixed and shard-local.
  EXPECT_EQ(R.shards()[0].Verification.warningCount(), 0u);
  EXPECT_GE(R.shards()[1].Verification.warningCount(), 1u);
}

TEST(ShardVerificationMode, VerifiedRunsStayDeterministic) {
  auto JsonWith = [](unsigned NumThreads) {
    ParallelAnalysis P;
    for (int I = 0; I != 6; ++I)
      P.addShard("shard" + std::to_string(I),
                 [I] { recordAffine(1.0 + I, 0.25 * I); });
    std::ostringstream OS;
    P.run({}, NumThreads, ShardVerification::Incremental).writeJson(OS);
    return OS.str();
  };
  const std::string One = JsonWith(1);
  EXPECT_EQ(JsonWith(3), One);
}

//===--------------------------------------------------------------------===//
// Concurrency knobs and determinism
//===--------------------------------------------------------------------===//

/// Records a chain of \p Steps dependent operations on one input.
void recordChain(size_t Steps, double Slope) {
  Analysis &A = Analysis::current();
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Y = X;
  for (size_t I = 0; I != Steps; ++I)
    Y = Y * 0.5 + X * Slope;
  A.registerOutput(Y, "y");
}

/// The merged JSON of \p P run on \p NumThreads workers.
std::string runJsonOn(ParallelAnalysis &P, unsigned NumThreads) {
  std::ostringstream OS;
  P.run({}, NumThreads).writeJson(OS);
  return OS.str();
}

// (The name predates the removal of the steal-seed knob.)
TEST(ParallelAnalysis, OptionsNumThreadsAndStealSeedDoNotChangeOutput) {
  const auto RunWith = [](unsigned OptThreads) {
    ParallelAnalysis P;
    // Many tiny shards: the claim loop hands them out one at a time
    // under contention, where a scheduling-dependent merge would show.
    for (int I = 0; I != 64; ++I)
      P.addShard("s" + std::to_string(I),
                 [I] { recordAffine(1.0 + I % 7, 0.25 * I); },
                 /*TapeSizeHint=*/8);
    AnalysisOptions Opts;
    Opts.NumThreads = OptThreads;
    std::ostringstream OS;
    P.run(Opts).writeJson(OS);
    return OS.str();
  };
  const std::string Ref = RunWith(1);
  for (const unsigned N : {2u, 3u, 4u, 8u})
    EXPECT_EQ(Ref, RunWith(N)) << "threads=" << N;
}

TEST(ParallelAnalysis, MoreWorkersThanShardsMatchesOneThread) {
  // 2 shards on 8 workers: only two runners start, and each claims at
  // most one shard before the counter runs out.
  ParallelAnalysis P;
  P.addShard("a", [] { recordAffine(2.0, 1.0); });
  P.addShard("b", [] { recordChain(16, 3.0); });
  const std::string Ref = runJsonOn(P, 1);
  ASSERT_FALSE(Ref.empty());
  EXPECT_EQ(Ref, runJsonOn(P, 8));
}

TEST(ParallelAnalysis, OversizedShardAmongTinyOnesMatchesOneThread) {
  // One shard 100x the size of its 63 neighbours: the runner that
  // claims it is busy while the others drain the tiny shards behind it.
  ParallelAnalysis P;
  for (size_t I = 0; I != 64; ++I) {
    const size_t Steps = I == 20 ? 800 : 8;
    P.addShard("s" + std::to_string(I),
               [I, Steps] { recordChain(Steps, 1.0 + I % 5); },
               /*TapeSizeHint=*/4 * Steps);
  }
  const std::string Ref = runJsonOn(P, 1);
  for (const unsigned N : {2u, 4u, 8u})
    EXPECT_EQ(Ref, runJsonOn(P, N)) << "threads=" << N;
}

//===--------------------------------------------------------------------===//
// Shard pipeline faults: saveShards -> .stap -> mergeStapStreaming
//===--------------------------------------------------------------------===//

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

std::string jsonOf(const ParallelAnalysisResult &R) {
  std::ostringstream OS;
  R.writeJson(OS);
  return OS.str();
}

TEST(ShardPipelineFault, FailedSerializeFailsSaveShardsNamingTheShard) {
  // saveShards records and writes serially on the calling thread, so
  // the armed writeStap fault deterministically hits shard 0, and the
  // error names the file it could not write.
  ParallelAnalysis P;
  for (int I = 0; I != 4; ++I)
    P.addShard("s" + std::to_string(I),
               [I] { recordAffine(2.0, 1.0 * I); });
  TempDir Dir("scorpio_pipeline_fault_write");
  diag::DiagTestHook::arm("writeStap: output stream write failed", 1);
  diag::Expected<std::vector<std::string>> Failed = P.saveShards(Dir.Path);
  diag::DiagTestHook::disarm();
  ASSERT_FALSE(Failed.hasValue());
  EXPECT_NE(Failed.status().message().find(Dir.Path + "/shard_000000.stap"),
            std::string::npos)
      << Failed.status().message();

  // With the fault gone the same driver writes every shard, and the
  // streaming merge over them reproduces the in-process run.
  diag::Expected<std::vector<std::string>> Paths = P.saveShards(Dir.Path);
  ASSERT_TRUE(Paths.hasValue()) << Paths.status().message();
  ASSERT_EQ(Paths.value().size(), 4u);
  diag::Expected<ParallelAnalysisResult> Merged =
      ParallelAnalysis::mergeStapStreaming(Paths.value());
  ASSERT_TRUE(Merged.hasValue()) << Merged.status().message();
  EXPECT_EQ(jsonOf(P.run({}, 1)), jsonOf(Merged.value()));
}

TEST(ShardPipelineFault, TruncatedShardUnderThreadsStillTerminates) {
  // A shard truncated mid-file after saveShards wrote it: under every
  // worker count and window the merge must terminate (no slot left
  // unpublished) and reject with the truncated shard's path.
  ParallelAnalysis P;
  for (int I = 0; I != 12; ++I)
    P.addShard("s" + std::to_string(I),
               [I] { recordAffine(1.5, 0.5 * I); });
  TempDir Dir("scorpio_pipeline_fault_truncate");
  diag::Expected<std::vector<std::string>> Paths = P.saveShards(Dir.Path);
  ASSERT_TRUE(Paths.hasValue()) << Paths.status().message();
  const std::string Victim = Paths.value()[5];
  std::filesystem::resize_file(Victim,
                               std::filesystem::file_size(Victim) / 2);
  for (const unsigned Threads : {1u, 4u})
    for (const unsigned Window : {1u, 4u, 12u}) {
      StreamingMergeOptions Options;
      Options.NumThreads = Threads;
      Options.PrefetchWindow = Window;
      diag::Expected<ParallelAnalysisResult> R =
          ParallelAnalysis::mergeStapStreaming(Paths.value(), Options);
      ASSERT_FALSE(R.hasValue());
      EXPECT_NE(R.status().message().find(Victim), std::string::npos)
          << R.status().message();
    }
}

TEST(ShardVerificationMode, SobelTilesForwardTheKnob) {
  Image In(8, 8);
  for (int Y = 0; Y < 8; ++Y)
    for (int X = 0; X < 8; ++X)
      In.at(X, Y) = static_cast<uint8_t>((X * 29 + Y * 71) % 256);
  const apps::SobelTileSignificance R = apps::analyseSobelTiles(
      In, 4, 8.0, /*NumThreads=*/2, ShardVerification::Incremental);
  ASSERT_TRUE(R.Result.isValid());
  EXPECT_TRUE(R.Result.wasVerified());
  EXPECT_EQ(R.Result.verification().errorCount(), 0u);
}

} // namespace
