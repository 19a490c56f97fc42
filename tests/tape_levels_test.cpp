//===- tests/tape_levels_test.cpp - S4/S5 array pass vs a reference -------===//
//
// Differential tests of graph/TapeLevels.h, the array pass behind
// analyse()'s variance level and graph statistics.  The reference is
// the per-node-object S4 + BFS level analysis the DynDFG used to run,
// kept here and sharing no code with the array pass: it builds its
// graph through the tape's checked accessors, collapses chains by
// rewriting predecessor lists, and assigns levels breadth-first.
//
// The grid: every registry kernel on its default box and 199 seeded
// sub-boxes, under {CombinedSeed, PerOutput} x Simplify on/off x
// {Significance, FpError}; the paper-app pipelines; random tapes in the
// shape verify_property_test generates.  Plus the DOT of the on-demand
// view against the committed Figure-3 and quickstart graphs.
//
//===----------------------------------------------------------------------===//

#include "apps/blackscholes/BlackScholes.h"
#include "apps/dct/Dct.h"
#include "apps/fisheye/Fisheye.h"
#include "apps/maclaurin/Maclaurin.h"
#include "core/Macros.h"
#include "graph/TapeLevels.h"
#include "kernels/KernelRegistry.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <fstream>
#include <sstream>

using namespace scorpio;

namespace {

//===----------------------------------------------------------------------===//
// Reference: per-node objects, S4 by predecessor rewriting, BFS levels
//===----------------------------------------------------------------------===//

struct RefNode {
  OpKind Kind = OpKind::Input;
  bool IsOutput = false;
  bool Alive = true;
  int Level = -1;
  std::vector<NodeId> Preds, Succs;
};

class RefGraph {
public:
  RefGraph(const Tape &T, const std::vector<NodeId> &Outputs) {
    Nodes.resize(T.size());
    for (size_t I = 0; I != T.size(); ++I) {
      const NodeId Id = static_cast<NodeId>(I);
      Nodes[I].Kind = T.kind(Id);
      for (unsigned A = 0, N = T.numArgs(Id); A != N; ++A)
        Nodes[I].Preds.push_back(T.arg(Id, A));
    }
    for (NodeId Out : Outputs)
      Nodes[static_cast<size_t>(Out)].IsOutput = true;
    for (size_t I = 0; I != Nodes.size(); ++I)
      for (NodeId P : Nodes[I].Preds)
        Nodes[static_cast<size_t>(P)].Succs.push_back(
            static_cast<NodeId>(I));
    computeLevels();
  }

  void simplify() {
    const size_t N = Nodes.size();
    std::vector<bool> Dead(N, false);
    for (size_t I = 0; I != N; ++I) {
      const RefNode &V = Nodes[I];
      if (!V.Alive || V.IsOutput || V.Kind == OpKind::Input ||
          !isAccumulativeOp(V.Kind) || V.Succs.size() != 1)
        continue;
      const RefNode &S = Nodes[static_cast<size_t>(V.Succs[0])];
      if (S.Alive && S.Kind == V.Kind)
        Dead[I] = true;
    }
    auto HeadOf = [&](NodeId Id) {
      while (Dead[static_cast<size_t>(Id)])
        Id = Nodes[static_cast<size_t>(Id)].Succs[0];
      return Id;
    };
    std::vector<std::vector<NodeId>> NewPreds(N);
    for (size_t I = 0; I != N; ++I) {
      if (!Nodes[I].Alive)
        continue;
      const NodeId Target =
          Dead[I] ? HeadOf(static_cast<NodeId>(I)) : static_cast<NodeId>(I);
      for (NodeId P : Nodes[I].Preds)
        if (!Dead[static_cast<size_t>(P)])
          NewPreds[static_cast<size_t>(Target)].push_back(P);
    }
    for (size_t I = 0; I != N; ++I) {
      Nodes[I].Succs.clear();
      if (Dead[I]) {
        Nodes[I].Alive = false;
        Nodes[I].Preds.clear();
        continue;
      }
      std::vector<NodeId> Unique;
      for (NodeId P : NewPreds[I])
        if (std::find(Unique.begin(), Unique.end(), P) == Unique.end())
          Unique.push_back(P);
      Nodes[I].Preds = std::move(Unique);
    }
    for (size_t I = 0; I != N; ++I)
      if (Nodes[I].Alive)
        for (NodeId P : Nodes[I].Preds)
          Nodes[static_cast<size_t>(P)].Succs.push_back(
              static_cast<NodeId>(I));
    computeLevels();
  }

  size_t numAlive() const {
    return static_cast<size_t>(
        std::count_if(Nodes.begin(), Nodes.end(),
                      [](const RefNode &N) { return N.Alive; }));
  }

  int height() const {
    int H = 0;
    for (const RefNode &N : Nodes)
      if (N.Alive)
        H = std::max(H, N.Level + 1);
    return H;
  }

  int varianceLevel(std::span<const double> Sig, double Delta,
                    double Divisor) const {
    for (int L = 1, H = height(); L < H; ++L) {
      std::vector<double> Level;
      for (size_t I = 0; I != Nodes.size(); ++I)
        if (Nodes[I].Alive && Nodes[I].Level == L)
          Level.push_back(Sig[I]);
      if (Level.size() < 2)
        continue;
      if (Divisor != 1.0)
        for (double &S : Level)
          S /= Divisor;
      if (variance(Level) > Delta)
        return L;
    }
    return -1;
  }

  std::vector<RefNode> Nodes;

private:
  void computeLevels() {
    std::deque<NodeId> Queue;
    for (size_t I = 0; I != Nodes.size(); ++I) {
      Nodes[I].Level = -1;
      if (Nodes[I].Alive && Nodes[I].IsOutput) {
        Nodes[I].Level = 0;
        Queue.push_back(static_cast<NodeId>(I));
      }
    }
    while (!Queue.empty()) {
      const NodeId V = Queue.front();
      Queue.pop_front();
      for (NodeId P : Nodes[static_cast<size_t>(V)].Preds) {
        RefNode &PN = Nodes[static_cast<size_t>(P)];
        if (!PN.Alive || PN.Level != -1)
          continue;
        PN.Level = Nodes[static_cast<size_t>(V)].Level + 1;
        Queue.push_back(P);
      }
    }
  }
};

/// The three numbers a report keeps from the graph stage.
struct GraphStats {
  int VarianceLevel;
  size_t Alive;
  int Height;
  bool operator==(const GraphStats &) const = default;
};

std::ostream &operator<<(std::ostream &OS, const GraphStats &S) {
  return OS << "{level " << S.VarianceLevel << ", alive " << S.Alive
            << ", height " << S.Height << "}";
}

GraphStats referenceStats(const Tape &T, const std::vector<NodeId> &Outputs,
                          std::span<const double> Sig, bool Simplify,
                          double Delta, double Divisor) {
  RefGraph G(T, Outputs);
  if (Simplify)
    G.simplify();
  return {G.varianceLevel(Sig, Delta, Divisor), G.numAlive(), G.height()};
}

GraphStats reportedStats(const AnalysisResult &R) {
  return {R.varianceLevel(), R.graphAliveNodes(), R.graphHeight()};
}

double divisorOf(const AnalysisResult &R) {
  return R.outputSignificance() > 0.0 ? R.outputSignificance() : 1.0;
}

/// Every node's alive flag and level, array pass against reference.
void expectSameLevels(const Tape &T, const std::vector<NodeId> &Outputs,
                      bool Simplify, const std::string &What) {
  const TapeLevels Fast = computeTapeLevels(T, Outputs, Simplify);
  RefGraph Ref(T, Outputs);
  if (Simplify)
    Ref.simplify();
  ASSERT_EQ(Fast.Level.size(), Ref.Nodes.size()) << What;
  for (size_t I = 0; I != Ref.Nodes.size(); ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    ASSERT_EQ(Fast.isAlive(Id), Ref.Nodes[I].Alive) << What << " u" << I;
    ASSERT_EQ(Fast.Level[I], Ref.Nodes[I].Level) << What << " u" << I;
  }
  EXPECT_EQ(Fast.Alive, Ref.numAlive()) << What;
  EXPECT_EQ(Fast.Height, Ref.height()) << What;
}

/// analyse() under every option combination of the grid, each compared
/// with the reference over the same tape and significances.
size_t compareAllOptions(Analysis &A, const std::string &What) {
  size_t Compared = 0;
  for (auto Mode : {AnalysisOptions::OutputMode::CombinedSeed,
                    AnalysisOptions::OutputMode::PerOutput})
    for (bool Simplify : {true, false})
      for (auto Backend :
           {AnalysisBackend::Significance, AnalysisBackend::FpError}) {
        AnalysisOptions Opts;
        Opts.Mode = Mode;
        Opts.Simplify = Simplify;
        Opts.Backend = Backend;
        const AnalysisResult R = A.analyse(Opts);
        const GraphStats Want =
            referenceStats(A.tape(), A.outputNodes(), R.nodeSignificances(),
                           Simplify, Opts.Delta, divisorOf(R));
        EXPECT_EQ(reportedStats(R), Want)
            << What << " mode " << static_cast<int>(Mode) << " simplify "
            << Simplify << " backend " << static_cast<int>(Backend);
        ++Compared;
      }
  return Compared;
}

//===----------------------------------------------------------------------===//
// The grid
//===----------------------------------------------------------------------===//

TEST(TapeLevels, RegistryKernelsOnSeededSubBoxesMatchReference) {
  constexpr int BoxesPerKernel = 200;
  Random Rng(37);
  size_t Compared = 0;
  for (const std::string &Name : KernelRegistry::global().names()) {
    const KernelDescriptor *K = KernelRegistry::global().find(Name);
    ASSERT_NE(K, nullptr);
    for (int B = 0; B != BoxesPerKernel; ++B) {
      // Box 0 is the default box; the rest are random sub-boxes of it.
      std::vector<Interval> Box = K->DefaultRanges;
      if (B != 0)
        for (Interval &X : Box) {
          const double U = Rng.uniform(X.lower(), X.upper());
          const double V = Rng.uniform(X.lower(), X.upper());
          X = Interval(std::min(U, V), std::max(U, V));
        }
      Analysis A;
      K->Analyse(A, Box);
      Compared += compareAllOptions(A, Name + " box " + std::to_string(B));
      if (B == 0)
        for (bool Simplify : {true, false})
          expectSameLevels(A.tape(), A.outputNodes(), Simplify, Name);
    }
  }
  EXPECT_EQ(Compared, KernelRegistry::global().size() * BoxesPerKernel * 8);
}

TEST(TapeLevels, PaperAppPipelinesMatchReference) {
  {
    Analysis A;
    apps::recordMaclaurin(A, 0.25, 0.5, 12);
    compareAllOptions(A, "maclaurin");
    expectSameLevels(A.tape(), A.outputNodes(), true, "maclaurin");
  }
  for (const apps::Option &O : apps::generatePortfolio(4)) {
    Analysis A;
    apps::recordBlackScholes(O);
    compareAllOptions(A, "blackscholes");
    expectSameLevels(A.tape(), A.outputNodes(), true, "blackscholes");
  }
  {
    Image In(16, 16);
    for (int Y = 0; Y != 16; ++Y)
      for (int X = 0; X != 16; ++X)
        In.at(X, Y) = static_cast<uint8_t>((X * 37 + Y * 11) % 256);
    Analysis A;
    apps::recordDctPipeline(In, 1, 1);
    compareAllOptions(A, "dct block");
    expectSameLevels(A.tape(), A.outputNodes(), true, "dct block");
  }
  {
    // Fisheye Figure 5: one InverseMapping pixel.
    Analysis A;
    IAValue X = A.input("x", 40.5, 41.5);
    IAValue Y = A.input("y", 10.5, 11.5);
    IAValue SrcX, SrcY;
    apps::inverseMapping<IAValue>(X, Y, 64, 48, apps::FisheyeParams(), SrcX,
                                  SrcY);
    A.registerOutput(SrcX, "srcx");
    A.registerOutput(SrcY, "srcy");
    compareAllOptions(A, "fisheye inverse mapping");
  }
  {
    // Fisheye Figure 6: the bicubic sum, two nested accumulation chains.
    Analysis A;
    IAValue Px[16];
    for (int I = 0; I < 16; ++I)
      Px[I] = A.input("p" + std::to_string(I), 96.0, 160.0);
    const std::array<double, 4> Wx = apps::catmullRomWeights<double>(0.3);
    const std::array<double, 4> Wy = apps::catmullRomWeights<double>(0.7);
    IAValue Sum = 0.0;
    for (int R = 0; R < 4; ++R) {
      IAValue Row = 0.0;
      for (int C = 0; C < 4; ++C)
        Row = Row + Px[R * 4 + C] * Wx[static_cast<size_t>(C)];
      Sum = Sum + Row * Wy[static_cast<size_t>(R)];
    }
    A.registerOutput(Sum, "interp");
    compareAllOptions(A, "fisheye bicubic");
    expectSameLevels(A.tape(), A.outputNodes(), true, "fisheye bicubic");
  }
  // Sobel and N-Body record through private app code; their registry
  // component versions are the same computations.
  for (const char *Name : {"sobel-pixel", "nbody-lj-pair"}) {
    const KernelDescriptor *K = KernelRegistry::global().find(Name);
    ASSERT_NE(K, nullptr);
    Analysis A;
    K->Analyse(A, K->DefaultRanges);
    compareAllOptions(A, Name);
  }
}

/// A random tape in verify_property_test's shape (inputs, then unary and
/// binary nodes over earlier ids, some binary nodes with one passive
/// operand), recorded through the Tape API, with accumulative kinds
/// over-represented so S4 chains are common.
Tape randomTape(Random &Rng, std::vector<NodeId> &Outputs) {
  static const OpKind UnaryKinds[] = {OpKind::Neg, OpKind::Sin, OpKind::Exp,
                                      OpKind::Sqr, OpKind::Atan};
  static const OpKind BinaryKinds[] = {OpKind::Add, OpKind::Sub,
                                       OpKind::Mul, OpKind::Min,
                                       OpKind::Max, OpKind::Add};
  Tape T;
  const int NumInputs = 1 + static_cast<int>(Rng.below(4));
  const int NumOps = 1 + static_cast<int>(Rng.below(40));
  for (int I = 0; I != NumInputs; ++I)
    T.recordInput(Interval(-1.0, 1.0));
  for (int I = 0; I != NumOps; ++I) {
    const NodeId Id = static_cast<NodeId>(T.size());
    // Favour the most recent nodes so chains form.
    auto Pick = [&] {
      const NodeId Back = static_cast<NodeId>(
          Rng.below(static_cast<uint64_t>(std::min<NodeId>(Id, 4))));
      return Rng.below(3) == 0
                 ? static_cast<NodeId>(Rng.below(static_cast<uint64_t>(Id)))
                 : Id - 1 - Back;
    };
    if (Rng.below(3) == 0) {
      T.recordUnary(UnaryKinds[Rng.below(std::size(UnaryKinds))],
                    Interval(-1.0, 1.0), Pick(), Interval(1.0));
    } else {
      const OpKind K = BinaryKinds[Rng.below(std::size(BinaryKinds))];
      const NodeId A0 = Pick();
      const NodeId A1 = Rng.below(4) == 0 ? InvalidNodeId : Pick();
      T.recordBinary(K, Interval(-1.0, 1.0), A0, Interval(1.0), A1,
                     Interval(1.0));
    }
  }
  Outputs = {static_cast<NodeId>(T.size() - 1)};
  for (uint64_t Extra = Rng.below(3); Extra != 0; --Extra)
    Outputs.push_back(static_cast<NodeId>(Rng.below(T.size())));
  return T;
}

TEST(TapeLevels, RandomTapesMatchReference) {
  Random Rng(20160312);
  for (int Iter = 0; Iter != 2000; ++Iter) {
    std::vector<NodeId> Outputs;
    const Tape T = randomTape(Rng, Outputs);
    std::vector<double> Sig(T.size());
    for (double &S : Sig)
      S = Rng.below(5) == 0 ? 0.0 : Rng.uniform(0.0, 2.0);
    const double Delta = Rng.uniform(0.0, 0.3);
    const double Divisor = Rng.below(2) == 0 ? 1.0 : Rng.uniform(0.5, 4.0);
    for (bool Simplify : {true, false}) {
      const std::string What = "iteration " + std::to_string(Iter) +
                               (Simplify ? " simplified" : " raw");
      expectSameLevels(T, Outputs, Simplify, What);
      const TapeLevels L = computeTapeLevels(T, Outputs, Simplify);
      const GraphStats Got{
          findVarianceLevel(L.Level, L.Height, Sig, Delta, Divisor), L.Alive,
          L.Height};
      ASSERT_EQ(Got,
                referenceStats(T, Outputs, Sig, Simplify, Delta, Divisor))
          << What;
    }
  }
}

TEST(TapeLevels, EmptyTapeHasNoLevels) {
  const Tape T;
  const TapeLevels L = computeTapeLevels(T, {}, true);
  EXPECT_EQ(L.Alive, 0u);
  EXPECT_EQ(L.Height, 0);
  EXPECT_EQ(findVarianceLevel(L.Level, L.Height, {}, 0.0, 1.0), -1);
}

TEST(TapeLevels, GroupByLevelKeepsIdOrder) {
  const std::vector<int> Level = {2, 0, -1, 1, 2, 1, 0, 3};
  const LevelGroups G = groupByLevel(Level, 3);
  ASSERT_EQ(G.Start.size(), 4u);
  EXPECT_EQ(std::vector<NodeId>(G.level(0).begin(), G.level(0).end()),
            (std::vector<NodeId>{1, 6}));
  EXPECT_EQ(std::vector<NodeId>(G.level(1).begin(), G.level(1).end()),
            (std::vector<NodeId>{3, 5}));
  EXPECT_EQ(std::vector<NodeId>(G.level(2).begin(), G.level(2).end()),
            (std::vector<NodeId>{0, 4}));
}

//===----------------------------------------------------------------------===//
// The on-demand view renders the committed DOT files byte for byte
//===----------------------------------------------------------------------===//

std::string committedFile(const char *Name) {
  std::ifstream In(std::string(SCORPIO_REPO_DIR) + "/" + Name,
                   std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

TEST(TapeLevels, ViewDotMatchesCommittedFigure3) {
  Analysis A;
  apps::recordMaclaurin(A, 0.25, 0.5, 5); // bench/fig3_maclaurin
  const AnalysisResult R = A.analyse();
  std::ostringstream Dot;
  A.graph(R).writeDot(Dot);
  const std::string Want = committedFile("fig3_maclaurin.dot");
  ASSERT_FALSE(Want.empty());
  EXPECT_EQ(Dot.str(), Want);
}

TEST(TapeLevels, ViewDotMatchesCommittedQuickstart) {
  // examples/quickstart's analyseSeries(0.25, 12), verbatim.
  Analysis A;
  IAValue X(0.25);
  SCORPIO_INPUT(X, 0.25 - 0.5, 0.25 + 0.5);
  IAValue Result = 0.0;
  for (int I = 0; I < 12; ++I) {
    IAValue Term = pow(X, I);
    SCORPIO_INTERMEDIATE_NAMED(Term, "term" + std::to_string(I));
    Result = Result + Term;
  }
  SCORPIO_OUTPUT(Result);
  const AnalysisResult R = SCORPIO_ANALYSE();
  std::ostringstream Dot;
  A.graph(R).writeDot(Dot);
  const std::string Want = committedFile("quickstart_dyndfg.dot");
  ASSERT_FALSE(Want.empty());
  EXPECT_EQ(Dot.str(), Want);
}

} // namespace
