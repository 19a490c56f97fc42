//===- tests/dyndfg_test.cpp - DynDFG post-processing tests ---------------===//
//
// Tests for Algorithm 1 steps S4 (aggregation-chain collapsing) and S5
// (significance-variance level detection), including the Figure 3
// Maclaurin graph shapes.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "graph/DynDFG.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace scorpio;

namespace {

/// The Maclaurin analysis of Listing 6, its result and the DynDFG view
/// built with the same options.
struct Maclaurin {
  Analysis A;
  AnalysisResult R;
  DynDFG G;

  Maclaurin(int N, bool Simplify) {
    IAValue X = A.input("x", -0.25, 0.75);
    IAValue Result = 0.0;
    for (int I = 0; I < N; ++I) {
      IAValue Term = pow(X, I);
      A.registerIntermediate(Term, "term" + std::to_string(I));
      Result = Result + Term;
    }
    A.registerOutput(Result, "result");
    AnalysisOptions Opts;
    Opts.Simplify = Simplify;
    R = A.analyse(Opts);
    G = A.graph(R, Opts);
  }
};

TEST(DynDFG, RawMaclaurinHasAccumulatorChain) {
  const Maclaurin M(5, /*Simplify=*/false);
  // 1 input + 5 pow nodes + 5 add nodes (result starts passive 0.0, so
  // the first add has a single active arg).
  EXPECT_EQ(M.G.size(), 11u);
  EXPECT_EQ(M.G.numAlive(), 11u);
  // Figure 3a: the raw graph interleaves terms with partial results, so
  // term4 is at level 1 but term0 is buried at level 5.
  EXPECT_GT(M.G.height(), 3);
}

TEST(DynDFG, SimplifyCollapsesAdditionChain) {
  const Maclaurin M(5, /*Simplify=*/true);
  const DynDFG &G = M.G;
  // Figure 3b: output + 5 terms + input = 7 alive nodes.
  EXPECT_EQ(G.numAlive(), 7u);
  EXPECT_EQ(G.height(), 3); // result (0), terms (1), x (2)
  EXPECT_EQ(G.nodesAtLevel(0).size(), 1u);
  EXPECT_EQ(G.nodesAtLevel(1).size(), 5u);
  EXPECT_EQ(G.nodesAtLevel(2).size(), 1u);
}

TEST(DynDFG, SimplifiedTermsAttachDirectlyToOutput) {
  const Maclaurin M(5, /*Simplify=*/true);
  const DynDFG &G = M.G;
  const std::vector<NodeId> Outs = G.nodesAtLevel(0);
  ASSERT_EQ(Outs.size(), 1u);
  const DfgNode &Result = G.node(Outs[0]);
  EXPECT_EQ(Result.Preds.size(), 5u); // all five terms
  EXPECT_TRUE(Result.IsOutput);
}

TEST(DynDFG, SimplifyPreservesOutputLabel) {
  const Maclaurin M(5, /*Simplify=*/true);
  const DynDFG &G = M.G;
  const DfgNode &Result = G.node(G.nodesAtLevel(0)[0]);
  EXPECT_EQ(Result.Label, "result");
}

TEST(DynDFG, VarianceLevelFindsTermLevel) {
  // Terms at level 1 have significances {0, s1..s4} with s1..s4 ~ 0.25:
  // variance ~ 0.01 > delta = 1e-3, so S5 stops at L = 1.
  const Maclaurin M(5, /*Simplify=*/true);
  EXPECT_EQ(M.R.varianceLevel(), 1);
}

TEST(DynDFG, VarianceLevelRespectsDelta) {
  Analysis A;
  IAValue X = A.input("x", 0.0, 1.0);
  // Two equally significant level-1 nodes: variance 0.
  IAValue U = X * 2.0;
  IAValue V = X * 2.0;
  IAValue Y = U + V;
  A.registerOutput(Y, "y");
  AnalysisOptions Opts;
  Opts.Delta = 1e-3;
  const AnalysisResult R = A.analyse(Opts);
  EXPECT_EQ(R.varianceLevel(), -1); // no variance anywhere
}

TEST(DynDFG, TruncatedAboveDropsDeepLevels) {
  const Maclaurin M(5, /*Simplify=*/true);
  DynDFG T = M.G.truncatedAbove(1);
  // Keeps output + terms, drops the input.
  EXPECT_EQ(T.numAlive(), 6u);
  for (NodeId Id : T.nodesAtLevel(1))
    EXPECT_TRUE(T.node(Id).Preds.empty());
}

TEST(DynDFG, LevelsAreShortestPathToOutput) {
  // y = a + b where b = sin(a): a is used at level 1 (directly) and
  // level 2 (through sin); BFS assigns the shortest distance, 1.
  Analysis A;
  IAValue X = A.input("x", 0.1, 0.2);
  IAValue B = sin(X);
  IAValue Y = X + B;
  A.registerOutput(Y, "y");
  AnalysisOptions Opts;
  Opts.Simplify = false;
  const AnalysisResult R = A.analyse(Opts);
  const DynDFG G = A.graph(R, Opts);
  EXPECT_EQ(G.node(X.node()).Level, 1);
  EXPECT_EQ(G.node(B.node()).Level, 1);
  EXPECT_EQ(G.node(Y.node()).Level, 0);
}

TEST(DynDFG, DeadCodeGetsLevelMinusOne) {
  Analysis A;
  IAValue X = A.input("x", 0.0, 1.0);
  IAValue Dead = sqr(X); // never used for the output
  IAValue Y = X * 3.0;
  A.registerOutput(Y, "y");
  AnalysisOptions Opts;
  Opts.Simplify = false;
  const AnalysisResult R = A.analyse(Opts);
  EXPECT_EQ(A.graph(R, Opts).node(Dead.node()).Level, -1);
}

TEST(DynDFG, SimplifyDoesNotCollapseNonAccumulative) {
  // A chain of subtractions is NOT an aggregation (sub is not
  // accumulative): nothing collapses.
  Analysis A;
  IAValue X = A.input("x", 0.0, 1.0);
  IAValue R1 = X - 1.0;
  IAValue R2 = R1 - 1.0;
  IAValue R3 = R2 - 1.0;
  A.registerOutput(R3, "y");
  const AnalysisResult R = A.analyse();
  EXPECT_EQ(A.graph(R).numAlive(), 4u);
}

TEST(DynDFG, SimplifyDoesNotCollapseFanOutNodes) {
  // u = a + b feeds two consumers: it must survive even under adds.
  Analysis A;
  IAValue X = A.input("a", 0.0, 1.0);
  IAValue B = A.input("b", 0.0, 1.0);
  IAValue U = X + B;
  IAValue Y = (U + X) + (U + B); // U has fan-out 2
  A.registerOutput(Y, "y");
  const AnalysisResult R = A.analyse();
  EXPECT_TRUE(A.graph(R).node(U.node()).Alive);
}

TEST(DynDFG, MultiplicationChainsCollapseToo) {
  Analysis A;
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue P = 1.0;
  for (int I = 0; I < 4; ++I) {
    IAValue F = X + static_cast<double>(I);
    P = P * F;
  }
  A.registerOutput(P, "prod");
  const AnalysisResult R = A.analyse();
  // input + 4 factor adds + 1 surviving product head = 6.
  const DynDFG G = A.graph(R);
  EXPECT_EQ(G.numAlive(), 6u);
  const DfgNode &Head = G.node(G.nodesAtLevel(0)[0]);
  EXPECT_EQ(Head.Preds.size(), 4u);
}

TEST(DynDFG, WriteDotEmitsAllAliveNodes) {
  const Maclaurin M(3, /*Simplify=*/true);
  std::ostringstream OS;
  M.G.writeDot(OS);
  const std::string Dot = OS.str();
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("result"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
  // Dead nodes do not appear: count node declarations.
  size_t NodeCount = 0;
  for (size_t Pos = Dot.find("shape=box"); Pos != std::string::npos;
       Pos = Dot.find("shape=box", Pos + 1))
    ++NodeCount;
  EXPECT_EQ(NodeCount, M.G.numAlive());
}

TEST(DynDFG, SignificancesAtLevelMatchesNodeOrder) {
  const Maclaurin M(5, /*Simplify=*/true);
  const std::vector<double> Sig = M.G.significancesAtLevel(1);
  ASSERT_EQ(Sig.size(), 5u);
  // Level 1 holds the five terms; term0 contributes 0 significance.
  int Zeros = 0;
  for (double S : Sig)
    if (S < 1e-12)
      ++Zeros;
  EXPECT_EQ(Zeros, 1);
}

} // namespace
