//===- tests/tape_test.cpp - DynDFG tape unit tests ------------------------===//

#include "tape/Tape.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace scorpio;

namespace {

TEST(Tape, StartsEmptyAndInactive) {
  EXPECT_EQ(Tape::active(), nullptr);
  Tape T;
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(T.size(), 0u);
}

TEST(Tape, ActiveScopeInstallsAndRestores) {
  EXPECT_EQ(Tape::active(), nullptr);
  {
    ActiveTapeScope Scope;
    EXPECT_EQ(Tape::active(), &Scope.tape());
    {
      ActiveTapeScope Inner;
      EXPECT_EQ(Tape::active(), &Inner.tape());
    }
    EXPECT_EQ(Tape::active(), &Scope.tape());
  }
  EXPECT_EQ(Tape::active(), nullptr);
}

TEST(Tape, RecordInputTracksIds) {
  Tape T;
  const NodeId A = T.recordInput(Interval(1.0, 2.0));
  const NodeId B = T.recordInput(Interval(3.0));
  EXPECT_EQ(A, 0);
  EXPECT_EQ(B, 1);
  ASSERT_EQ(T.inputs().size(), 2u);
  EXPECT_EQ(T.inputs()[0], A);
  EXPECT_EQ(T.kind(A), OpKind::Input);
  EXPECT_EQ(T.numArgs(A), 0u);
  EXPECT_EQ(T.value(A), Interval(1.0, 2.0));
}

TEST(Tape, RecordUnaryStoresPartial) {
  Tape T;
  const NodeId X = T.recordInput(Interval(2.0));
  const NodeId Y =
      T.recordUnary(OpKind::Sqr, Interval(4.0), X, Interval(4.0));
  EXPECT_EQ(T.kind(Y), OpKind::Sqr);
  EXPECT_EQ(T.numArgs(Y), 1u);
  EXPECT_EQ(T.arg(Y, 0), X);
  EXPECT_EQ(T.partial(Y, 0), Interval(4.0));
}

TEST(Tape, RecordBinarySkipsPassiveArg) {
  Tape T;
  const NodeId X = T.recordInput(Interval(2.0));
  // x + constant: only the active argument is recorded.
  const NodeId Y = T.recordBinary(OpKind::Add, Interval(5.0), X,
                                  Interval(1.0), InvalidNodeId,
                                  Interval(1.0));
  EXPECT_EQ(T.numArgs(Y), 1u);
  EXPECT_EQ(T.arg(Y, 0), X);
}

TEST(Tape, ReverseSweepLinearChain) {
  // y = (x * 3) + 10  =>  dy/dx = 3.
  Tape T;
  const NodeId X = T.recordInput(Interval(2.0));
  const NodeId M = T.recordBinary(OpKind::Mul, Interval(6.0), X,
                                  Interval(3.0), InvalidNodeId, Interval());
  const NodeId Y = T.recordBinary(OpKind::Add, Interval(16.0), M,
                                  Interval(1.0), InvalidNodeId, Interval());
  T.clearAdjoints();
  T.seedAdjoint(Y, Interval(1.0));
  T.reverseSweep();
  EXPECT_NEAR(T.adjoint(X).mid(), 3.0, 1e-12);
  EXPECT_LT(T.adjoint(X).width(), 1e-12);
  EXPECT_NEAR(T.adjoint(M).mid(), 1.0, 1e-12);
}

TEST(Tape, ReverseSweepFanOutAccumulates) {
  // y = x*2 + x*5  =>  dy/dx = 7.
  Tape T;
  const NodeId X = T.recordInput(Interval(1.0));
  const NodeId A = T.recordBinary(OpKind::Mul, Interval(2.0), X,
                                  Interval(2.0), InvalidNodeId, Interval());
  const NodeId B = T.recordBinary(OpKind::Mul, Interval(5.0), X,
                                  Interval(5.0), InvalidNodeId, Interval());
  const NodeId Y = T.recordBinary(OpKind::Add, Interval(7.0), A,
                                  Interval(1.0), B, Interval(1.0));
  T.clearAdjoints();
  T.seedAdjoint(Y, Interval(1.0));
  T.reverseSweep();
  EXPECT_NEAR(T.adjoint(X).mid(), 7.0, 1e-9);
}

TEST(Tape, ReverseSweepIntervalPartials) {
  // Partial is an interval: adjoint of x must be the interval product.
  Tape T;
  const NodeId X = T.recordInput(Interval(0.0, 1.0));
  const NodeId Y = T.recordUnary(OpKind::Sin, Interval(0.0, 0.9), X,
                                 Interval(0.5, 1.0));
  T.clearAdjoints();
  T.seedAdjoint(Y, Interval(1.0));
  T.reverseSweep();
  EXPECT_NEAR(T.adjoint(X).lower(), 0.5, 1e-9);
  EXPECT_NEAR(T.adjoint(X).upper(), 1.0, 1e-9);
}

TEST(Tape, ClearAdjointsResets) {
  Tape T;
  const NodeId X = T.recordInput(Interval(1.0));
  T.seedAdjoint(X, Interval(2.0));
  EXPECT_NEAR(T.adjoint(X).mid(), 2.0, 1e-12);
  T.clearAdjoints();
  EXPECT_EQ(T.adjoint(X), Interval(0.0));
}

TEST(Tape, SeedAccumulates) {
  Tape T;
  const NodeId X = T.recordInput(Interval(1.0));
  T.seedAdjoint(X, Interval(1.0));
  T.seedAdjoint(X, Interval(1.0));
  EXPECT_NEAR(T.adjoint(X).mid(), 2.0, 1e-12);
}

TEST(Tape, DivergenceNotes) {
  Tape T;
  EXPECT_FALSE(T.hasDiverged());
  T.noteDivergence("x < y undecidable");
  EXPECT_TRUE(T.hasDiverged());
  ASSERT_EQ(T.divergences().size(), 1u);
  EXPECT_EQ(T.divergences()[0], "x < y undecidable");
}

TEST(Tape, OpKindNames) {
  EXPECT_STREQ(opKindName(OpKind::Add), "add");
  EXPECT_STREQ(opKindName(OpKind::Input), "input");
  EXPECT_STREQ(opKindName(OpKind::PowInt), "powi");
  EXPECT_STREQ(opKindName(OpKind::Round), "round");
}

TEST(Tape, AccumulativeOpClassification) {
  EXPECT_TRUE(isAccumulativeOp(OpKind::Add));
  EXPECT_TRUE(isAccumulativeOp(OpKind::Mul));
  EXPECT_TRUE(isAccumulativeOp(OpKind::Min));
  EXPECT_TRUE(isAccumulativeOp(OpKind::Max));
  EXPECT_FALSE(isAccumulativeOp(OpKind::Sub));
  EXPECT_FALSE(isAccumulativeOp(OpKind::Div));
  EXPECT_FALSE(isAccumulativeOp(OpKind::Sin));
}

TEST(Tape, ZeroAdjointShortCircuitStillCorrect) {
  // A node never reaching the output keeps a zero adjoint.
  Tape T;
  const NodeId X = T.recordInput(Interval(1.0));
  const NodeId Dead = T.recordUnary(OpKind::Sqr, Interval(1.0), X,
                                    Interval(2.0));
  const NodeId Y = T.recordUnary(OpKind::Neg, Interval(-1.0), X,
                                 Interval(-1.0));
  T.clearAdjoints();
  T.seedAdjoint(Y, Interval(1.0));
  T.reverseSweep();
  EXPECT_EQ(T.adjoint(Dead), Interval(0.0));
  EXPECT_NEAR(T.adjoint(X).mid(), -1.0, 1e-12);
}

TEST(Tape, ReserveIsPureHint) {
  Tape T;
  T.reserve(10000);
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(T.size(), 0u);
  const NodeId X = T.recordInput(Interval(1.0, 2.0));
  EXPECT_EQ(X, 0);
  EXPECT_EQ(T.size(), 1u);
  EXPECT_EQ(T.value(X), Interval(1.0, 2.0));
  // Reserving after recording must not disturb recorded nodes.
  T.reserve(100000);
  EXPECT_EQ(T.size(), 1u);
  EXPECT_EQ(T.value(X), Interval(1.0, 2.0));
}

TEST(Tape, RecordArgumentsMayAliasTheTape) {
  // Without reserve(), recording well past 3 x 4096 nodes reallocates
  // every array many times.  Each node passes T.value(Prev) itself (a
  // reference into the tape's value array) as its value and as its
  // partial; the record functions must copy both before appending, or
  // the ASan build reports a heap-use-after-free here.
  Tape T;
  const NodeId X = T.recordInput(Interval(-1.0));
  NodeId Prev = X;
  constexpr int NumNodes = 3 * 4096 + 17;
  for (int I = 0; I != NumNodes; ++I) {
    if (I % 2 == 0)
      Prev = T.recordUnary(OpKind::Sqr, T.value(Prev), Prev, T.value(Prev));
    else
      Prev = T.recordBinary(OpKind::Mul, T.value(Prev), Prev, T.value(Prev),
                            InvalidNodeId, Interval(0.0));
  }
  ASSERT_EQ(T.size(), static_cast<size_t>(NumNodes) + 1);
  for (NodeId Id = 1; Id <= NumNodes; ++Id) {
    ASSERT_EQ(T.value(Id), Interval(-1.0)) << "node " << Id;
    ASSERT_EQ(T.numArgs(Id), 1u) << "node " << Id;
    ASSERT_EQ(T.arg(Id, 0), Id - 1) << "node " << Id;
    ASSERT_EQ(T.partial(Id, 0), Interval(-1.0)) << "node " << Id;
  }
  // The chain is NumNodes factors of -1, so dy/dx = (-1)^NumNodes.
  T.clearAdjoints();
  T.seedAdjoint(Prev, Interval(1.0));
  T.reverseSweep();
  const double Expected = (NumNodes % 2 == 0) ? 1.0 : -1.0;
  EXPECT_TRUE(T.adjoint(X).contains(Expected));
  EXPECT_NEAR(T.adjoint(X).mid(), Expected, 1e-12);
}

/// Records a small multi-output kernel:
///   s = a + b, d = a - b, p = a * b, q = s * d
/// with interval inputs so adjoints are genuine intervals.
struct MultiOutTape {
  Tape T;
  NodeId A, B, S, D, P, Q;
  MultiOutTape() {
    A = T.recordInput(Interval(1.0, 2.0));
    B = T.recordInput(Interval(-1.0, 3.0));
    S = T.recordBinary(OpKind::Add, T.value(A) + T.value(B), A,
                       Interval(1.0), B, Interval(1.0));
    D = T.recordBinary(OpKind::Sub, T.value(A) - T.value(B), A,
                       Interval(1.0), B, Interval(-1.0));
    P = T.recordBinary(OpKind::Mul, T.value(A) * T.value(B), A,
                       T.value(B), B, T.value(A));
    Q = T.recordBinary(OpKind::Mul, T.value(S) * T.value(D), S,
                       T.value(D), D, T.value(S));
  }
};

TEST(Tape, BatchSweepMatchesSequentialSweepsExactly) {
  MultiOutTape F;
  const NodeId Outs[] = {F.S, F.D, F.P, F.Q};

  // Reference: one dedicated reverse sweep per output.
  std::vector<std::vector<Interval>> Ref;
  for (NodeId Out : Outs) {
    F.T.clearAdjoints();
    F.T.seedAdjoint(Out, Interval(1.0));
    F.T.reverseSweep();
    std::vector<Interval> Adj;
    for (size_t I = 0; I != F.T.size(); ++I)
      Adj.push_back(F.T.adjoint(static_cast<NodeId>(I)));
    Ref.push_back(std::move(Adj));
  }

  // One batched pass with all four seeds as lanes.
  BatchAdjoints Batch;
  F.T.reverseSweepBatch(std::span<const NodeId>(Outs), Batch);
  ASSERT_EQ(Batch.numNodes(), F.T.size());
  ASSERT_EQ(Batch.width(), 4u);

  for (unsigned L = 0; L != 4; ++L)
    for (size_t I = 0; I != F.T.size(); ++I) {
      const Interval &Want = Ref[L][I];
      const Interval &Got = Batch.at(static_cast<NodeId>(I), L);
      // Bit-identical, not merely close: same lower/upper doubles.
      EXPECT_EQ(Got.lower(), Want.lower()) << "lane " << L << " node " << I;
      EXPECT_EQ(Got.upper(), Want.upper()) << "lane " << L << " node " << I;
    }
}

TEST(Tape, BatchSweepWithExplicitSeeds) {
  MultiOutTape F;
  // Weighted seeds exercise the (NodeId, Interval) overload.
  const std::pair<NodeId, Interval> Seeds[] = {
      {F.Q, Interval(2.0)},
      {F.P, Interval(0.5, 1.5)},
  };

  F.T.clearAdjoints();
  F.T.seedAdjoint(F.Q, Interval(2.0));
  F.T.reverseSweep();
  std::vector<Interval> WantLane0;
  for (size_t I = 0; I != F.T.size(); ++I)
    WantLane0.push_back(F.T.adjoint(static_cast<NodeId>(I)));

  BatchAdjoints Batch;
  F.T.reverseSweepBatch(
      std::span<const std::pair<NodeId, Interval>>(Seeds), Batch);
  for (size_t I = 0; I != F.T.size(); ++I) {
    EXPECT_EQ(Batch.at(static_cast<NodeId>(I), 0).lower(),
              WantLane0[I].lower());
    EXPECT_EQ(Batch.at(static_cast<NodeId>(I), 0).upper(),
              WantLane0[I].upper());
  }
}

TEST(Tape, BatchSweepDoesNotTouchTapeAdjoints) {
  MultiOutTape F;
  F.T.clearAdjoints();
  F.T.seedAdjoint(F.Q, Interval(1.0));
  F.T.reverseSweep();
  const Interval Before = F.T.adjoint(F.A);

  const NodeId Outs[] = {F.S, F.D};
  BatchAdjoints Batch;
  F.T.reverseSweepBatch(std::span<const NodeId>(Outs), Batch);
  EXPECT_EQ(F.T.adjoint(F.A), Before);
}

TEST(Tape, BatchSweepEmptySeeds) {
  MultiOutTape F;
  BatchAdjoints Batch;
  F.T.reverseSweepBatch(std::span<const NodeId>(), Batch);
  EXPECT_EQ(Batch.width(), 0u);
  EXPECT_EQ(Batch.numNodes(), F.T.size());
}

/// The arrays of \p T, copied out through the public views.
struct TapeArrays {
  std::vector<Interval> Values;
  std::vector<TapeOp> Ops;
  std::vector<TapeEdges> Edges;
  std::vector<NodeId> Inputs;

  explicit TapeArrays(const Tape &T)
      : Values(T.values().begin(), T.values().end()),
        Ops(T.ops().begin(), T.ops().end()),
        Edges(T.edges().begin(), T.edges().end()), Inputs(T.inputs()) {}

  diag::Expected<Tape> adopt() const {
    return Tape::adopt(Values, Ops, Edges, Inputs, {"note"});
  }
};

TEST(Tape, AdoptReproducesTheRecordedTape) {
  MultiOutTape F;
  diag::Expected<Tape> Adopted = TapeArrays(F.T).adopt();
  ASSERT_TRUE(Adopted.hasValue()) << Adopted.status().message();
  Tape &T = Adopted.value();
  ASSERT_EQ(T.size(), F.T.size());
  EXPECT_EQ(T.inputs(), F.T.inputs());
  EXPECT_EQ(T.divergences(), std::vector<std::string>{"note"});
  for (NodeId Id = 0; Id != static_cast<NodeId>(T.size()); ++Id) {
    EXPECT_EQ(T.kind(Id), F.T.kind(Id));
    EXPECT_EQ(T.value(Id), F.T.value(Id));
    EXPECT_EQ(T.adjoint(Id), Interval(0.0));
    ASSERT_EQ(T.numArgs(Id), F.T.numArgs(Id));
    for (unsigned A = 0; A != T.numArgs(Id); ++A) {
      EXPECT_EQ(T.arg(Id, A), F.T.arg(Id, A));
      EXPECT_EQ(T.partial(Id, A), F.T.partial(Id, A));
    }
  }
  // The adopted tape sweeps exactly like the recorded one.
  F.T.clearAdjoints();
  F.T.seedAdjoint(F.Q, Interval(1.0));
  F.T.reverseSweep();
  T.seedAdjoint(F.Q, Interval(1.0));
  T.reverseSweep();
  for (NodeId Id = 0; Id != static_cast<NodeId>(T.size()); ++Id)
    EXPECT_EQ(T.adjoint(Id), F.T.adjoint(Id)) << "node " << Id;
}

TEST(Tape, AdoptRefusesBrokenNodeStreams) {
  MultiOutTape F;
  const TapeArrays Good(F.T);
  const auto Refused = [](const TapeArrays &A, const char *Why) {
    diag::Expected<Tape> T = A.adopt();
    ASSERT_FALSE(T.hasValue()) << "adopted a stream with " << Why;
    EXPECT_NE(T.status().message().find("Tape::adopt"), std::string::npos)
        << T.status().message();
  };
  {
    TapeArrays A = Good; // an argument that is not an earlier node
    A.Edges[F.Q].Args[0] = F.Q;
    Refused(A, "a self-reference");
    A.Edges[F.Q].Args[0] = static_cast<NodeId>(F.T.size());
    Refused(A, "a forward reference");
    A.Edges[F.Q].Args[0] = -7;
    Refused(A, "a negative argument id");
  }
  {
    TapeArrays A = Good;
    A.Edges[F.Q].NumArgs = 3;
    Refused(A, "three arguments");
  }
  {
    TapeArrays A = Good;
    A.Ops[F.S].Kind = static_cast<OpKind>(NumOpKinds);
    Refused(A, "an unknown op kind");
  }
  {
    TapeArrays A = Good;
    A.Ops.pop_back();
    Refused(A, "arrays of different lengths");
  }
  {
    TapeArrays A = Good; // the input list must be the Input nodes
    A.Inputs.pop_back();
    Refused(A, "an input missing from the list");
    A.Inputs = {F.B, F.A};
    Refused(A, "inputs out of id order");
    A.Inputs = {F.A, F.B, F.S};
    Refused(A, "a non-Input node listed as an input");
  }
}

} // namespace
