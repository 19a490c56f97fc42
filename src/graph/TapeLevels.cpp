//===- graph/TapeLevels.cpp - S4, levels and S5 straight off the tape ----===//

#include "graph/TapeLevels.h"

#include "support/Statistics.h"

#include <algorithm>

using namespace scorpio;

namespace {

/// Pass-1 markers stored in TapeLevels::Head before it holds heads: a
/// node id there means "exactly one consuming edge, from that node".
constexpr NodeId NoConsumer = InvalidNodeId;
constexpr NodeId ManyConsumers = InvalidNodeId - 1;

} // namespace

TapeLevels scorpio::computeTapeLevels(const Tape &T,
                                      std::span<const NodeId> Outputs,
                                      bool Simplify) {
  const std::span<const TapeOp> Ops = T.ops();
  const std::span<const TapeEdges> Edges = T.edges();
  const size_t N = Ops.size();
  TapeLevels R;

  // Pass 1: each node's only consumer, or a marker.  Edges are counted
  // with multiplicity, so x * x gives x two consuming edges.
  R.Head.assign(N, NoConsumer);
  for (size_t C = 0; C != N; ++C) {
    const TapeEdges &E = Edges[C];
    for (unsigned A = 0; A != E.NumArgs; ++A) {
      NodeId &Only = R.Head[static_cast<size_t>(E.Args[A])];
      Only = Only == NoConsumer ? static_cast<NodeId>(C) : ManyConsumers;
    }
  }

  // Outputs sit at level 0; pushes below only ever write levels >= 1,
  // so a level of 0 identifies an output.
  R.Level.assign(N, -1);
  for (NodeId O : Outputs)
    if (O >= 0 && static_cast<size_t>(O) < N)
      R.Level[static_cast<size_t>(O)] = 0;

  // Pass 2, consumers before operands.  By the time node I is reached
  // every consumer has pushed its head's level into Level[I].
  for (size_t I = N; I-- > 0;) {
    const NodeId Only = R.Head[I];
    const OpKind Kind = Ops[I].Kind;
    int &Level = R.Level[I];
    if (Simplify && Level != 0 && Only >= 0 && isAccumulativeOp(Kind) &&
        Ops[static_cast<size_t>(Only)].Kind == Kind) {
      R.Head[I] = R.Head[static_cast<size_t>(Only)];
      Level = -1;
    } else {
      R.Head[I] = static_cast<NodeId>(I);
      ++R.Alive;
      R.Height = std::max(R.Height, Level + 1);
    }
    // A collapsed node's operands attach to its chain head.  The push
    // into a collapsed operand is harmless: its own turn resets it.
    const int HeadLevel = R.Level[static_cast<size_t>(R.Head[I])];
    if (HeadLevel < 0)
      continue;
    const TapeEdges &E = Edges[I];
    for (unsigned A = 0; A != E.NumArgs; ++A) {
      int &ArgLevel = R.Level[static_cast<size_t>(E.Args[A])];
      if (ArgLevel < 0 || HeadLevel + 1 < ArgLevel)
        ArgLevel = HeadLevel + 1;
    }
  }
  return R;
}

LevelGroups scorpio::groupByLevel(std::span<const int> Level, int Height) {
  LevelGroups G;
  G.Start.assign(static_cast<size_t>(std::max(Height, 0)) + 1, 0);
  for (int L : Level)
    if (L >= 0 && L < Height)
      ++G.Start[static_cast<size_t>(L) + 1];
  for (size_t L = 1; L < G.Start.size(); ++L)
    G.Start[L] += G.Start[L - 1];
  G.Ids.resize(G.Start.back());
  // Start[L] serves as level L's fill cursor and ends up at level L+1's
  // start; shifting by one restores the starts.
  for (size_t I = 0; I != Level.size(); ++I)
    if (Level[I] >= 0 && Level[I] < Height)
      G.Ids[G.Start[static_cast<size_t>(Level[I])]++] =
          static_cast<NodeId>(I);
  for (size_t L = G.Start.size() - 1; L != 0; --L)
    G.Start[L] = G.Start[L - 1];
  G.Start[0] = 0;
  return G;
}

int scorpio::findVarianceLevel(std::span<const int> Level, int Height,
                               std::span<const double> Significance,
                               double Delta, double Divisor) {
  const LevelGroups G = groupByLevel(Level, Height);
  std::vector<double> Sig;
  Sig.reserve(G.Ids.size());
  for (int L = 1; L < Height; ++L) {
    const std::span<const NodeId> Ids = G.level(L);
    if (Ids.size() < 2)
      continue;
    Sig.clear();
    for (NodeId Id : Ids)
      Sig.push_back(Significance[static_cast<size_t>(Id)]);
    if (Divisor != 1.0)
      for (double &S : Sig)
        S /= Divisor;
    if (variance(Sig) > Delta)
      return L;
  }
  return -1;
}
