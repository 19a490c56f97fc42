//===- graph/TapeLevels.h - S4, levels and S5 straight off the tape -------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-processing side of Algorithm 1 as array passes over a
/// recorded tape, without building a graph:
///
///  * computeTapeLevels() runs step S4 (aggregation-chain collapsing)
///    and assigns every node its level, the BFS distance from the
///    outputs in the (simplified) DynDFG;
///  * findVarianceLevel() runs step S5 over those levels.
///
/// The tape's edge invariant (every argument id is smaller than its
/// consumer's id, tape/Tape.h) makes two linear passes enough:
///
///  1. count each node's consuming edges, remembering the consumer when
///     there is exactly one;
///  2. walk the ids in reverse.  A node collapses (S4) when it is an
///     accumulative operation, not an output, and its only consuming
///     edge goes into the same operation; it then aliases its
///     consumer's head.  Every other node's level is 1 + the minimum
///     level of the heads of its consumers, and every consumer has
///     already been walked, so that level is final when it is read.
///
/// This is the only S4/S5 implementation: analyse() calls it directly,
/// and the DynDFG view (graph/DynDFG.h) takes its alive flags and levels
/// from it.  The graph verifier's level BFS (verify/GraphVerifier.cpp)
/// stays independent of it on purpose.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_GRAPH_TAPELEVELS_H
#define SCORPIO_GRAPH_TAPELEVELS_H

#include "tape/Tape.h"

#include <cstdint>
#include <span>
#include <vector>

namespace scorpio {

/// Per-node result of S4 plus level assignment over one tape.
struct TapeLevels {
  /// 0 for outputs; 1 + the minimum level of the node's consumers
  /// (after S4) otherwise; -1 for collapsed nodes and for nodes that
  /// reach no output.
  std::vector<int> Level;
  /// The alive node each tape node stands for after S4: the node itself
  /// when it survives, the head of its collapsed chain otherwise.
  std::vector<NodeId> Head;
  /// Number of nodes S4 kept (every node when Simplify is off).
  size_t Alive = 0;
  /// 1 + the largest level of any alive node; 0 when none reaches an
  /// output.
  int Height = 0;

  bool isAlive(NodeId Id) const {
    return Head[static_cast<size_t>(Id)] == Id;
  }
};

/// S4 (when \p Simplify) and the level of every node of \p T, whose
/// registered outputs are \p Outputs (ids outside the tape are ignored).
/// Inputs and outputs never collapse.
TapeLevels computeTapeLevels(const Tape &T, std::span<const NodeId> Outputs,
                             bool Simplify);

/// Node ids grouped by level, in id order within each level: the nodes
/// at level L are Ids[Start[L], Start[L+1]).
struct LevelGroups {
  std::vector<uint32_t> Start;
  std::vector<NodeId> Ids;

  std::span<const NodeId> level(int L) const {
    return std::span<const NodeId>(Ids).subspan(
        Start[static_cast<size_t>(L)],
        Start[static_cast<size_t>(L) + 1] - Start[static_cast<size_t>(L)]);
  }
};

/// Buckets the nodes with 0 <= Level[I] < \p Height by level (a counting
/// sort, so each level keeps node-id order).
LevelGroups groupByLevel(std::span<const int> Level, int Height);

/// Step S5: the smallest level L >= 1 whose significances, each divided
/// by \p Divisor, have population variance > \p Delta; -1 when no level
/// does.  Levels with fewer than two nodes never qualify.  Nodes are
/// summed in id order, so the result is the same double-for-double
/// whatever produced \p Level.
int findVarianceLevel(std::span<const int> Level, int Height,
                      std::span<const double> Significance, double Delta,
                      double Divisor);

} // namespace scorpio

#endif // SCORPIO_GRAPH_TAPELEVELS_H
