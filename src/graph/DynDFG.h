//===- graph/DynDFG.h - Significance-annotated dynamic data flow graph ----===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DynDFG as an inspectable graph: one object per node, with its
/// operands, consumers, label, significance and level.  It is a *view*,
/// built on demand (Analysis::graph()) for the callers that walk nodes:
/// DOT export, task suggestion, scorpio-lint --graph and full shard
/// verification.  analyse() itself never builds one; it reads S4/S5
/// straight off the tape (graph/TapeLevels.h), and so does this view:
///
///  * fromTape() copies the tape's nodes and takes the raw levels and
///    the S4 collapse plan from computeTapeLevels();
///  * simplify() — step S4 — applies that plan: aggregation chains
///    (`res = res + term[i]`) collapse into their head, so pure
///    accumulation does not count as "computation" (Figure 3a -> 3b);
///  * findSignificanceVarianceLevel() — step S5 — runs the shared
///    findVarianceLevel() over the view's alive levels;
///  * truncatedAbove() implements G.removeAbove(L+1) from the paper's
///    pseudocode.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_GRAPH_DYNDFG_H
#define SCORPIO_GRAPH_DYNDFG_H

#include "graph/TapeLevels.h"
#include "support/Diag.h"
#include "tape/Tape.h"

#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace scorpio {

/// One vertex of the (possibly simplified) DynDFG.
struct DfgNode {
  OpKind Kind = OpKind::Input;
  Interval Value;
  /// Raw significance S_y(u) = w([u] * grad_[u][y]) (Eq. 11).
  double Significance = 0.0;
  /// Distance from the outputs (outputs are 0, every other node is 1 +
  /// the minimum level of its consumers); -1 for nodes that do not
  /// reach any output (dead code).
  int Level = -1;
  /// User-facing name when the node was registered via
  /// INPUT/INTERMEDIATE/OUTPUT; empty otherwise.
  std::string Label;
  bool IsOutput = false;
  bool Alive = true;
  /// Ids (into DynDFG::node()) of the operand nodes.
  std::vector<NodeId> Preds;
  /// Ids of consumer nodes (derived from Preds).
  std::vector<NodeId> Succs;
};

/// Significance-annotated DAG with the Algorithm-1 transformations.
class DynDFG {
public:
  DynDFG() = default;

  /// Builds the graph from a tape.  \p Significance must have one entry
  /// per tape node; \p Labels maps tape node ids to user names;
  /// \p Outputs lists the registered output nodes.  A size mismatch or
  /// a label or output id outside the tape is diagnosed and yields an
  /// empty graph.
  static DynDFG fromTape(const Tape &T,
                         const std::vector<double> &Significance,
                         const std::map<NodeId, std::string> &Labels,
                         const std::vector<NodeId> &Outputs);

  size_t size() const { return Nodes.size(); }
  size_t numAlive() const;

  /// True iff \p Id names a node of this graph.  Ids also arrive from
  /// callers (task suggestions, tooling), so node() live-checks them and
  /// recovers with a neutral fallback instead of reading out of bounds
  /// in Release builds.
  bool isValidNode(NodeId Id) const {
    return Id >= 0 && static_cast<size_t>(Id) < Nodes.size();
  }

  const DfgNode &node(NodeId Id) const {
    if (!SCORPIO_CHECK(isValidNode(Id), diag::ErrC::OutOfRange,
                       "DynDFG::node: node id out of range"))
      return fallbackNode();
    return Nodes[static_cast<size_t>(Id)];
  }
  DfgNode &node(NodeId Id) {
    if (!SCORPIO_CHECK(isValidNode(Id), diag::ErrC::OutOfRange,
                       "DynDFG::node: node id out of range"))
      return fallbackNode();
    return Nodes[static_cast<size_t>(Id)];
  }

  /// Step S4: collapse aggregation chains.  A node v is collapsed into
  /// its unique consumer s when v's operation is accumulative, v has
  /// exactly one consumer, and s performs the same operation.  The
  /// non-chain operands of collapsed nodes re-attach to the surviving
  /// chain head, and levels become those of the simplified graph.
  /// Applies the plan fromTape() computed, once: a second call, or a
  /// call on a graph that did not come from fromTape(), changes nothing.
  void simplify();

  /// Height of the graph: 1 + the maximum level of any alive node.
  int height() const;

  /// Ids of all alive nodes with Level == L, in id order.
  std::vector<NodeId> nodesAtLevel(int L) const;

  /// Significances of all alive nodes at level \p L.
  std::vector<double> significancesAtLevel(int L) const;

  /// Step S5: returns the smallest level L >= 1 whose significances have
  /// population variance > \p Delta, or -1 when no such level exists
  /// (all levels are (almost) equally significant down to the inputs).
  ///
  /// \p Divisor normalizes each significance as S / Divisor before the
  /// variance test — computing exactly what a scratch copy of the graph
  /// with scaled significances would, without materializing the copy.
  int findSignificanceVarianceLevel(double Delta,
                                    double Divisor = 1.0) const;

  /// The paper's G.removeAbove(L+1): returns a copy containing only the
  /// alive nodes with 0 <= Level <= MaxLevel.
  DynDFG truncatedAbove(int MaxLevel) const;

  /// Emits the graph in Graphviz DOT format; node labels show the op,
  /// any user name, and the significance.
  void writeDot(std::ostream &OS) const;

private:
  /// Neutral scratch node returned by node() when the id check fails:
  /// dead (Alive = false) so traversals skip it, re-zeroed on every
  /// request so writes through the mutable overload cannot leak between
  /// failures.  Thread-local because ParallelAnalysis shards query
  /// graphs concurrently.
  static DfgNode &fallbackNode() {
    thread_local DfgNode Fallback;
    Fallback = DfgNode();
    Fallback.Alive = false;
    return Fallback;
  }

  std::vector<DfgNode> Nodes;
  /// S4 plan from fromTape(), consumed by simplify().
  TapeLevels Collapse;
};

} // namespace scorpio

#endif // SCORPIO_GRAPH_DYNDFG_H
