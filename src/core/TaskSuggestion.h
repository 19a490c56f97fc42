//===- core/TaskSuggestion.h - Analysis-to-tasks bridge -------------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's workflow ends with the *programmer* inspecting Gout "to
/// identify tasks which compute a term" (Section 3.2) and hand-assigning
/// significance clauses.  This module mechanizes that inspection — the
/// "first step towards automating the exploitation of analysis
/// information to partition code in tasks" the paper claims over Topaz
/// (Section 5):
///
///   suggestTasks(graph, result) takes an AnalysisResult and its DynDFG
///   view (Analysis::graph()), reads the detected variance level L
///   (step S5), and emits one TaskSuggestion per node at that level: its label (user name when registered), its
///   normalized significance, the [0, 1] runtime significance to put in
///   the task clause (rank-preserving, with ~zero-significance nodes
///   flagged as droppable constants), and the ids of the level-(L+1)
///   nodes feeding it — the values an approximate version may
///   approximate.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_CORE_TASKSUGGESTION_H
#define SCORPIO_CORE_TASKSUGGESTION_H

#include "core/Analysis.h"

#include <string>
#include <vector>

namespace scorpio {

/// One suggested task (a node of the cut level).
struct TaskSuggestion {
  /// Node in the simplified DynDFG that the task's output corresponds to.
  NodeId Node = InvalidNodeId;
  /// The registered variable name when available, else "u<id>".
  std::string Label;
  /// Normalized significance of the node (output = 1 scale).
  double Normalized = 0.0;
  /// Suggested significance(...) clause value in [0, 1]: proportional
  /// rank of this node among its level's nodes, so the runtime's ratio
  /// knob enables tasks in analysis order.
  double ClauseSignificance = 0.0;
  /// True when the node's significance is (numerically) zero: the paper
  /// notes such computations "can be substituted by a constant value".
  bool ReplaceableByConstant = false;
  /// Level-(L+1) predecessor nodes: the inputs the task consumes and an
  /// approximate version may degrade.
  std::vector<NodeId> Inputs;
};

/// Options for suggestTasks().
struct TaskSuggestionOptions {
  /// Use this level instead of the S5-detected one (-1 = use detected;
  /// if neither is available, level 1 is used).
  int Level = -1;
  /// Normalized significance below which a node counts as a constant.
  double ConstantThreshold = 1e-9;
};

/// Derives task suggestions from an analysis result (requires a valid
/// result) and its DynDFG view \p Graph, as Analysis::graph() builds it
/// with the options \p Result was analysed with.  Suggestions are
/// ordered by descending clause significance, ties by node id.
std::vector<TaskSuggestion>
suggestTasks(const DynDFG &Graph, const AnalysisResult &Result,
             const TaskSuggestionOptions &Options = {});

/// Renders the suggestions as a short human-readable report (the
/// restructuring hints a developer would act on).
void printTaskSuggestions(const std::vector<TaskSuggestion> &Suggestions,
                          std::ostream &OS);

} // namespace scorpio

#endif // SCORPIO_CORE_TASKSUGGESTION_H
