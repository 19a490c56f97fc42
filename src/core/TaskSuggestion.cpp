//===- core/TaskSuggestion.cpp - Analysis-to-tasks bridge ----------------===//

#include "core/TaskSuggestion.h"

#include "support/Diag.h"

#include <algorithm>
#include <ostream>

using namespace scorpio;

std::vector<TaskSuggestion>
scorpio::suggestTasks(const DynDFG &G, const AnalysisResult &Result,
                      const TaskSuggestionOptions &Options) {
  // Significances of a diverged run are meaningless (paper Section 2.2);
  // no suggestion is safer than a wrong one.
  SCORPIO_REQUIRE(Result.isValid(), diag::ErrC::InvalidState,
                  "suggestTasks: cannot suggest tasks from a diverged run",
                  {});
  int Level = Options.Level >= 0 ? Options.Level : Result.varianceLevel();
  if (Level < 0)
    Level = 1; // no variance detected: default to the first level

  std::vector<TaskSuggestion> Out;
  for (NodeId Id : G.nodesAtLevel(Level)) {
    const DfgNode &N = G.node(Id);
    TaskSuggestion T;
    T.Node = Id;
    T.Label = N.Label.empty() ? "u" + std::to_string(Id) : N.Label;
    T.Normalized = Result.normalizedSignificanceOf(Id);
    T.ReplaceableByConstant = T.Normalized < Options.ConstantThreshold;
    T.Inputs = N.Preds;
    Out.push_back(std::move(T));
  }

  // Rank-preserving clause significances: most significant task gets
  // N/(N+1), least gets 1/(N+1) — all strictly inside (0, 1) so nothing
  // is pinned to always-accurate and the ratio knob has full authority
  // (the Listing-7 (N - i + 1) / (N + 2) idea, generalized).
  std::vector<size_t> Order(Out.size());
  for (size_t I = 0; I != Out.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Out[A].Normalized > Out[B].Normalized;
  });
  const double Denom = static_cast<double>(Out.size()) + 1.0;
  for (size_t Rank = 0; Rank != Order.size(); ++Rank)
    Out[Order[Rank]].ClauseSignificance =
        (static_cast<double>(Out.size() - Rank)) / Denom;

  std::stable_sort(Out.begin(), Out.end(),
                   [](const TaskSuggestion &A, const TaskSuggestion &B) {
                     if (A.ClauseSignificance != B.ClauseSignificance)
                       return A.ClauseSignificance > B.ClauseSignificance;
                     return A.Node < B.Node;
                   });
  return Out;
}

void scorpio::printTaskSuggestions(
    const std::vector<TaskSuggestion> &Suggestions, std::ostream &OS) {
  OS << "suggested task partitioning (" << Suggestions.size()
     << " tasks):\n";
  for (const TaskSuggestion &T : Suggestions) {
    OS << "  " << T.Label << ": significance(" << T.ClauseSignificance
       << ")  [S_rel " << T.Normalized << "]";
    if (T.ReplaceableByConstant)
      OS << "  -- replaceable by a constant";
    if (!T.Inputs.empty()) {
      OS << "  inputs:";
      for (NodeId In : T.Inputs)
        OS << " u" << In;
    }
    OS << "\n";
  }
}
