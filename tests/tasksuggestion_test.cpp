//===- tests/tasksuggestion_test.cpp - Analysis-to-tasks bridge tests -----===//

#include "core/TaskSuggestion.h"

#include "apps/maclaurin/Maclaurin.h"
#include "runtime/TaskRuntime.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace scorpio;

namespace {

/// The Maclaurin analysis of Listing 6 with its DynDFG view.
struct Maclaurin {
  Analysis A;
  AnalysisResult R;
  DynDFG G;

  explicit Maclaurin(int N) {
    apps::recordMaclaurin(A, 0.25, 0.5, N);
    R = A.analyse();
    G = A.graph(R);
  }
  std::vector<TaskSuggestion>
  tasks(const TaskSuggestionOptions &Opts = {}) const {
    return suggestTasks(G, R, Opts);
  }
};

TEST(TaskSuggestion, OneTaskPerTermNode) {
  const Maclaurin M(5);
  const auto Tasks = M.tasks();
  EXPECT_EQ(Tasks.size(), 5u); // the five terms at level 1
}

TEST(TaskSuggestion, LabelsComeFromRegistration) {
  const Maclaurin M(4);
  const auto Tasks = M.tasks();
  for (const TaskSuggestion &T : Tasks)
    EXPECT_EQ(T.Label.rfind("term", 0), 0u) << T.Label;
}

TEST(TaskSuggestion, OrderedBySignificance) {
  const Maclaurin M(6);
  const auto Tasks = M.tasks();
  // term1 first (most significant), term0 last (the constant).
  EXPECT_EQ(Tasks.front().Label, "term1");
  EXPECT_EQ(Tasks.back().Label, "term0");
  for (size_t I = 1; I < Tasks.size(); ++I)
    EXPECT_LE(Tasks[I].ClauseSignificance,
              Tasks[I - 1].ClauseSignificance);
}

TEST(TaskSuggestion, ConstantTermFlagged) {
  const Maclaurin M(5);
  const auto Tasks = M.tasks();
  int Flagged = 0;
  for (const TaskSuggestion &T : Tasks)
    if (T.ReplaceableByConstant) {
      ++Flagged;
      EXPECT_EQ(T.Label, "term0"); // pow(x, 0) == 1
    }
  EXPECT_EQ(Flagged, 1);
}

TEST(TaskSuggestion, ClauseValuesStrictlyInsideUnitInterval) {
  const Maclaurin M(8);
  for (const TaskSuggestion &T : M.tasks()) {
    EXPECT_GT(T.ClauseSignificance, 0.0);
    EXPECT_LT(T.ClauseSignificance, 1.0);
  }
}

TEST(TaskSuggestion, InputsPointIntoNextLevel) {
  const Maclaurin M(5);
  for (const TaskSuggestion &T : M.tasks())
    for (NodeId In : T.Inputs)
      EXPECT_EQ(M.G.node(In).Level, 2) << T.Label; // the input x
}

TEST(TaskSuggestion, ExplicitLevelOverride) {
  const Maclaurin M(5);
  TaskSuggestionOptions Opts;
  Opts.Level = 0; // the output itself
  const auto Tasks = M.tasks(Opts);
  ASSERT_EQ(Tasks.size(), 1u);
  EXPECT_EQ(Tasks[0].Label, "result");
}

TEST(TaskSuggestion, ClauseValuesDriveRuntimeInAnalysisOrder) {
  // Feed the suggested clause significances to the real runtime: at
  // ratio r, the accurately executed tasks must be exactly the top-
  // ranked suggestions.
  const Maclaurin M(6);
  const auto Tasks = M.tasks();
  std::vector<double> Sig;
  std::vector<bool> HasApprox;
  for (const TaskSuggestion &T : Tasks) {
    Sig.push_back(T.ClauseSignificance);
    HasApprox.push_back(true);
  }
  const auto Fates = rt::TaskRuntime::decideFates(Sig, HasApprox, 0.5);
  // ceil(0.5 * 6) = 3 accurate: the first three suggestions.
  for (size_t I = 0; I != Fates.size(); ++I)
    EXPECT_EQ(Fates[I] == rt::TaskFate::Accurate, I < 3) << I;
}

TEST(TaskSuggestion, PrintReport) {
  const Maclaurin M(4);
  std::ostringstream OS;
  printTaskSuggestions(M.tasks(), OS);
  const std::string S = OS.str();
  EXPECT_NE(S.find("term1"), std::string::npos);
  EXPECT_NE(S.find("significance("), std::string::npos);
  EXPECT_NE(S.find("replaceable by a constant"), std::string::npos);
}

TEST(TaskSuggestion, FallsBackToLevelOneWithoutVariance) {
  // Uniform significance: S5 finds nothing; suggestions default to L=1.
  Analysis A;
  IAValue X = A.input("x", 0.0, 1.0);
  IAValue U = X * 2.0;
  A.registerIntermediate(U, "u");
  IAValue V = X * 2.0;
  A.registerIntermediate(V, "v");
  IAValue Y = U + V;
  A.registerOutput(Y, "y");
  const AnalysisResult R = A.analyse();
  ASSERT_EQ(R.varianceLevel(), -1);
  const auto Tasks = suggestTasks(A.graph(R), R);
  EXPECT_EQ(Tasks.size(), 2u);
}

} // namespace
