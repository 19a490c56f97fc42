//===- examples/quickstart.cpp - End-to-end scorpio walkthrough -----------===//
//
// The complete workflow of the paper on its running example, in one
// file:
//
//   1. write the kernel over scorpio::IAValue instead of double
//      (Listing 5 -> Listing 6);
//   2. register inputs with their value ranges, intermediates, and the
//      output (Table 1 macros);
//   3. ANALYSE(): interval adjoint sweep -> per-node significances,
//      simplified DynDFG, S5 task level (Figure 3);
//   4. restructure the kernel into significance-tagged tasks with
//      approximate versions (Listing 7);
//   5. run at different taskwait ratios and watch quality degrade
//      gracefully while energy drops.
//
// Build and run:  ./examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "core/Macros.h"
#include "core/TaskSuggestion.h"
#include "energy/Energy.h"
#include "fastmath/FastMath.h"
#include "runtime/TaskRuntime.h"
#include "support/Table.h"

#include <cmath>
#include <fstream>
#include <iostream>

using namespace scorpio;

namespace {

/// Step 1+2: the annotated kernel (paper Listing 6).  Same code shape as
/// the original double version — only the scalar type changed and the
/// registration calls were added.  Records into the thread's current
/// Analysis, which the macros address.
AnalysisResult analyseSeries(double XCenter, int N) {
  IAValue X(XCenter);
  SCORPIO_INPUT(X, XCenter - 0.5, XCenter + 0.5);
  IAValue Result = 0.0;
  for (int I = 0; I < N; ++I) {
    IAValue Term = pow(X, I);
    SCORPIO_INTERMEDIATE_NAMED(Term, "term" + std::to_string(I));
    Result = Result + Term;
  }
  SCORPIO_OUTPUT(Result);
  return SCORPIO_ANALYSE();
}

/// Step 4: the task-restructured kernel (paper Listing 7).
double seriesWithTasks(rt::TaskRuntime &RT, double X, int N,
                       double WaitRatio) {
  std::vector<double> Temp(static_cast<size_t>(N), 0.0);
  Temp[0] = 1.0; // significance 0: computed in place
  for (int I = 1; I < N; ++I) {
    double *Out = &Temp[static_cast<size_t>(I)];
    rt::TaskOptions Opts;
    Opts.Significance =
        static_cast<double>(N - I + 1) / static_cast<double>(N + 2);
    Opts.Label = "series";
    Opts.ApproxFn = [Out, X, I] { // light-weight float pow
      *Out = fastmath::powIntFast(X, I);
      WorkMeter::global().add(4.0);
    };
    RT.spawn(
        [Out, X, I] { // accurate version
          double R = 1.0;
          for (int K = 0; K < I; ++K)
            R *= X;
          *Out = R;
          WorkMeter::global().add(static_cast<double>(I));
        },
        std::move(Opts));
  }
  RT.taskwait("series", WaitRatio);
  double Result = 0.0;
  for (double T : Temp)
    Result += T;
  return Result;
}

} // namespace

int main() {
  const double X = 0.25;
  const int N = 12;

  std::cout << "scorpio quickstart: f(x) = sum_{i<" << N
            << "} x^i at x = " << X << " +- 0.5\n\n";

  // Step 3: significance analysis.
  std::cout << "[1] significance analysis (single profile run)\n";
  Analysis A;
  const AnalysisResult R = analyseSeries(X, N);
  if (!R.isValid()) {
    R.print(std::cout);
    return 1;
  }
  R.print(std::cout);
  std::ofstream Dot("quickstart_dyndfg.dot");
  const DynDFG G = A.graph(R);
  G.writeDot(Dot);
  std::cout << "simplified DynDFG written to quickstart_dyndfg.dot "
               "(render with: dot -Tpng ...)\n\n";

  // The mechanized version of "the developer inspects Gout":
  printTaskSuggestions(suggestTasks(G, R), std::cout);
  std::cout << "\n";

  // Step 5: execute at different ratios.
  std::cout << "[2] significance-driven execution\n";
  const double Exact = 1.0 / (1.0 - X); // closed form for reference
  Table T({"taskwait ratio", "result", "error vs exact",
           "accurate/approx tasks", "work units"});
  for (double Ratio : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    rt::TaskRuntime RT;
    EnergyProbe Probe;
    const double Result = seriesWithTasks(RT, X, N, Ratio);
    const EnergyReport E = Probe.report();
    T.addRow({formatFixed(Ratio, 2), formatDouble(Result, 10),
              formatDouble(std::fabs(Result - Exact), 3),
              std::to_string(RT.totals().NumAccurate) + "/" +
                  std::to_string(RT.totals().NumApproximate),
              formatFixed(E.WorkUnits, 0)});
  }
  T.print(std::cout);
  std::cout << "\nLower ratios run more tasks in their cheap float "
               "version: less work, slightly less accuracy —\nthe "
               "quality/energy knob of the paper.\n";
  return 0;
}
