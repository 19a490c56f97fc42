//===- apps/maclaurin/Maclaurin.cpp - The paper's running example ---------===//

#include "apps/maclaurin/Maclaurin.h"

#include "core/Macros.h"
#include "energy/Energy.h"
#include "fastmath/FastMath.h"

#include <cassert>
#include <vector>

using namespace scorpio;
using namespace scorpio::apps;

/// Accurate integer power by repeated multiplication — the "task" body of
/// Listing 7.  Linear in I on purpose: the task cost mirrors the term
/// index, as in the paper's pow().
static double powAccurate(double X, int I) {
  double R = 1.0;
  for (int K = 0; K < I; ++K)
    R *= X;
  return R;
}

double scorpio::apps::maclaurinSeries(double X, int N) {
  assert(N > 0 && "series needs at least one term");
  double Result = 0.0;
  for (int I = 0; I < N; ++I) {
    const double Term = powAccurate(X, I);
    Result += Term;
  }
  return Result;
}

void scorpio::apps::recordMaclaurin(Analysis &A, double XCenter,
                                    double HalfWidth, int N) {
  assert(N > 0 && "series needs at least one term");
  // One input plus a pow and an accumulation node per term.
  A.tape().reserve(2 * static_cast<size_t>(N) + 4);
  IAValue X;
  A.registerInput(X, "x", XCenter - HalfWidth, XCenter + HalfWidth);
  IAValue Result = 0.0;
  for (int I = 0; I < N; ++I) {
    IAValue Term = pow(X, I);
    A.registerIntermediate(Term, "term" + std::to_string(I));
    Result = Result + Term;
  }
  A.registerOutput(Result, "result");
}

AnalysisResult scorpio::apps::analyseMaclaurin(double XCenter,
                                               double HalfWidth, int N) {
  Analysis A;
  recordMaclaurin(A, XCenter, HalfWidth, N);
  return A.analyse();
}

double scorpio::apps::maclaurinTasks(rt::TaskRuntime &RT, double X, int N,
                                     double WaitRatio) {
  assert(N > 0 && "series needs at least one term");
  std::vector<double> Temp(static_cast<size_t>(N), 0.0);
  Temp[0] = 1.0; // pow(x, 0) == 1: significance 0, computed in place
  for (int I = 1; I < N; ++I) {
    double *Term = &Temp[static_cast<size_t>(I)];
    rt::TaskOptions Opts;
    Opts.Significance = maclaurinTaskSignificance(I, N);
    Opts.Label = "maclaurin";
    Opts.ApproxFn = [Term, X, I] {
      *Term = fastmath::powIntFast(X, I);
      WorkMeter::global().add(4.0);
    };
    RT.spawn(
        [Term, X, I] {
          *Term = powAccurate(X, I);
          WorkMeter::global().add(static_cast<double>(I));
        },
        std::move(Opts));
  }
  RT.taskwait("maclaurin", WaitRatio);

  double Result = 0.0;
  for (int I = 0; I < N; ++I)
    Result += Temp[static_cast<size_t>(I)];
  return Result;
}
