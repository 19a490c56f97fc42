//===- bench/ablation_analysis.cpp - Design-choice ablations --------------===//
//
// Ablations for the design decisions DESIGN.md calls out:
//
//  1. output seeding — the paper's single combined-seed sweep versus the
//     exact per-output mode (cancellation behaviour and cost);
//  2. significance metric — Eq. 11's worst-case interval product versus
//     width x derivative-magnitude, on the BlackScholes block ranking
//     (where the paper's own overestimation caveat bites);
//  3. S4 simplification on/off — effect on the detected task level of
//     the Maclaurin example;
//  4. delta sensitivity of the S5 variance detector.
//
//===----------------------------------------------------------------------===//

#include "apps/blackscholes/BlackScholes.h"
#include "apps/maclaurin/Maclaurin.h"
#include "core/Analysis.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <cmath>
#include <iostream>

using namespace scorpio;
using namespace scorpio::apps;

namespace {

/// Ablation 1: combined vs per-output seeding on a symmetric vector
/// function with opposing outputs, plus wall-clock cost on a wide one.
bool ablationOutputSeeding() {
  std::cout << "--- ablation 1: output seeding mode ---\n";
  auto Significance = [](AnalysisOptions::OutputMode Mode) {
    Analysis A;
    IAValue X = A.input("x", 0.0, 1.0);
    IAValue Y0 = X * 1.0;
    IAValue Y1 = -X;
    A.registerOutput(Y0, "y0");
    A.registerOutput(Y1, "y1");
    AnalysisOptions Opts;
    Opts.Mode = Mode;
    return A.analyse(Opts).find("x")->Significance;
  };
  const double Combined =
      Significance(AnalysisOptions::OutputMode::CombinedSeed);
  const double PerOutput =
      Significance(AnalysisOptions::OutputMode::PerOutput);

  auto CostOf = [](AnalysisOptions::OutputMode Mode) {
    Timer T;
    Analysis A;
    IAValue X = A.input("x", 0.0, 1.0);
    for (int I = 0; I < 64; ++I) {
      IAValue Y = sin(X * (1.0 + 0.1 * I));
      A.registerOutput(Y, "y" + std::to_string(I));
    }
    AnalysisOptions Opts;
    Opts.Mode = Mode;
    (void)A.analyse(Opts);
    return T.milliseconds();
  };
  const double CostCombined =
      CostOf(AnalysisOptions::OutputMode::CombinedSeed);
  const double CostPerOutput =
      CostOf(AnalysisOptions::OutputMode::PerOutput);

  Table T({"mode", "S(x) for y0=x, y1=-x", "64-output analysis (ms)"});
  T.addRow({"CombinedSeed (paper)", formatDouble(Combined, 3),
            formatFixed(CostCombined, 3)});
  T.addRow({"PerOutput (exact)", formatDouble(PerOutput, 3),
            formatFixed(CostPerOutput, 3)});
  T.print(std::cout);
  std::cout << "combined seeding cancels opposing outputs to "
            << formatDouble(Combined, 2)
            << "; per-output preserves the true total of "
            << formatDouble(PerOutput, 2) << " at higher sweep cost.\n\n";
  return Combined < 1e-9 && std::fabs(PerOutput - 2.0) < 1e-6;
}

/// Ablation 2: Eq. 11 vs width x |derivative| on BlackScholes blocks.
bool ablationMetric() {
  std::cout << "--- ablation 2: significance metric (BlackScholes "
               "blocks) ---\n";
  const Option Center{100.0, 117.6, 0.05, 0.2, 1.0, true};

  auto Blocks = [&](AnalysisOptions::Metric Metric) {
    Analysis A;
    auto In = [&](const char *N, double V) {
      return A.input(N, V * 0.85, V * 1.15);
    };
    IAValue S = In("s", Center.S), K = In("k", Center.K),
            R = In("r", Center.R), V = In("v", Center.V),
            T = In("t", Center.T);
    IAValue SqrtT = sqrt(T);
    A.registerIntermediate(SqrtT, "D");
    IAValue Disc = exp(-R * T);
    A.registerIntermediate(Disc, "C");
    IAValue D1 = (log(S / K) + (R + 0.5 * V * V) * T) / (V * SqrtT);
    A.registerIntermediate(D1, "A");
    IAValue D2 = D1 - V * SqrtT;
    IAValue Nd1 = 0.5 * (erf(D1 * M_SQRT1_2) + 1.0);
    A.registerIntermediate(Nd1, "B");
    IAValue Nd2 = 0.5 * (erf(D2 * M_SQRT1_2) + 1.0);
    IAValue Price = S * Nd1 - K * Disc * Nd2;
    A.registerOutput(Price, "y");
    AnalysisOptions Opts;
    Opts.SignificanceMetric = Metric;
    const AnalysisResult Res = A.analyse(Opts);
    return std::array<double, 4>{
        Res.find("A")->Normalized, Res.find("B")->Normalized,
        Res.find("C")->Normalized, Res.find("D")->Normalized};
  };

  const auto Eq11 = Blocks(AnalysisOptions::Metric::Eq11WorstCase);
  const auto WxD =
      Blocks(AnalysisOptions::Metric::WidthTimesDerivative);

  Table T({"metric", "A: d1", "B: CNDF", "C: exp(-rT)", "D: sqrt(T)",
           "paper ranking A>B>>C,D?"});
  auto RankOk = [](const std::array<double, 4> &S) {
    return S[0] > S[1] && S[1] > 3.0 * S[2] && S[1] > 3.0 * S[3];
  };
  T.addRow({"Eq. 11 worst case", formatFixed(Eq11[0], 3),
            formatFixed(Eq11[1], 3), formatFixed(Eq11[2], 3),
            formatFixed(Eq11[3], 3), RankOk(Eq11) ? "yes" : "no"});
  T.addRow({"width x |deriv|", formatFixed(WxD[0], 3),
            formatFixed(WxD[1], 3), formatFixed(WxD[2], 3),
            formatFixed(WxD[3], 3), RankOk(WxD) ? "yes" : "no"});
  T.print(std::cout);
  std::cout << "Eq. 11's worst-case product lets the large point values "
               "of C and D absorb adjoint width\n(the paper's "
               "overestimation caveat); width x |deriv| recovers the "
               "paper's ranking.\n\n";
  return RankOk(WxD) && !RankOk(Eq11);
}

/// Ablation 3: S4 simplification on/off.
bool ablationSimplify() {
  std::cout << "--- ablation 3: S4 aggregation-chain collapsing ---\n";
  // One analysis per setting; returns its level-1 width.
  Table T({"S4", "alive nodes", "height", "level-1 nodes",
           "S5 variance level"});
  auto Run = [&T](const char *Name, bool Simplify) {
    Analysis A;
    IAValue X = A.input("x", -0.25, 0.75);
    IAValue Result = 0.0;
    for (int I = 0; I < 8; ++I) {
      IAValue Term = pow(X, I);
      Result = Result + Term;
    }
    A.registerOutput(Result, "result");
    AnalysisOptions Opts;
    Opts.Simplify = Simplify;
    const AnalysisResult R = A.analyse(Opts);
    const DynDFG G = A.graph(R, Opts);
    const size_t Level1 = G.nodesAtLevel(1).size();
    T.addRow({Name, std::to_string(G.numAlive()),
              std::to_string(G.height()), std::to_string(Level1),
              std::to_string(R.varianceLevel())});
    return Level1;
  };
  const size_t With = Run("on (paper)", true);
  const size_t Without = Run("off", false);
  T.print(std::cout);
  std::cout << "without S4 the accumulator chain buries the terms at "
               "different levels, so no single level\nexposes the "
               "per-term significance variance the task partitioning "
               "needs.\n\n";
  return With == 8 && Without < 8;
}

/// Ablation 4: S5 delta sensitivity.
bool ablationDelta() {
  std::cout << "--- ablation 4: S5 variance threshold delta ---\n";
  Table T({"delta", "detected level"});
  bool SawDetected = false, SawUndetected = false;
  for (double Delta : {1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1.0}) {
    Analysis A;
    IAValue X = A.input("x", -0.25, 0.75);
    IAValue Result = 0.0;
    for (int I = 0; I < 5; ++I)
      Result = Result + pow(X, I);
    A.registerOutput(Result, "result");
    AnalysisOptions Opts;
    Opts.Delta = Delta;
    const int L = A.analyse(Opts).varianceLevel();
    SawDetected = SawDetected || L == 1;
    SawUndetected = SawUndetected || L == -1;
    T.addRow({formatDouble(Delta, 1), std::to_string(L)});
  }
  T.print(std::cout);
  std::cout << "delta is the programmer's sensitivity knob (Section "
               "3.1): small deltas detect the term level,\noversized "
               "deltas report \"all levels equally significant\".\n\n";
  return SawDetected && SawUndetected;
}

} // namespace

int main() {
  std::cout << "=== Ablations of the analysis design choices ===\n\n";
  const bool Ok1 = ablationOutputSeeding();
  const bool Ok2 = ablationMetric();
  const bool Ok3 = ablationSimplify();
  const bool Ok4 = ablationDelta();
  std::cout << "shape checks: seeding " << (Ok1 ? "PASS" : "FAIL")
            << ", metric " << (Ok2 ? "PASS" : "FAIL") << ", simplify "
            << (Ok3 ? "PASS" : "FAIL") << ", delta "
            << (Ok4 ? "PASS" : "FAIL") << "\n";
  return (Ok1 && Ok2 && Ok3 && Ok4) ? 0 : 1;
}
