//===- bench/fig3_maclaurin.cpp - Paper Figure 3 reproduction -------------===//
//
// Regenerates Figure 3: the DynDFG of the Maclaurin running example
// before (3a) and after (3b) the S4 simplification, with per-term
// significances.  Expected shape: term0 has significance 0 (pow(x,0) is
// the constant 1), term1 is the most significant, and every later term
// is less significant than the one before it; the simplified graph has
// the output at level 0, all terms at level 1 and the input at level 2;
// step S5 detects the variance at level 1.
//
//===----------------------------------------------------------------------===//

#include "apps/maclaurin/Maclaurin.h"
#include "support/Table.h"

#include <fstream>
#include <iostream>

using namespace scorpio;
using namespace scorpio::apps;

int main(int Argc, char **Argv) {
  const bool Csv = Argc > 1 && std::string(Argv[1]) == "--csv";
  const int N = 5;
  const double XCenter = 0.25, HalfWidth = 0.5;

  std::cout << "=== Figure 3: Maclaurin series significance analysis ===\n";
  std::cout << "f(x) = sum_{i<" << N << "} x^i,  x in ["
            << XCenter - HalfWidth << ", " << XCenter + HalfWidth << "]\n\n";

  Analysis A;
  recordMaclaurin(A, XCenter, HalfWidth, N);
  const AnalysisResult R = A.analyse();
  if (!R.isValid()) {
    R.print(std::cout);
    return 1;
  }

  Table T({"node", "enclosure", "S (raw)", "S (normalized)",
           "Listing-7 task significance"});
  for (int I = 0; I < N; ++I) {
    const VariableSignificance *V =
        R.find("term" + std::to_string(I));
    T.addRow({"term" + std::to_string(I),
              "[" + formatDouble(V->Value.lower()) + ", " +
                  formatDouble(V->Value.upper()) + "]",
              formatDouble(V->Significance),
              formatFixed(V->Normalized, 3),
              I == 0 ? "(in place)"
                     : formatFixed(maclaurinTaskSignificance(I, N), 3)});
  }
  const VariableSignificance *Out = R.find("result");
  T.addRow({"result",
            "[" + formatDouble(Out->Value.lower()) + ", " +
                formatDouble(Out->Value.upper()) + "]",
            formatDouble(Out->Significance), formatFixed(Out->Normalized, 3),
            "-"});
  if (Csv)
    T.printCsv(std::cout);
  else
    T.print(std::cout);

  const DynDFG G = A.graph(R);
  std::cout << "\nGraph after S4 (Figure 3b): " << G.numAlive()
            << " nodes, height " << G.height() << "; level sizes:";
  for (int L = 0; L < G.height(); ++L)
    std::cout << " L" << L << "=" << G.nodesAtLevel(L).size();
  std::cout << "\nS5 variance level: L = " << R.varianceLevel() << "\n";

  std::ofstream Dot("fig3_maclaurin.dot");
  G.writeDot(Dot);
  std::cout << "simplified DynDFG written to fig3_maclaurin.dot\n";

  // Shape checks mirroring the paper's observations.
  bool Ok = R.find("term0")->Significance < 1e-12;
  double Prev = R.find("term1")->Significance;
  for (int I = 2; I < N; ++I) {
    const double S = R.find("term" + std::to_string(I))->Significance;
    Ok = Ok && S < Prev;
    Prev = S;
  }
  Ok = Ok && R.varianceLevel() == 1;
  std::cout << "\nshape check (term0 = 0, term1 max then decreasing, "
               "variance level 1): "
            << (Ok ? "PASS" : "FAIL") << "\n";
  return Ok ? 0 : 1;
}
