//===- examples/kernel_explorer.cpp - Browse the kernel library -----------===//
//
// The paper's "kernels as reusable components" model in action: list
// the registered kernel components, or analyse one by name — printing
// its input significances, the Monte Carlo cross-check, and the
// suggested task partitioning, all without knowing the kernel's source.
//
// Usage:
//   ./examples/kernel_explorer              # list kernels
//   ./examples/kernel_explorer <name>       # analyse one kernel
//
//===----------------------------------------------------------------------===//

#include "core/MonteCarlo.h"
#include "core/TaskSuggestion.h"
#include "kernels/KernelRegistry.h"
#include "support/Table.h"

#include <iostream>

using namespace scorpio;

static int listKernels() {
  KernelRegistry &R = KernelRegistry::global();
  Table T({"kernel", "inputs", "description"});
  for (const std::string &Name : R.names()) {
    const KernelDescriptor *K = R.find(Name);
    T.addRow({Name, std::to_string(K->InputNames.size()),
              K->Description});
  }
  T.print(std::cout);
  std::cout << "\nanalyse one with: kernel_explorer <name>\n";
  return 0;
}

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return listKernels();

  const std::string Name = Argv[1];
  KernelRegistry &R = KernelRegistry::global();
  const KernelDescriptor *K = R.find(Name);
  if (!K) {
    std::cerr << "unknown kernel '" << Name << "'\n\n";
    listKernels();
    return 1;
  }

  std::cout << Name << " — " << K->Description << "\n\n";

  // Recorded here rather than through R.analyse(Name) so the tape stays
  // alive for the task suggestions' DynDFG view.
  Analysis A;
  K->Analyse(A, K->DefaultRanges);
  const AnalysisResult Res = A.analyse();
  if (!Res.isValid()) {
    Res.print(std::cout);
    return 1;
  }

  const auto Mc = R.monteCarlo(Name);
  Table T({"input", "range", "S (interval AD)", "S_rel",
           "Monte Carlo |dy|"});
  std::vector<double> Ia;
  for (size_t I = 0; I != Res.inputs().size(); ++I) {
    const VariableSignificance &V = Res.inputs()[I];
    Ia.push_back(V.Significance);
    T.addRow({V.Name,
              "[" + formatDouble(V.Value.lower()) + ", " +
                  formatDouble(V.Value.upper()) + "]",
              formatDouble(V.Significance, 4),
              formatFixed(V.Normalized, 3), formatDouble(Mc[I], 4)});
  }
  T.print(std::cout);
  std::cout << "ranking agreement (Spearman, interval AD vs Monte "
               "Carlo): "
            << formatFixed(rankingAgreement(Ia, Mc), 3) << "\n\n";

  printTaskSuggestions(suggestTasks(A.graph(Res), Res), std::cout);
  std::cout << "\noutput enclosure: " << Res.outputs().front().Value
            << "   (significance " << Res.outputSignificance() << ")\n";
  return 0;
}
