//===- kernels/KernelRegistry.cpp - Reusable analyzable kernels ----------===//

#include "kernels/KernelRegistry.h"

using namespace scorpio;

const KernelDescriptor &KernelRegistry::add(KernelDescriptor Desc) {
  assert(!Desc.Name.empty() && "kernel needs a name");
  assert(Desc.InputNames.size() == Desc.DefaultRanges.size() &&
         "one default range per input");
  assert(Desc.Evaluate && Desc.Analyse && "kernel needs both evaluators");
  auto [It, Inserted] = Kernels.emplace(Desc.Name, std::move(Desc));
  assert(Inserted && "duplicate kernel name");
  (void)Inserted;
  return It->second;
}

const KernelDescriptor *
KernelRegistry::find(const std::string &Name) const {
  auto It = Kernels.find(Name);
  return It == Kernels.end() ? nullptr : &It->second;
}

std::vector<std::string> KernelRegistry::names() const {
  std::vector<std::string> Out;
  Out.reserve(Kernels.size());
  for (const auto &[Name, Desc] : Kernels)
    Out.push_back(Name);
  return Out;
}

AnalysisResult
KernelRegistry::analyse(const std::string &Name,
                        const std::vector<Interval> &CustomBox,
                        const AnalysisOptions &Options) const {
  // Unknown names and wrong-arity boxes arrive from callers (CLIs,
  // tests), so they yield an explicitly invalid result, as analyse()
  // without outputs does.
  auto Invalid = [](std::string Why) {
    AnalysisResult R;
    R.Divergences.push_back("error: " + std::move(Why));
    return R;
  };
  const KernelDescriptor *K = find(Name);
  SCORPIO_REQUIRE(K, diag::ErrC::InvalidArgument,
                  "KernelRegistry::analyse: unknown kernel name",
                  Invalid("unknown kernel '" + Name + "'"));
  const std::vector<Interval> &Box =
      CustomBox.empty() ? K->DefaultRanges : CustomBox;
  SCORPIO_REQUIRE(Box.size() == K->InputNames.size(),
                  diag::ErrC::SizeMismatch,
                  "KernelRegistry::analyse: box arity mismatch",
                  Invalid("box arity mismatch for kernel '" + Name + "'"));
  Analysis A;
  K->Analyse(A, Box);
  return A.analyse(Options);
}

std::vector<double>
KernelRegistry::monteCarlo(const std::string &Name,
                           const std::vector<Interval> &CustomBox,
                           const MonteCarloOptions &Options) const {
  const KernelDescriptor *K = find(Name);
  SCORPIO_REQUIRE(K, diag::ErrC::InvalidArgument,
                  "KernelRegistry::monteCarlo: unknown kernel name", {});
  const std::vector<Interval> &Box =
      CustomBox.empty() ? K->DefaultRanges : CustomBox;
  SCORPIO_REQUIRE(Box.size() == K->InputNames.size(),
                  diag::ErrC::SizeMismatch,
                  "KernelRegistry::monteCarlo: box arity mismatch", {});
  return monteCarloInputSignificance(K->Evaluate, Box, Options);
}

KernelRegistry &KernelRegistry::global() {
  static KernelRegistry *Registry = [] {
    auto *R = new KernelRegistry();
    registerStandardKernels(*R);
    registerPaperKernels(*R);
    return R;
  }();
  return *Registry;
}
