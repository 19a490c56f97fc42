//===- tools/scorpio_shardd.cpp - Shard recorder for transport testing ----===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recording half of the cross-process pipeline: records every
/// registered kernel (or a `--kernel` subset) as one shard each and
/// writes the recorded tapes — registration, META (shard name/index,
/// analysis options, schema hash) and all — as `.stap` v2 files into an
/// output directory.  `scorpio_merge` (or any other process) can then
/// reload, re-verify and merge them without ever sharing an address
/// space with this recorder.
///
/// `--inprocess <file>` additionally runs the same shards through the
/// in-process `ParallelAnalysis` path and writes its merged JSON, so a
/// driver (CI's transport smoke job) can diff the two pipelines byte
/// for byte.
///
/// Exit codes: 0 on success, 2 on any argument, recording or write
/// failure.
///
//===----------------------------------------------------------------------===//

#include "core/ParallelAnalysis.h"
#include "kernels/KernelRegistry.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace scorpio;

namespace {

int usage(std::ostream &OS, int Code) {
  OS << "usage: scorpio_shardd --out <dir> [options]\n"
        "\n"
        "Records one shard per registered kernel and writes each as a\n"
        ".stap v2 file '<dir>/shard_<index>.stap' carrying a META\n"
        "section (shard name/index, analysis options, schema hash).\n"
        "\n"
        "  --out <dir>              output directory (must exist)\n"
        "  --kernel <name>          record only this kernel (repeatable)\n"
        "  --inprocess <file|->     also run the in-process\n"
        "                           ParallelAnalysis merge over the same\n"
        "                           shards and write its JSON report\n"
        "  --no-compress            store sections raw (v2, no codec)\n"
        "  --list                   list registered kernels and exit\n"
        "  --help                   this text\n";
  return Code;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutDir, InProcessPath;
  std::vector<std::string> Kernels;
  bool Compress = true;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << "scorpio_shardd: " << Arg << " needs a value\n";
        return nullptr;
      }
      return Argv[++I];
    };
    const char *V = nullptr;
    if (Arg == "--out") {
      if (!(V = Value()))
        return usage(std::cerr, 2);
      OutDir = V;
    } else if (Arg == "--kernel") {
      if (!(V = Value()))
        return usage(std::cerr, 2);
      Kernels.push_back(V);
    } else if (Arg == "--inprocess") {
      if (!(V = Value()))
        return usage(std::cerr, 2);
      InProcessPath = V;
    } else if (Arg == "--no-compress") {
      Compress = false;
    } else if (Arg == "--list") {
      for (const std::string &Name : KernelRegistry::global().names())
        std::cout << Name << "\n";
      return 0;
    } else if (Arg == "--help" || Arg == "-h") {
      return usage(std::cout, 0);
    } else {
      std::cerr << "scorpio_shardd: unknown option '" << Arg << "'\n";
      return usage(std::cerr, 2);
    }
  }
  if (OutDir.empty()) {
    std::cerr << "scorpio_shardd: --out <dir> is required\n";
    return usage(std::cerr, 2);
  }

  KernelRegistry &Registry = KernelRegistry::global();
  std::vector<std::string> Names =
      Kernels.empty() ? Registry.names() : Kernels;
  std::sort(Names.begin(), Names.end());

  // One shard per kernel, shard index = position in the sorted name
  // list; the tapes and the --inprocess report come from the same
  // registrations.
  ParallelAnalysis P;
  for (const std::string &Name : Names) {
    const KernelDescriptor *K = Registry.find(Name);
    if (!K) {
      std::cerr << "scorpio_shardd: unknown kernel '" << Name << "'\n";
      return 2;
    }
    P.addShard(Name,
               [K] { K->Analyse(Analysis::current(), K->DefaultRanges); });
  }

  const AnalysisOptions Options; // the defaults scorpio_merge replays
  diag::Expected<std::vector<std::string>> Paths =
      P.saveShards(OutDir, Options, Compress);
  if (!Paths) {
    std::cerr << "scorpio_shardd: " << Paths.status().message() << "\n";
    return 2;
  }
  for (size_t I = 0; I != Names.size(); ++I)
    std::cout << Paths.value()[I] << "  (" << Names[I] << ")\n";

  if (!InProcessPath.empty()) {
    const ParallelAnalysisResult R = P.run(Options);
    if (InProcessPath == "-") {
      R.writeJson(std::cout);
    } else {
      std::ofstream OS(InProcessPath);
      if (!OS) {
        std::cerr << "scorpio_shardd: cannot write '" << InProcessPath
                  << "'\n";
        return 2;
      }
      R.writeJson(OS);
    }
  }
  return 0;
}
