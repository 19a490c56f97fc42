//===- tools/scorpio_lint.cpp - Static analysis driver for the registry ---===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver of the src/verify static-analysis subsystem: runs
/// every KernelRegistry kernel (the paper's six benchmarks, the
/// Maclaurin running example and the standard library) under a recording
/// Analysis, verifies the recorded tape's structural invariants
/// (SCORPIO-Exxx) and lints it for approximation-safety hazards
/// (SCORPIO-Wxxx), then diffs the per-kernel rule counts against a
/// committed baseline so CI catches both new hazards and silently
/// vanished ones.
///
/// `--graph` additionally audits the phase-2 pipeline — DynDFG
/// construction, S4 simplification, S5 variance-level detection and
/// level truncation — with the SCORPIO-Gxxx rules.  `--roundtrip`
/// serializes each kernel's tape to the .stap format, re-loads it
/// through the verifying loader, re-analyses the adopted tape and
/// demands a byte-identical analysis report.
///
/// `--stap <file>` switches the driver to auditing tapes recorded
/// elsewhere: each file is loaded through the full .stap trust boundary
/// (checksum, codec caps, verifyStructure acceptance gate) and then
/// verified/linted exactly like a registry kernel, using the analysis
/// options embedded in the tape's META section when present.
///
/// `--absint` adds the abstract-interpretation audit (SCORPIO-Axxx):
/// enclosures, partials and per-output significance bounds are
/// re-derived from the recorded input enclosures alone and
/// cross-checked against the recorded tape and the dynamic sweep; with
/// `--stap`, a tape's embedded SIG section is additionally audited
/// against the static bounds.
///
/// `--fperr` runs the CHEF-FP-style rounding-error analysis
/// (SCORPIO-Fxxx): the dynamic FP-error sweep's per-node contributions
/// are audited against independently re-derived static error bounds,
/// and the mixed-precision lints flag tasks safe to demote to float,
/// error-dominating nodes and outputs whose total error exceeds the
/// tolerance.
///
/// Exit codes: 0 clean (and baseline matches), 1 baseline mismatch,
/// 2 verifier errors (structural SCORPIO-Exxx or abstract-
/// interpretation SCORPIO-Axxx), a round-trip failure, or a .stap file
/// that failed a loader gate.  A-warnings, like W/G warnings, flow
/// through the baseline diff and exit 1 on drift.
///
//===----------------------------------------------------------------------===//

#include "core/ParallelAnalysis.h"
#include "kernels/KernelRegistry.h"
#include "support/Json.h"
#include "tape/TapeDot.h"
#include "tape/TapeIO.h"
#include "verify/AbsInt.h"
#include "verify/Baseline.h"
#include "verify/FpError.h"
#include "verify/GraphVerifier.h"
#include "verify/Lint.h"
#include "verify/Sarif.h"
#include "verify/TapeVerifier.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace scorpio;

namespace {

struct Options {
  std::vector<std::string> Kernels; ///< empty = all registered kernels
  std::vector<std::string> StapFiles; ///< audit these tapes instead
  std::string BaselinePath;         ///< diff against this baseline
  std::string WriteBaselinePath;    ///< regenerate the baseline instead
  std::string JsonPath;             ///< per-kernel JSON report ("-" = stdout)
  std::string SarifPath;            ///< SARIF 2.1.0 export ("-" = stdout)
  std::string DotDir;               ///< write <kernel>.dot with highlights
  bool Graph = false;               ///< run the SCORPIO-Gxxx graph audit
  bool AbsInt = false;              ///< run the SCORPIO-Axxx abstract audit
  bool Fperr = false;               ///< run the SCORPIO-Fxxx FP-error audit
  bool Roundtrip = false;           ///< .stap serialize/load/re-analyse check
  bool List = false;
  bool Quiet = false;
};

int usage(std::ostream &OS, int Code) {
  OS << "usage: scorpio_lint [options]\n"
        "\n"
        "Runs the tape verifier and approximation-safety linter over\n"
        "every registered kernel on its default profiling ranges.\n"
        "\n"
        "  --kernel <name>          lint only this kernel (repeatable)\n"
        "  --stap <file>            audit a .stap tape recorded elsewhere\n"
        "                           instead of the registry (repeatable;\n"
        "                           excludes the kernel/baseline modes).\n"
        "                           Exit 2 when a file fails any loader\n"
        "                           gate or holds structural errors\n"
        "  --baseline <file>        diff rule counts against a baseline;\n"
        "                           exit 1 on any difference\n"
        "  --write-baseline <file>  write the current counts as baseline\n"
        "  --json <file|->          write per-kernel findings as JSON\n"
        "  --sarif <file|->         write findings as SARIF 2.1.0\n"
        "  --dot <dir>              write <kernel>.dot with findings\n"
        "                           highlighted (errors red, warnings\n"
        "                           orange)\n"
        "  --graph                  audit the DynDFG/S4/S5 pipeline with\n"
        "                           the SCORPIO-Gxxx rules\n"
        "  --absint                 abstract-interpretation audit\n"
        "                           (SCORPIO-Axxx): re-derive enclosures\n"
        "                           and significance bounds from the\n"
        "                           input enclosures alone and cross-\n"
        "                           check the recorded tape, the dynamic\n"
        "                           sweep and (with --stap) the embedded\n"
        "                           SIG section against them\n"
        "  --fperr                  CHEF-FP-style rounding-error audit\n"
        "                           (SCORPIO-Fxxx): audit the dynamic\n"
        "                           FP-error sweep against static error\n"
        "                           bounds and emit the mixed-precision\n"
        "                           lints (float-demotable tasks, error-\n"
        "                           dominating nodes, total-error\n"
        "                           tolerance)\n"
        "  --roundtrip              serialize each tape to .stap, reload\n"
        "                           through the verifying loader and\n"
        "                           demand a byte-identical re-analysis\n"
        "  --list                   list registered kernels and exit\n"
        "  --quiet                  suppress the per-kernel summary\n"
        "  --help                   this text\n";
  return Code;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  auto Value = [&](int &I) -> const char * {
    if (I + 1 >= Argc) {
      std::cerr << "scorpio_lint: " << Argv[I] << " needs a value\n";
      return nullptr;
    }
    return Argv[++I];
  };
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    const char *V = nullptr;
    if (Arg == "--kernel") {
      if (!(V = Value(I)))
        return false;
      Opts.Kernels.push_back(V);
    } else if (Arg == "--stap") {
      if (!(V = Value(I)))
        return false;
      Opts.StapFiles.push_back(V);
    } else if (Arg == "--baseline") {
      if (!(V = Value(I)))
        return false;
      Opts.BaselinePath = V;
    } else if (Arg == "--write-baseline") {
      if (!(V = Value(I)))
        return false;
      Opts.WriteBaselinePath = V;
    } else if (Arg == "--json") {
      if (!(V = Value(I)))
        return false;
      Opts.JsonPath = V;
    } else if (Arg == "--sarif") {
      if (!(V = Value(I)))
        return false;
      Opts.SarifPath = V;
    } else if (Arg == "--dot") {
      if (!(V = Value(I)))
        return false;
      Opts.DotDir = V;
    } else if (Arg == "--graph") {
      Opts.Graph = true;
    } else if (Arg == "--absint") {
      Opts.AbsInt = true;
    } else if (Arg == "--fperr") {
      Opts.Fperr = true;
    } else if (Arg == "--roundtrip") {
      Opts.Roundtrip = true;
    } else if (Arg == "--list") {
      Opts.List = true;
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(std::cout, 0);
      std::exit(0);
    } else {
      std::cerr << "scorpio_lint: unknown option '" << Arg << "'\n";
      return false;
    }
  }
  return true;
}

/// Result of analysing one kernel.
struct KernelRun {
  std::string Name;
  size_t TapeNodes = 0;
  verify::VerifyReport Report;
  bool RoundtripOk = true;
  std::string RoundtripError;
};

/// Serializes \p A's tape to .stap, reloads it through the verifying
/// loader, adopts it into a fresh Analysis and re-analyses with the same
/// options; the two reports must be byte-identical.  On failure
/// \p Error names the first stage that broke.
bool roundtripKernel(Analysis &A, const AnalysisResult &Original,
                     const AnalysisOptions &AOpts, std::string &Error) {
  std::stringstream Stap(std::ios::in | std::ios::out | std::ios::binary);
  if (diag::Status S = writeStap(Stap, A.tape(), A.registration()); !S) {
    Error = "writeStap: " + S.message();
    return false;
  }
  diag::Expected<LoadedTape> Loaded = readStap(Stap);
  if (!Loaded) {
    Error = "readStap: " + Loaded.status().message();
    return false;
  }
  // The reloaded analysis nests inside the recording one (Analysis is a
  // per-thread scope stack), adopts the deserialized tape and must
  // reproduce the original report bit for bit.
  Analysis B;
  if (diag::Status S = B.adopt(std::move(Loaded.value().T),
                               Loaded.value().Reg);
      !S) {
    Error = "adopt: " + S.message();
    return false;
  }
  const AnalysisResult Replayed = B.analyse(AOpts);
  std::ostringstream J1, J2;
  Original.writeJson(J1);
  Replayed.writeJson(J2);
  if (J1.str() != J2.str()) {
    Error = "re-analysis of the reloaded tape differs from the original";
    return false;
  }
  return true;
}

/// Runs the SCORPIO-Fxxx FP-error audit on \p A's tape: re-derives
/// static per-node rounding-error bounds from the input enclosures,
/// re-analyses under the FP-error backend, cross-checks the dynamic
/// contributions against the bounds (F001/F003) and emits the
/// mixed-precision lints (F005-F008).
verify::VerifyReport fperrAudit(Analysis &A, const AnalysisOptions &AOpts) {
  verify::FpErrorOptions FpOpts;
  FpOpts.ErrorCap = AOpts.SignificanceCap;
  verify::FpErrorResult Fp =
      verify::fpErrorInterpret(A.tape(), A.outputNodes(), FpOpts);
  AnalysisOptions FpAOpts = AOpts;
  FpAOpts.Backend = AnalysisBackend::FpError;
  const AnalysisResult RF = A.analyse(FpAOpts);
  // A diverged analysis carries no trustworthy dynamic error
  // contributions to compare against the bounds.
  if (RF.isValid())
    verify::checkDynamicFpError(Fp, RF.nodeSignificances(), FpOpts);
  Fp.Report.merge(
      verify::lintFpError(A.tape(), Fp, A.outputNodes(), FpOpts));
  return std::move(Fp.Report);
}

/// Records the kernel on its default ranges and runs verifier + linter
/// (plus the graph audit and .stap round-trip when requested).  The DOT
/// export (which needs the live tape) happens here too.
KernelRun lintKernel(const KernelDescriptor &K, const Options &Opts) {
  KernelRun Run;
  Run.Name = K.Name;

  Analysis A;
  K.Analyse(A, K.DefaultRanges);
  Run.TapeNodes = A.tape().size();

  Run.Report = verify::verifyTape(A.tape(), A.outputNodes());
  // The linter trusts node ids and arities, so it only runs on tapes
  // that passed structural verification.
  if (!Run.Report.hasErrors()) {
    const std::vector<NodeId> Inputs = A.registeredInputNodes();
    verify::LintContext Ctx;
    Ctx.RegisteredInputs = Inputs;
    Ctx.HaveRegistration = true;
    Ctx.Outputs = A.outputNodes();
    Run.Report.merge(verify::lintTape(A.tape(), Ctx));
  }

  if (!Run.Report.hasErrors() &&
      (Opts.Graph || Opts.Roundtrip || Opts.AbsInt || Opts.Fperr)) {
    const AnalysisOptions AOpts; // defaults: CombinedSeed, S4+S5, Delta 1e-3
    const AnalysisResult R = A.analyse(AOpts);
    if (Opts.Graph && R.isValid()) {
      std::vector<double> Sig(A.tape().size());
      for (size_t I = 0; I != Sig.size(); ++I)
        Sig[I] = R.significanceOf(static_cast<NodeId>(I));
      const double Divisor =
          R.outputSignificance() > 0.0 ? R.outputSignificance() : 1.0;
      Run.Report.merge(verify::auditGraphPipeline(
          A.tape(), Sig, A.labels(), A.outputNodes(), AOpts.Delta, Divisor));
    }
    if (Opts.AbsInt) {
      verify::AbsIntOptions AbsOpts;
      AbsOpts.SignificanceCap = AOpts.SignificanceCap;
      verify::AbsIntResult Abs =
          verify::absInterpret(A.tape(), A.outputNodes(), AbsOpts);
      // A diverged analysis carries no trustworthy dynamic
      // significances to compare against the bounds.
      if (R.isValid())
        verify::checkDynamicSignificance(Abs, R.nodeSignificances(),
                                         AbsOpts);
      Run.Report.merge(Abs.Report);
    }
    if (Opts.Fperr)
      Run.Report.merge(fperrAudit(A, AOpts));
    if (Opts.Roundtrip)
      Run.RoundtripOk = roundtripKernel(A, R, AOpts, Run.RoundtripError);
  }

  if (!Opts.DotDir.empty()) {
    const std::string Path = Opts.DotDir + "/" + K.Name + ".dot";
    std::ofstream OS(Path);
    if (!OS) {
      std::cerr << "scorpio_lint: cannot write '" << Path << "'\n";
    } else {
      TapeDotOptions DO;
      DO.FillColors = verify::dotHighlights(Run.Report);
      writeTapeDot(A.tape(), OS, A.labels(), DO);
    }
  }
  return Run;
}

/// Audits one externally recorded .stap tape: load through the full
/// trust boundary (checksum, codec caps, verifyStructure gate), adopt,
/// then run the same verifier + linter (and optional graph audit) the
/// registry kernels get.  \p LoadOk is false when any loader gate or the
/// adoption failed — the caller exits 2.  Analysis options come from the
/// tape's META section when present, so the audit replays the recording
/// configuration.
KernelRun lintStapFile(const std::string &Path, const Options &Opts,
                       bool &LoadOk) {
  KernelRun Run;
  Run.Name = Path;
  LoadOk = false;

  diag::Expected<LoadedTape> Loaded = loadStap(Path);
  if (!Loaded) {
    std::cerr << "scorpio_lint: " << Path << ": " << Loaded.status().message()
              << "\n";
    return Run;
  }
  if (Loaded.value().Meta && !Loaded.value().Meta->ShardName.empty())
    Run.Name = Loaded.value().Meta->ShardName;
  const AnalysisOptions AOpts =
      Loaded.value().Meta && Loaded.value().Meta->HasOptions
          ? shardMetaOptions(*Loaded.value().Meta)
          : AnalysisOptions{};

  Analysis A;
  const TapeRegistration Reg = Loaded.value().Reg;
  // The SIG section (per-node significances the recording process
  // claims) survives the adopt so --absint can audit it.
  const std::vector<double> StoredSig =
      std::move(Loaded.value().Significance);
  if (diag::Status S = A.adopt(std::move(Loaded.value().T), Reg); !S) {
    std::cerr << "scorpio_lint: " << Path << ": " << S.message() << "\n";
    return Run;
  }
  LoadOk = true;
  Run.TapeNodes = A.tape().size();

  Run.Report = verify::verifyTape(A.tape(), A.outputNodes());
  if (!Run.Report.hasErrors()) {
    verify::LintContext Ctx;
    Ctx.RegisteredInputs = A.registeredInputNodes();
    Ctx.HaveRegistration = true;
    Ctx.Outputs = A.outputNodes();
    Run.Report.merge(verify::lintTape(A.tape(), Ctx));
  }
  // The graph and abstract audits need a valid analysis; a tape with no
  // outputs (an empty shard) has nothing to audit.
  if (!Run.Report.hasErrors() &&
      (Opts.Graph || Opts.AbsInt || Opts.Fperr) &&
      !A.outputNodes().empty()) {
    const AnalysisResult R = A.analyse(AOpts);
    if (Opts.Graph && R.isValid()) {
      std::vector<double> Sig(A.tape().size());
      for (size_t I = 0; I != Sig.size(); ++I)
        Sig[I] = R.significanceOf(static_cast<NodeId>(I));
      const double Divisor =
          R.outputSignificance() > 0.0 ? R.outputSignificance() : 1.0;
      Run.Report.merge(verify::auditGraphPipeline(
          A.tape(), Sig, A.labels(), A.outputNodes(), AOpts.Delta, Divisor));
    }
    if (Opts.AbsInt) {
      verify::AbsIntOptions AbsOpts;
      AbsOpts.SignificanceCap = AOpts.SignificanceCap;
      verify::AbsIntResult Abs =
          verify::absInterpret(A.tape(), A.outputNodes(), AbsOpts);
      if (R.isValid())
        verify::checkDynamicSignificance(Abs, R.nodeSignificances(),
                                         AbsOpts);
      // The recording process's own claimed significances, when the
      // file shipped them, must also fall inside the static bounds.
      if (!StoredSig.empty())
        Abs.Report.merge(
            verify::auditStoredSignificance(Abs, StoredSig, AbsOpts));
      Run.Report.merge(Abs.Report);
    }
    // The SIG section is not audited here: it stores Eq.-11
    // significances (the recording side has no FP-error wire format),
    // so only the freshly derived contributions are checked.
    if (Opts.Fperr)
      Run.Report.merge(fperrAudit(A, AOpts));
  }

  if (!Opts.DotDir.empty()) {
    std::string FileSafe = Run.Name;
    std::replace(FileSafe.begin(), FileSafe.end(), '/', '_');
    const std::string DotPath = Opts.DotDir + "/" + FileSafe + ".dot";
    std::ofstream OS(DotPath);
    if (!OS) {
      std::cerr << "scorpio_lint: cannot write '" << DotPath << "'\n";
    } else {
      TapeDotOptions DO;
      DO.FillColors = verify::dotHighlights(Run.Report);
      writeTapeDot(A.tape(), OS, A.labels(), DO);
    }
  }
  return Run;
}

/// Per-kernel rule-count entries "<kernel> <ruleId> <count>" (kernels
/// are iterated in sorted order and rules in catalog order).
std::vector<verify::BaselineEntry>
baselineEntries(const std::vector<KernelRun> &Runs) {
  std::vector<verify::BaselineEntry> Entries;
  for (const KernelRun &Run : Runs)
    for (const verify::Rule &R : verify::ruleCatalog())
      if (size_t N = Run.Report.countOf(R.Kind))
        Entries.push_back({Run.Name, R.Id, N});
  return Entries;
}

/// Opens \p Path for writing ("-" = stdout); calls \p F with the stream.
template <typename Fn>
bool withOutput(const std::string &Path, Fn F) {
  if (Path == "-") {
    F(std::cout);
    return true;
  }
  std::ofstream OS(Path);
  if (!OS) {
    std::cerr << "scorpio_lint: cannot write '" << Path << "'\n";
    return false;
  }
  F(OS);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(std::cerr, 2);
  if (!Opts.StapFiles.empty() &&
      (!Opts.Kernels.empty() || !Opts.BaselinePath.empty() ||
       !Opts.WriteBaselinePath.empty() || Opts.Roundtrip || Opts.List)) {
    std::cerr << "scorpio_lint: --stap audits external tapes and cannot be "
                 "combined with the kernel/baseline/roundtrip/list modes\n";
    return 2;
  }

  KernelRegistry &Registry = KernelRegistry::global();
  if (Opts.List) {
    for (const std::string &Name : Registry.names())
      std::cout << Name << "  ("
                << Registry.find(Name)->InputNames.size() << " inputs)  "
                << Registry.find(Name)->Description << "\n";
    return 0;
  }

  std::vector<KernelRun> Runs;
  bool StapLoadFailed = false;
  if (!Opts.StapFiles.empty()) {
    for (const std::string &Path : Opts.StapFiles) {
      bool LoadOk = false;
      Runs.push_back(lintStapFile(Path, Opts, LoadOk));
      StapLoadFailed = StapLoadFailed || !LoadOk;
    }
  } else {
    std::vector<std::string> Names =
        Opts.Kernels.empty() ? Registry.names() : Opts.Kernels;
    std::sort(Names.begin(), Names.end());
    for (const std::string &Name : Names) {
      const KernelDescriptor *K = Registry.find(Name);
      if (!K) {
        std::cerr << "scorpio_lint: unknown kernel '" << Name << "'\n";
        return 2;
      }
      Runs.push_back(lintKernel(*K, Opts));
    }
  }

  size_t TotalErrors = 0, TotalWarnings = 0;
  for (const KernelRun &Run : Runs) {
    TotalErrors += Run.Report.errorCount();
    TotalWarnings += Run.Report.warningCount();
    if (Opts.Quiet)
      continue;
    std::cout << Run.Name << ": " << Run.TapeNodes << " nodes, "
              << Run.Report.errorCount() << " errors, "
              << Run.Report.warningCount() << " warnings";
    bool First = true;
    for (const verify::Rule &R : verify::ruleCatalog())
      if (size_t N = Run.Report.countOf(R.Kind)) {
        std::cout << (First ? "  [" : ", ") << R.Id << " x" << N;
        First = false;
      }
    std::cout << (First ? "" : "]") << "\n";
  }
  if (!Opts.Quiet)
    std::cout << Runs.size()
              << (Opts.StapFiles.empty() ? " kernels: " : " tapes: ")
              << TotalErrors << " errors, " << TotalWarnings
              << " warnings\n";

  if (!Opts.JsonPath.empty()) {
    const bool Ok = withOutput(Opts.JsonPath, [&](std::ostream &OS) {
      JsonWriter J(OS);
      J.beginObject();
      J.key("tool").value("scorpio-lint");
      J.key("kernels").beginObject();
      for (const KernelRun &Run : Runs) {
        J.key(Run.Name);
        Run.Report.writeJson(J);
      }
      J.endObject();
      J.endObject();
      OS << "\n";
    });
    if (!Ok)
      return 2;
  }

  if (!Opts.SarifPath.empty()) {
    std::vector<verify::SarifEntry> Entries;
    Entries.reserve(Runs.size());
    for (const KernelRun &Run : Runs)
      Entries.push_back({Run.Name, &Run.Report});
    if (!withOutput(Opts.SarifPath, [&](std::ostream &OS) {
          verify::writeSarif(OS, Entries);
        }))
      return 2;
  }

  const std::vector<verify::BaselineEntry> Current = baselineEntries(Runs);
  if (!Opts.WriteBaselinePath.empty()) {
    // Regeneration preserves the '# expected:' annotations of the file
    // being replaced — except stale ones, which are dropped so the
    // documented rationale always matches a real count line.
    std::vector<verify::ExpectedFinding> Kept;
    {
      verify::Baseline Old;
      std::string Error;
      if (verify::readBaselineFile(Opts.WriteBaselinePath, Old, Error))
        for (const verify::ExpectedFinding &E : Old.Expected)
          for (const verify::BaselineEntry &C : Current)
            if (C.Kernel == E.Kernel && C.RuleId == E.RuleId) {
              Kept.push_back(E);
              break;
            }
    }
    const bool Ok = withOutput(Opts.WriteBaselinePath, [&](std::ostream &OS) {
      OS << "# scorpio_lint baseline: one '<kernel> <ruleId> <count>' per\n"
            "# rule that fires on the kernel's default profiling ranges.\n"
            "# '# expected: <ruleId> <kernel> <reason>' documents why a\n"
            "# finding is known and accepted (not a suppression: the count\n"
            "# line must still exist, and a stale annotation fails the\n"
            "# diff).\n"
            "# Regenerate with: scorpio_lint --graph --absint --fperr "
            "--write-baseline <this file>\n";
      for (const verify::ExpectedFinding &E : Kept)
        OS << "# expected: " << E.RuleId << " " << E.Kernel << " " << E.Reason
           << "\n";
      for (const verify::BaselineEntry &E : Current)
        OS << E.toLine() << "\n";
    });
    if (!Ok)
      return 2;
  }

  if (StapLoadFailed) {
    std::cerr << "scorpio_lint: one or more .stap files failed a loader "
                 "gate\n";
    return 2;
  }
  if (TotalErrors != 0) {
    std::cerr << "scorpio_lint: verifier errors — the recorded tape IR is "
                 "malformed or its data violates the abstract-"
                 "interpretation bounds\n";
    return 2;
  }

  if (Opts.Roundtrip) {
    bool AllOk = true;
    for (const KernelRun &Run : Runs)
      if (!Run.RoundtripOk) {
        std::cerr << "scorpio_lint: " << Run.Name
                  << ": .stap round-trip failed: " << Run.RoundtripError
                  << "\n";
        AllOk = false;
      }
    if (!AllOk)
      return 2;
    if (!Opts.Quiet)
      std::cout << "roundtrip OK (" << Runs.size() << " kernels)\n";
  }

  if (!Opts.BaselinePath.empty()) {
    verify::Baseline Base;
    std::string Error;
    if (!verify::readBaselineFile(Opts.BaselinePath, Base, Error)) {
      std::cerr << "scorpio_lint: " << Error << "\n";
      return 2;
    }
    const verify::BaselineDiff Diff = verify::diffBaseline(Current, Base);
    for (const std::string &L : Diff.NewFindings)
      std::cerr << "scorpio_lint: new finding not in baseline: " << L << "\n";
    for (const std::string &L : Diff.Vanished)
      std::cerr << "scorpio_lint: baseline finding no longer produced: " << L
                << "\n";
    for (const std::string &L : Diff.StaleAnnotations)
      std::cerr << "scorpio_lint: stale '# expected:' annotation: " << L
                << "\n";
    if (!Diff.clean())
      return 1;
    if (!Opts.Quiet)
      std::cout << "baseline OK (" << Base.Entries.size() << " entries, "
                << Base.Expected.size() << " annotations)\n";
  }
  return 0;
}
