//===- core/Analysis.cpp - Significance analysis driver ------------------===//

#include "core/Analysis.h"

#include "core/SweepBackends.h"
#include "graph/TapeLevels.h"
#include "support/Json.h"
#include "verify/AbsInt.h"
#include "verify/FpError.h"
#include "verify/TapeVerifier.h"

#include <algorithm>
#include <cmath>

using namespace scorpio;

double AnalysisResult::normalizedSignificanceOf(NodeId Id) const {
  if (OutputSig <= 0.0)
    return 0.0;
  return significanceOf(Id) / OutputSig;
}

const VariableSignificance *
AnalysisResult::find(const std::string &Name) const {
  if (!FindIndexBuilt) {
    // emplace keeps the first insertion per name, so a name present in
    // several lists resolves in inputs -> intermediates -> outputs order,
    // exactly as the original linear scan did.
    const std::vector<VariableSignificance> *Lists[] = {&Inputs,
                                                        &Intermediates,
                                                        &Outputs};
    for (int L = 0; L != 3; ++L)
      for (size_t I = 0; I != Lists[L]->size(); ++I)
        FindIndex.emplace((*Lists[L])[I].Name, std::make_pair(L, I));
    FindIndexBuilt = true;
  }
  const auto It = FindIndex.find(Name);
  if (It == FindIndex.end())
    return nullptr;
  const auto [L, I] = It->second;
  const std::vector<VariableSignificance> *Lists[] = {&Inputs,
                                                      &Intermediates,
                                                      &Outputs};
  return &(*Lists[L])[I];
}

void AnalysisResult::print(std::ostream &OS) const {
  if (!isValid()) {
    OS << "analysis INVALID: control flow diverged on interval input\n";
    for (const std::string &D : Divergences)
      OS << "  " << D << "\n";
    return;
  }
  auto PrintList = [&](const char *Title,
                       const std::vector<VariableSignificance> &List) {
    if (List.empty())
      return;
    OS << Title << ":\n";
    for (const VariableSignificance &V : List)
      OS << "  " << V.Name << " = " << V.Value << "  S=" << V.Significance
         << "  S_rel=" << V.Normalized << "\n";
  };
  PrintList("inputs", Inputs);
  PrintList("intermediates", Intermediates);
  PrintList("outputs", Outputs);
  OS << "variance level L=" << VarianceLevel << " (graph height "
     << GraphHeight << ", " << GraphAlive << " nodes)\n";
}

void AnalysisResult::writeJson(std::ostream &OS) const {
  JsonWriter J(OS);
  writeJson(J);
  OS << "\n";
}

void AnalysisResult::writeJson(JsonWriter &J) const {
  J.beginObject();
  J.key("valid").value(isValid());
  // Only non-default backends stamp the report, so every pre-existing
  // significance document stays byte-identical.
  if (Backend != AnalysisBackend::Significance)
    J.key("backend").value(sweepBackendFor(Backend).name());
  J.key("divergences").beginArray();
  for (const std::string &D : Divergences)
    J.value(D);
  J.endArray();
  auto EmitList = [&](const char *Name,
                      const std::vector<VariableSignificance> &List) {
    J.key(Name).beginArray();
    for (const VariableSignificance &V : List) {
      J.beginObject();
      J.key("name").value(V.Name);
      J.key("lower").value(V.Value.lower());
      J.key("upper").value(V.Value.upper());
      J.key("significance").value(V.Significance);
      J.key("normalized").value(V.Normalized);
      J.endObject();
    }
    J.endArray();
  };
  EmitList("inputs", Inputs);
  EmitList("intermediates", Intermediates);
  EmitList("outputs", Outputs);
  J.key("outputSignificance").value(OutputSig);
  J.key("varianceLevel").value(VarianceLevel);
  if (Verified) {
    J.key("verification");
    Verification.writeJson(J);
  }
  // The stats captured at analyse() time, not the live graph: cached
  // results carry no DynDFG but must render byte-identically.
  J.key("graph").beginObject();
  J.key("aliveNodes").value(GraphAlive);
  J.key("height").value(GraphHeight);
  J.endObject();
  J.endObject();
}

static thread_local Analysis *CurrentAnalysis = nullptr;

Analysis::Analysis() : PreviousCurrent(CurrentAnalysis) {
  CurrentAnalysis = this;
}

Analysis::~Analysis() { CurrentAnalysis = PreviousCurrent; }

Analysis &Analysis::current() {
  // No representable recovery: there is no Analysis to return a
  // reference to, so this check traps under every policy (after
  // recording the structured diagnostic).
  SCORPIO_CHECK_FATAL(CurrentAnalysis, diag::ErrC::InvalidState,
                      "Analysis::current: no Analysis is live on this "
                      "thread");
  return *CurrentAnalysis;
}

IAValue Analysis::input(const std::string &Name, double Lo, double Hi) {
  IAValue X;
  registerInput(X, Name, Lo, Hi);
  return X;
}

void Analysis::registerInput(IAValue &X, const std::string &Name, double Lo,
                             double Hi) {
  // User-provided range bounds: a NaN bound widens to entire() (the
  // containment-safe "unknown") and swapped bounds are reordered, each
  // with a structured diagnostic.
  Interval Range = Interval::entire();
  if (SCORPIO_CHECK(!std::isnan(Lo) && !std::isnan(Hi),
                    diag::ErrC::DomainError,
                    "Analysis::registerInput: NaN range bound")) {
    if (SCORPIO_CHECK(Lo <= Hi, diag::ErrC::InvalidArgument,
                      "Analysis::registerInput: inverted range bounds"))
      Range = Interval(Lo, Hi);
    else
      Range = Interval::ordered(Lo, Hi);
  }
  const NodeId Id = Scope.tape().recordInput(Range);
  X = IAValue(Range, Id);
  Labels.emplace(Id, Name);
  InputVars.emplace_back(Id, Name);
}

std::vector<NodeId> Analysis::registeredInputNodes() const {
  std::vector<NodeId> Ids;
  Ids.reserve(InputVars.size());
  for (const auto &[Id, Name] : InputVars)
    Ids.push_back(Id);
  return Ids;
}

TapeRegistration Analysis::registration() const {
  return {OutputNodes, Labels, InputVars, IntermediateVars, OutputVars};
}

diag::Status Analysis::adopt(Tape &&T, const TapeRegistration &Reg) {
  const auto Fail = [](diag::ErrC Code, const char *Msg) {
    return diag::Status::error(Code, Msg);
  };
  if (!SCORPIO_CHECK(Scope.tape().empty() && Labels.empty() &&
                         OutputNodes.empty(),
                     diag::ErrC::InvalidState,
                     "Analysis::adopt: analysis already holds recorded or "
                     "registered state"))
    return Fail(diag::ErrC::InvalidState,
                "Analysis::adopt: analysis already holds recorded or "
                "registered state");
  const auto InRange = [&](NodeId Id) {
    return Id >= 0 && static_cast<size_t>(Id) < T.size();
  };
  bool IdsOk = true;
  for (const auto &[Id, Name] : Reg.Labels)
    IdsOk = IdsOk && InRange(Id);
  for (const auto *List : {&Reg.InputVars, &Reg.IntermediateVars,
                           &Reg.OutputVars})
    for (const auto &[Id, Name] : *List)
      IdsOk = IdsOk && InRange(Id);
  for (NodeId Id : Reg.Outputs)
    IdsOk = IdsOk && InRange(Id);
  if (!SCORPIO_CHECK(IdsOk, diag::ErrC::OutOfRange,
                     "Analysis::adopt: registration references nodes "
                     "outside the tape"))
    return Fail(diag::ErrC::OutOfRange,
                "Analysis::adopt: registration references nodes outside "
                "the tape");
  Scope.tape() = std::move(T);
  Labels = Reg.Labels;
  InputVars = Reg.InputVars;
  IntermediateVars = Reg.IntermediateVars;
  OutputVars = Reg.OutputVars;
  OutputNodes = Reg.Outputs;
  return diag::Status::ok();
}

void Analysis::registerIntermediate(const IAValue &Z,
                                    const std::string &Name) {
  if (!Z.isActive())
    return;
  Labels.emplace(Z.node(), Name);
  IntermediateVars.emplace_back(Z.node(), Name);
}

void Analysis::registerOutput(const IAValue &Y, const std::string &Name) {
  // A passive output does not depend on any registered input; seeding
  // its (nonexistent) node would corrupt the sweep, so the registration
  // is dropped with a diagnostic.
  SCORPIO_REQUIRE(Y.isActive(), diag::ErrC::InvalidState,
                  "Analysis::registerOutput: output does not depend on "
                  "any registered input");
  Labels.emplace(Y.node(), Name);
  OutputVars.emplace_back(Y.node(), Name);
  OutputNodes.push_back(Y.node());
}

AnalysisResult Analysis::analyse(const AnalysisOptions &OptionsIn) {
  Tape &T = Scope.tape();
  AnalysisResult R;
  R.Divergences = T.divergences();
  R.NodeSignificance.assign(T.size(), 0.0);

  // Without a registered output there is nothing to seed; return an
  // explicitly invalid (empty) result instead of sweeping garbage.
  if (!SCORPIO_CHECK(!OutputNodes.empty(), diag::ErrC::InvalidState,
                     "Analysis::analyse: no registered output")) {
    R.Divergences.push_back(
        "error: analyse() called with no registered output");
    return R;
  }

  // Sanitize caller-tunable knobs once, with one diagnostic per bad
  // field; the sweep below then trusts Options unconditionally.
  AnalysisOptions Options = OptionsIn;
  if (!SCORPIO_CHECK(Options.SignificanceCap > 0.0 &&
                         !std::isnan(Options.SignificanceCap),
                     diag::ErrC::InvalidArgument,
                     "Analysis::analyse: SignificanceCap must be positive"))
    Options.SignificanceCap = AnalysisOptions().SignificanceCap;
  if (!SCORPIO_CHECK(Options.Delta >= 0.0 && !std::isnan(Options.Delta),
                     diag::ErrC::InvalidArgument,
                     "Analysis::analyse: Delta must be non-negative"))
    Options.Delta = AnalysisOptions().Delta;

  // Optional S3.5: structural verification before anything consumes the
  // tape.  A malformed IR invalidates the result without sweeping — the
  // reverse sweep on a broken edge stream is exactly the garbage-in/
  // garbage-out path the verifier exists to close.
  if (Options.VerifyTape != VerifyLevel::Off) {
    verify::VerifierOptions VO;
    VO.BatchWidth = std::max(1u, Options.BatchWidth);
    R.Verification = verify::verifyTape(T, OutputNodes, VO);
    R.Verified = true;
    if (R.Verification.hasErrors()) {
      for (const verify::Finding &F : R.Verification.findings())
        if (F.severity() == verify::Severity::Error)
          R.Divergences.push_back(std::string("verifier: ") +
                                  F.rule().Id + ": " + F.Message);
      return R;
    }
  }

  // Optional S3.6: the abstract-interpretation audit re-derives every
  // enclosure and partial from the recorded inputs alone (forward
  // containment checks now, the dynamic-significance check after the
  // sweep below).  Runs only on a structurally clean tape.
  verify::AbsIntResult AbsInt;
  verify::AbsIntOptions AbsIntOpts;
  const bool RunAbsInt = Options.VerifyTape == VerifyLevel::AbsInt;
  if (RunAbsInt) {
    AbsIntOpts.SignificanceCap = Options.SignificanceCap;
    AbsInt = verify::absInterpret(T, OutputNodes, AbsIntOpts);
  }

  // The reverse-sweep stage is a pluggable backend: the default
  // SignificanceBackend is the pre-refactor Eq.-11 pipeline verbatim;
  // FpErrorBackend accumulates CHEF-FP-style rounding-error
  // contributions through the same sweep machinery.
  R.Backend = Options.Backend;
  sweepBackendFor(Options.Backend)
      .run(T, OutputNodes, Options, R.NodeSignificance, R.OutputSig);

  // The second half of the S3.6 audit: every dynamic number must fall
  // inside a statically re-derived bound — significances against the
  // AbsInt bounds (SCORPIO-A003), FP-error contributions against the
  // FpError bounds (SCORPIO-F001/F003).  Errors invalidate the result
  // (the tape and the sweep disagree about the kernel) but the computed
  // data stays in the report for inspection.
  if (RunAbsInt) {
    if (Options.Backend == AnalysisBackend::FpError) {
      verify::FpErrorOptions FpOpts;
      FpOpts.ErrorCap = Options.SignificanceCap;
      verify::FpErrorResult Fp =
          verify::fpErrorInterpret(T, OutputNodes, FpOpts);
      verify::checkDynamicFpError(Fp, R.NodeSignificance, FpOpts);
      AbsInt.Report.merge(Fp.Report);
    } else {
      verify::checkDynamicSignificance(AbsInt, R.NodeSignificance,
                                       AbsIntOpts);
    }
    R.Verification.merge(AbsInt.Report);
    for (const verify::Finding &F : AbsInt.Report.findings())
      if (F.severity() == verify::Severity::Error)
        R.Divergences.push_back(std::string("verifier: ") + F.rule().Id +
                                ": " + F.Message);
  }

  auto FillVars = [&](const std::vector<std::pair<NodeId, std::string>> &Src,
                      std::vector<VariableSignificance> &Dst) {
    for (const auto &[Id, Name] : Src) {
      VariableSignificance V;
      V.Name = Name;
      V.Node = Id;
      V.Value = T.value(Id);
      V.Significance = R.NodeSignificance[static_cast<size_t>(Id)];
      V.Normalized =
          R.OutputSig > 0.0 ? V.Significance / R.OutputSig : 0.0;
      Dst.push_back(std::move(V));
    }
  };
  FillVars(InputVars, R.Inputs);
  FillVars(IntermediateVars, R.Intermediates);
  FillVars(OutputVars, R.Outputs);

  // S4 and S5 straight off the tape's edge arrays; S5 runs on
  // normalized significances (S / OutputSig) so Delta is scale-free.
  if (Options.BuildGraph) {
    const TapeLevels Levels =
        computeTapeLevels(T, OutputNodes, Options.Simplify);
    R.VarianceLevel = findVarianceLevel(
        Levels.Level, Levels.Height, R.NodeSignificance, Options.Delta,
        R.OutputSig > 0.0 ? R.OutputSig : 1.0);
    R.GraphAlive = Levels.Alive;
    R.GraphHeight = Levels.Height;
  }

  return R;
}

DynDFG Analysis::graph(const AnalysisResult &R,
                       const AnalysisOptions &Options) const {
  const std::span<const double> Sig = R.nodeSignificances();
  DynDFG G = DynDFG::fromTape(
      tape(), std::vector<double>(Sig.begin(), Sig.end()), Labels,
      OutputNodes);
  if (Options.Simplify)
    G.simplify();
  return G;
}
