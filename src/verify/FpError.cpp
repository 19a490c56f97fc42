//===- verify/FpError.cpp - Rounding-error audit and mixed-precision lints ===//

#include "verify/FpError.h"

#include "graph/TapeLevels.h"
#include "verify/AbsInt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

using namespace scorpio;
using namespace scorpio::verify;

double verify::fpOpErrorScale(OpKind K) {
  switch (K) {
  case OpKind::Input:
  case OpKind::Neg:
  case OpKind::Fabs:
  case OpKind::Min:
  case OpKind::Max:
  case OpKind::Round:
    return 0.0;
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
  case OpKind::Sqrt:
  case OpKind::Sqr:
    return 1.0;
  case OpKind::Sin:
  case OpKind::Cos:
  case OpKind::Tan:
  case OpKind::Exp:
  case OpKind::Log:
  case OpKind::PowInt:
  case OpKind::Pow:
  case OpKind::Erf:
  case OpKind::Atan:
  case OpKind::TanOverX:
    return 2.0;
  }
  return 2.0; // unreachable; conservative for out-of-range bytes
}

double verify::fpHalfUlp(double X) {
  if (std::isnan(X) || std::isinf(X))
    return std::numeric_limits<double>::infinity();
  const double AbsX = std::fabs(X);
  return 0.5 * (detail::stepUp(AbsX) - AbsX);
}

double verify::fpLocalError(OpKind K, double Magnitude) {
  const double Scale = fpOpErrorScale(K);
  if (Scale == 0.0)
    return 0.0; // exact ops contribute nothing, even at inf magnitude
  return Scale * fpHalfUlp(Magnitude);
}

namespace {

std::string nodeRef(const Tape &T, NodeId Id) {
  std::ostringstream OS;
  OS << "u" << Id << " (" << opKindName(T.kind(Id)) << ")";
  return OS.str();
}

void flag(VerifyReport &Report, RuleKind K, NodeId Node, int Arg,
          std::string Msg, std::string FixIt = "") {
  Finding F;
  F.Kind = K;
  F.Node = Node;
  F.ArgIndex = Arg;
  F.Message = std::move(Msg);
  F.FixIt = std::move(FixIt);
  Report.add(std::move(F));
}

/// One-ulp upward rounding, as in the AbsInt magnitude propagation:
/// keeps the scalar bound recursion an upper bound under
/// round-to-nearest.
double up(double X) { return detail::stepUp(X); }

} // namespace

FpErrorResult verify::fpErrorInterpret(const Tape &T,
                                       std::span<const NodeId> Outputs,
                                       const FpErrorOptions &Options) {
  const size_t N = T.size();
  FpErrorResult R;
  R.Report = VerifyReport(Options.MaxFindingsPerRule);
  R.LocalErrorBound.assign(N, 0.0);
  R.ContributionBound.assign(N, 0.0);

  // The numeric skeleton comes from the abstract interpreter: abstract
  // enclosures for the local-error magnitudes and the backward adjoint
  // magnitude bounds.  Its honesty checks (A001/A002/...) are the
  // --absint pass's duty, not this one's — run them disabled where
  // optional and discard its report.
  AbsIntOptions AbsOpts;
  AbsOpts.SignificanceCap = Options.ErrorCap;
  AbsOpts.MaxFindingsPerRule = 1;
  AbsOpts.CheckFoldable = false;
  AbsOpts.CheckCommonSubexpressions = false;
  AbsIntResult Abs = absInterpret(T, Outputs, AbsOpts);
  R.AdjointMagBound = std::move(Abs.AdjointMagBound);

  const std::span<const TapeOp> Ops = T.ops();
  const double Cap = Options.ErrorCap;
  double Total = 0.0;
  for (size_t I = 0; I != N; ++I) {
    // Static local error at the *abstract* enclosure magnitude: the
    // recorded enclosure is contained in the abstract one, |mid| <= mag
    // on any interval, and the step-based ulp is non-decreasing in
    // magnitude, so this dominates the dynamic backend's
    // half-ulp-at-|mid| local error.
    const double Eps = fpLocalError(Ops[I].Kind, Abs.Values[I].mag());
    R.LocalErrorBound[I] = Eps <= Cap ? Eps : Cap;
    const double M = R.AdjointMagBound[I];
    if (M == 0.0 || Eps == 0.0)
      continue; // exact-zero factors give exactly zero contribution
    const double Raw = up(Eps * M);
    // NaN (0 * inf never reaches here; inf * inf can) and overflow both
    // saturate at the cap, exactly like the dynamic backend.
    const double B = Raw <= Cap ? Raw : Cap;
    R.ContributionBound[I] = B;
    Total = up(Total + B);
  }
  R.TotalErrorBound = Total <= Cap ? Total : Cap;
  return R;
}

void verify::checkDynamicFpError(FpErrorResult &R,
                                 std::span<const double> Contributions,
                                 const FpErrorOptions &Options) {
  const size_t N =
      std::min(R.ContributionBound.size(), Contributions.size());
  const double Slack = 1.0 + Options.ErrorSlack;
  for (size_t I = 0; I != N; ++I) {
    const double D = Contributions[I];
    // The cross-validation against interval significance and AbsInt: a
    // node unreachable by any abstract adjoint has zero significance
    // bound, so the shared adjoint recursion must also assign it
    // exactly zero rounding-error contribution.
    if (R.AdjointMagBound[I] == 0.0) {
      if (D != 0.0) {
        std::ostringstream OS;
        OS << "u" << I << " is statically dead for significance "
           << "(adjoint magnitude bound 0) but carries FP-error "
           << "contribution " << D;
        flag(R.Report, RuleKind::DeadNodeNonzeroError,
             static_cast<NodeId>(I), -1, OS.str());
      }
      continue;
    }
    const double B = R.ContributionBound[I];
    if (D <= B * Slack)
      continue;
    std::ostringstream OS;
    OS << "u" << I << " dynamic FP-error contribution " << D
       << " exceeds the static bound " << B;
    flag(R.Report, RuleKind::FpContributionAboveBound,
         static_cast<NodeId>(I), -1, OS.str());
  }
}

VerifyReport verify::auditStoredFpError(const FpErrorResult &R,
                                        std::span<const double> Stored,
                                        double StoredTotal,
                                        const FpErrorOptions &Options) {
  VerifyReport Report(Options.MaxFindingsPerRule);
  if (Stored.size() != R.ContributionBound.size()) {
    std::ostringstream OS;
    OS << "stored report has " << Stored.size()
       << " per-node FP-error contributions but the tape has "
       << R.ContributionBound.size() << " nodes";
    flag(Report, RuleKind::StoredFpErrorAboveBound, InvalidNodeId, -1,
         OS.str());
    return Report;
  }
  const double Slack = 1.0 + Options.ErrorSlack;
  for (size_t I = 0; I != Stored.size(); ++I) {
    const double D = Stored[I];
    const double B = R.ContributionBound[I];
    // An FpError sweep over this tape can only produce values in
    // [0, bound]; NaN, negatives and escapes all prove the report was
    // not computed from this tape.
    if (D >= 0.0 && D <= B * Slack)
      continue;
    std::ostringstream OS;
    OS << "u" << I << " stored FP-error contribution " << D
       << " violates the static bound " << B;
    flag(Report, RuleKind::StoredFpErrorAboveBound,
         static_cast<NodeId>(I), -1, OS.str());
  }
  // The total must be consistent with the node stream even when every
  // per-node entry passes individually.
  if (!(StoredTotal >= 0.0 && StoredTotal <= R.TotalErrorBound * Slack)) {
    std::ostringstream OS;
    OS << "stored total FP error " << StoredTotal
       << " violates the static total bound " << R.TotalErrorBound;
    flag(Report, RuleKind::StoredTotalAboveBound, InvalidNodeId, -1,
         OS.str());
  }
  return Report;
}

VerifyReport verify::lintFpError(const Tape &T, const FpErrorResult &R,
                                 const std::vector<NodeId> &Outputs,
                                 const FpErrorOptions &Options) {
  VerifyReport Report(Options.MaxFindingsPerRule);
  const double Total = R.TotalErrorBound;

  // F007: the accuracy certificate itself.
  if (!(Total <= Options.OutputErrorTolerance)) {
    std::ostringstream OS;
    OS << "total FP error bound " << Total
       << " exceeds the output error tolerance "
       << Options.OutputErrorTolerance;
    flag(Report, RuleKind::TotalErrorAboveTolerance, InvalidNodeId, -1,
         OS.str());
  }

  // F006: where the error budget is actually spent.
  if (Total > 0.0 && std::isfinite(Total)) {
    const double Threshold = Options.DominanceFraction * Total;
    for (size_t I = 0; I != R.ContributionBound.size(); ++I) {
      const double B = R.ContributionBound[I];
      if (B <= Threshold)
        continue;
      std::ostringstream OS;
      OS << nodeRef(T, static_cast<NodeId>(I))
         << " contributes " << B << " of the total FP error bound "
         << Total << " (> " << Options.DominanceFraction
         << " of the budget)";
      flag(Report, RuleKind::ErrorDominatingNode, static_cast<NodeId>(I),
           -1, OS.str());
    }
  }

  // F005/F008 over the paper's task groups: the DynDFG levels.  The
  // *raw* (unsimplified) levels keep every tape node in its own group,
  // so each level's error accounting is exact.
  const TapeLevels Raw = computeTapeLevels(T, Outputs, /*Simplify=*/false);
  const LevelGroups Groups = groupByLevel(Raw.Level, Raw.Height);
  for (int L = 0; L != Raw.Height; ++L) {
    const std::span<const NodeId> Level = Groups.level(L);
    if (Level.empty())
      continue;
    bool AllInputs = true;
    double GroupErr = 0.0;
    double MaxErr = 0.0;
    NodeId MaxNode = InvalidNodeId;
    for (NodeId Id : Level) {
      const size_t I = static_cast<size_t>(Id);
      AllInputs = AllInputs && T.kind(Id) == OpKind::Input;
      const double B =
          I < R.ContributionBound.size() ? R.ContributionBound[I] : 0.0;
      GroupErr += B;
      if (B > MaxErr || MaxNode == InvalidNodeId) {
        MaxErr = B;
        MaxNode = Id;
      }
    }
    // A level of bare inputs performs no arithmetic — "demote it" is
    // not actionable advice.
    if (AllInputs || !std::isfinite(GroupErr))
      continue;
    const double Projected = GroupErr * FloatDemotionScale;
    if (Projected <= Options.DemotionTolerance) {
      std::ostringstream OS;
      OS << "task level " << L << " (" << Level.size()
         << " nodes) has projected float error " << Projected
         << " <= demotion tolerance " << Options.DemotionTolerance;
      std::ostringstream Fix;
      Fix << "demote the " << Level.size() << " nodes of task level "
          << L << " to float; projected float error " << Projected
          << " stays within tolerance";
      flag(Report, RuleKind::FloatDemotableTask, Level.front(), -1,
           OS.str(), Fix.str());
    } else if (MaxErr > 0.0 &&
               (GroupErr - MaxErr) * FloatDemotionScale <=
                   Options.DemotionTolerance) {
      std::ostringstream OS;
      OS << "task level " << L << " misses float demotion only because "
         << "of " << nodeRef(T, MaxNode) << ": without its contribution "
         << MaxErr << " the projected float error "
         << (GroupErr - MaxErr) * FloatDemotionScale
         << " is within tolerance " << Options.DemotionTolerance;
      std::ostringstream Fix;
      Fix << "keep u" << MaxNode << " in double and demote the "
          << "remaining " << Level.size() - 1 << " nodes of task level "
          << L << " to float";
      flag(Report, RuleKind::DemotionBlockedByDominator, MaxNode, -1,
           OS.str(), Fix.str());
    }
  }
  return Report;
}
