//===- verify/Lint.cpp - Approximation-safety linter ----------------------===//

#include "verify/Lint.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

using namespace scorpio;
using namespace scorpio::verify;

namespace {

bool straddlesZero(const Interval &X) {
  return X.lower() < 0.0 && X.upper() > 0.0;
}

bool isUnbounded(const Interval &X) {
  return std::isinf(X.lower()) || std::isinf(X.upper());
}

std::string nodeRef(const Tape &T, NodeId Id) {
  std::ostringstream OS;
  OS << "u" << Id << " (" << opKindName(T.kind(Id)) << ")";
  return OS.str();
}

void flag(VerifyReport &Report, RuleKind K, NodeId Node, int Arg,
          std::string Msg) {
  Finding F;
  F.Kind = K;
  F.Node = Node;
  F.ArgIndex = Arg;
  F.Message = std::move(Msg);
  Report.add(std::move(F));
}

/// The domain-hazard rules W001 (zero-straddling operands of div/log/
/// sqrt) and W002 (unbounded partials) for one node.
void lintDomains(const Tape &T, NodeId Id, VerifyReport &Report) {
  const OpKind K = T.kind(Id);
  const unsigned NumArgs = T.numArgs(Id);

  switch (K) {
  case OpKind::Div:
    if (NumArgs == 2) {
      // IAValue records the numerator as argument 0, the divisor as
      // argument 1.
      const Interval &B = T.value(T.arg(Id, 1));
      if (B.contains(0.0) && !B.isPoint()) {
        std::ostringstream OS;
        OS << nodeRef(T, Id) << " divides by u" << T.arg(Id, 1) << " = "
           << B << ", which contains zero";
        flag(Report, RuleKind::ZeroStraddlingOperand, Id, 1, OS.str());
      }
    } else if (NumArgs == 1) {
      // With a passive operand the surviving edge could be either side;
      // a zero-straddling operand paired with an unbounded partial is
      // the divisor blowing up.
      const Interval &A = T.value(T.arg(Id, 0));
      if (straddlesZero(A) && isUnbounded(T.partial(Id, 0))) {
        std::ostringstream OS;
        OS << nodeRef(T, Id) << " has zero-straddling operand u"
           << T.arg(Id, 0) << " = " << A << " with an unbounded partial";
        flag(Report, RuleKind::ZeroStraddlingOperand, Id, 0, OS.str());
      }
    }
    break;
  case OpKind::Log:
    if (NumArgs == 1 && T.value(T.arg(Id, 0)).lower() <= 0.0) {
      std::ostringstream OS;
      OS << nodeRef(T, Id) << " operand u" << T.arg(Id, 0) << " = "
         << T.value(T.arg(Id, 0)) << " reaches non-positive values";
      flag(Report, RuleKind::ZeroStraddlingOperand, Id, 0, OS.str());
    }
    break;
  case OpKind::Sqrt:
    if (NumArgs == 1 && T.value(T.arg(Id, 0)).lower() < 0.0) {
      std::ostringstream OS;
      OS << nodeRef(T, Id) << " operand u" << T.arg(Id, 0) << " = "
         << T.value(T.arg(Id, 0)) << " reaches negative values";
      flag(Report, RuleKind::ZeroStraddlingOperand, Id, 0, OS.str());
    }
    break;
  case OpKind::TanOverX:
    // tanOverX is dependency-safe across x = 0 by construction; the
    // hazard is the operand range crossing a tangent pole, which
    // surfaces as an unbounded enclosure or partial.
    if (isUnbounded(T.value(Id)) ||
        (NumArgs == 1 && isUnbounded(T.partial(Id, 0)))) {
      std::ostringstream OS;
      OS << nodeRef(T, Id) << " crosses a tangent pole (enclosure "
         << T.value(Id) << ")";
      flag(Report, RuleKind::ZeroStraddlingOperand, Id, 0, OS.str());
    }
    break;
  case OpKind::Input:
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Neg:
  case OpKind::Sin:
  case OpKind::Cos:
  case OpKind::Tan:
  case OpKind::Exp:
  case OpKind::Sqr:
  case OpKind::PowInt:
  case OpKind::Pow:
  case OpKind::Fabs:
  case OpKind::Erf:
  case OpKind::Atan:
  case OpKind::Min:
  case OpKind::Max:
  case OpKind::Round:
    break;
  }

  for (unsigned A = 0; A != NumArgs; ++A) {
    if (!isUnbounded(T.partial(Id, A)))
      continue;
    std::ostringstream OS;
    OS << nodeRef(T, Id) << " local partial " << A << " w.r.t. u"
       << T.arg(Id, A) << " is " << T.partial(Id, A)
       << " (derivative blow-up)";
    flag(Report, RuleKind::UnboundedPartial, Id, static_cast<int>(A),
         OS.str());
  }
}

/// SCORPIO-W003: the node's enclosure is disproportionately wider than
/// its widest operand — the operation where the interval analysis loses
/// precision.
void lintWidthAmplification(const Tape &T, NodeId Id,
                            const LintOptions &Options,
                            VerifyReport &Report) {
  const unsigned NumArgs = T.numArgs(Id);
  if (NumArgs == 0)
    return;
  const double W = T.value(Id).width();
  if (W < Options.MinNodeWidth)
    return;
  double MaxArgWidth = 0.0;
  for (unsigned A = 0; A != NumArgs; ++A) {
    const double AW = T.value(T.arg(Id, A)).width();
    // Amplification is attributed to the first node that explodes; an
    // already-unbounded operand means it happened upstream.
    if (std::isinf(AW))
      return;
    MaxArgWidth = std::max(MaxArgWidth, AW);
  }
  const bool Amplified =
      std::isinf(W) ||
      W > Options.WidthAmplificationThreshold *
              std::max(MaxArgWidth, Options.MinNodeWidth /
                                        Options.WidthAmplificationThreshold);
  if (!Amplified)
    return;
  std::ostringstream OS;
  OS << nodeRef(T, Id) << " width " << W << " amplifies its widest "
     << "operand width " << MaxArgWidth << " beyond the threshold";
  flag(Report, RuleKind::WidthAmplification, Id, -1, OS.str());
}

} // namespace

VerifyReport verify::lintTape(const Tape &T, const LintContext &Ctx,
                              const LintOptions &Options) {
  VerifyReport Report(Options.MaxFindingsPerRule);
  const size_t N = T.size();

  // Consumer counts and same-kind chain links for W004/W007.
  std::vector<uint32_t> Consumers(N, 0);
  std::vector<bool> HasSameKindConsumer(N, false);
  for (size_t I = 0; I != N; ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    for (unsigned A = 0, E = T.numArgs(Id); A != E; ++A) {
      const NodeId Arg = T.arg(Id, A);
      ++Consumers[static_cast<size_t>(Arg)];
      if (T.kind(Id) == T.kind(Arg))
        HasSameKindConsumer[static_cast<size_t>(Arg)] = true;
    }
  }
  const std::set<NodeId> OutputSet(Ctx.Outputs.begin(), Ctx.Outputs.end());

  for (size_t I = 0; I != N; ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    lintDomains(T, Id, Report);
    lintWidthAmplification(T, Id, Options, Report);

    // W004: a would-be S4 aggregation chain node (accumulative, feeding
    // a same-kind consumer) that also feeds something else: simplify()
    // requires a unique consumer, so the chain survives as levels.
    if (isAccumulativeOp(T.kind(Id)) && HasSameKindConsumer[I] &&
        Consumers[I] > 1 && !OutputSet.count(Id)) {
      std::ostringstream OS;
      OS << nodeRef(T, Id) << " heads an accumulation chain but has "
         << Consumers[I] << " consumers; step S4 cannot collapse it";
      flag(Report, RuleKind::InterleavedAccumulation, Id, -1, OS.str());
    }

    // W007: an input nobody reads.
    if (T.kind(Id) == OpKind::Input && Consumers[I] == 0 &&
        !OutputSet.count(Id)) {
      std::ostringstream OS;
      OS << "input u" << Id << " = " << T.value(Id)
         << " has no consumers";
      flag(Report, RuleKind::FloatingInput, Id, -1, OS.str());
    }
  }

  // W006: tape inputs that were never registered with the analysis.
  if (Ctx.HaveRegistration) {
    const std::set<NodeId> Registered(Ctx.RegisteredInputs.begin(),
                                      Ctx.RegisteredInputs.end());
    for (NodeId In : T.inputs()) {
      if (Registered.count(In))
        continue;
      std::ostringstream OS;
      OS << "input u" << In << " = " << T.value(In)
         << " was recorded but never registered";
      flag(Report, RuleKind::UnregisteredInput, In, -1, OS.str());
    }
  }

  // W005: registered inputs whose adjoint is identically [0, 0] for
  // every output seed — their significance is structurally zero.
  if (Options.CheckDeadInputs && !Ctx.Outputs.empty() && N != 0) {
    std::vector<bool> Alive(N, false);
    const Interval Zero(0.0);
    const unsigned Width = std::max(1u, Options.BatchWidth);
    std::vector<std::pair<NodeId, Interval>> Seeds;
    BatchAdjoints Lanes;
    for (size_t Begin = 0; Begin < Ctx.Outputs.size(); Begin += Width) {
      const size_t End = std::min(Begin + Width, Ctx.Outputs.size());
      Seeds.clear();
      for (size_t O = Begin; O != End; ++O)
        Seeds.emplace_back(Ctx.Outputs[O], Interval(1.0));
      T.reverseSweepBatch(Seeds, Lanes);
      const unsigned W = static_cast<unsigned>(End - Begin);
      for (NodeId In : T.inputs()) {
        const Interval *Row = std::as_const(Lanes).row(In);
        for (unsigned L = 0; L != W; ++L)
          if (!(Row[L] == Zero)) {
            Alive[static_cast<size_t>(In)] = true;
            break;
          }
      }
    }
    // Unconsumed inputs are already W007; restrict W005 to inputs that
    // are consumed yet still reach no output.
    for (NodeId In : T.inputs()) {
      if (Alive[static_cast<size_t>(In)] ||
          Consumers[static_cast<size_t>(In)] == 0 || OutputSet.count(In))
        continue;
      std::ostringstream OS;
      OS << "input u" << In << " = " << T.value(In)
         << " has an identically-zero adjoint for every output";
      flag(Report, RuleKind::DeadSignificance, In, -1, OS.str());
    }
  }

  return Report;
}
