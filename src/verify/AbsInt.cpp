//===- verify/AbsInt.cpp - Abstract-interpretation audit pass -------------===//

#include "verify/AbsInt.h"

#include "interval/IntervalCompare.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

using namespace scorpio;
using namespace scorpio::verify;

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

bool isExactZero(const Interval &X) {
  return X.lower() == 0.0 && X.upper() == 0.0;
}

/// W001's hazard predicate: a non-degenerate enclosure spanning zero.
bool straddleHazard(const Interval &X) {
  return X.contains(0.0) && !X.isPoint();
}

/// The next double above \p X — a one-ulp upward rounding so the scalar
/// magnitude propagation stays an upper bound under round-to-nearest.
double up(double X) { return detail::stepUp(X); }

/// The trust frontier: nodes whose abstract value cannot be re-derived
/// from recorded information alone.  Inputs are the givens; TanOverX
/// depends on the unrecorded phase constant Phi; a node with fewer
/// recorded edges than its OpKind arity had a passive (unrecorded)
/// constant operand.
bool isAnchored(OpKind K, unsigned NumArgs) {
  return K == OpKind::Input || K == OpKind::TanOverX ||
         NumArgs < opArity(K);
}

/// The recorder's own transfer function for one non-anchored node:
/// value and local partials from the abstract operand enclosures.
/// Mirrors core/IAValue.cpp formula for formula so that on an honest
/// same-build tape abstract and recorded numbers are bitwise equal.
void transfer(OpKind K, int32_t AuxInt, const Interval &X, const Interval &Y,
              Interval &V, Interval &P0, Interval &P1) {
  P0 = Interval(0.0);
  P1 = Interval(0.0);
  switch (K) {
  case OpKind::Add:
    V = X + Y;
    P0 = Interval(1.0);
    P1 = Interval(1.0);
    return;
  case OpKind::Sub:
    V = X - Y;
    P0 = Interval(1.0);
    P1 = Interval(-1.0);
    return;
  case OpKind::Mul:
    V = X * Y;
    P0 = Y;
    P1 = X;
    return;
  case OpKind::Div: {
    const Interval InvB = recip(Y);
    V = X / Y;
    P0 = InvB;
    P1 = -X * sqr(InvB);
    return;
  }
  case OpKind::Neg:
    V = -X;
    P0 = Interval(-1.0);
    return;
  case OpKind::Sin:
    V = sin(X);
    P0 = cos(X);
    return;
  case OpKind::Cos:
    V = cos(X);
    P0 = -sin(X);
    return;
  case OpKind::Tan:
    V = tan(X);
    P0 = Interval(1.0) + sqr(V);
    return;
  case OpKind::Exp:
    V = exp(X);
    P0 = V;
    return;
  case OpKind::Log:
    V = log(X);
    P0 = recip(X);
    return;
  case OpKind::Sqrt:
    V = sqrt(X);
    P0 = recip(Interval(2.0) * V);
    return;
  case OpKind::Sqr:
    V = sqr(X);
    P0 = Interval(2.0) * X;
    return;
  case OpKind::PowInt:
    V = pow(X, AuxInt);
    P0 = AuxInt == 0
             ? Interval(0.0)
             : Interval(static_cast<double>(AuxInt)) * pow(X, AuxInt - 1);
    return;
  case OpKind::Pow:
    V = pow(X, Y);
    P0 = Y * pow(X, Y - Interval(1.0));
    P1 = V * log(X);
    return;
  case OpKind::Fabs:
    V = fabs(X);
    if (X.lower() >= 0.0)
      P0 = Interval(1.0);
    else if (X.upper() <= 0.0)
      P0 = Interval(-1.0);
    else
      P0 = Interval(-1.0, 1.0);
    return;
  case OpKind::Erf: {
    static const double TwoOverSqrtPi = 1.12837916709551257390;
    V = erf(X);
    P0 = Interval(TwoOverSqrtPi) * exp(-sqr(X));
    return;
  }
  case OpKind::Atan:
    V = atan(X);
    P0 = recip(Interval(1.0) + sqr(X));
    return;
  case OpKind::Min:
    switch (certainlyLessEqual(X, Y)) {
    case Tribool::True:
      P0 = Interval(1.0);
      break;
    case Tribool::False:
      P1 = Interval(1.0);
      break;
    case Tribool::Ambiguous:
      P0 = Interval(0.0, 1.0);
      P1 = Interval(0.0, 1.0);
      break;
    }
    V = min(X, Y);
    return;
  case OpKind::Max:
    switch (certainlyGreaterEqual(X, Y)) {
    case Tribool::True:
      P0 = Interval(1.0);
      break;
    case Tribool::False:
      P1 = Interval(1.0);
      break;
    case Tribool::Ambiguous:
      P0 = Interval(0.0, 1.0);
      P1 = Interval(0.0, 1.0);
      break;
    }
    V = max(X, Y);
    return;
  case OpKind::Round: {
    V = round(X);
    const double WIn = X.width();
    const double Slope =
        WIn > 0.0 ? std::min(1.0, V.width() / WIn) : 1.0;
    P0 = Interval(0.0, Slope);
    return;
  }
  case OpKind::Input:
  case OpKind::TanOverX:
    // Anchored kinds never reach the transfer function.
    V = X;
    return;
  }
}

/// Packs a node's operation identity for the A008 duplicate scan; two
/// nodes with equal keys (confirmed field by field against the bucket)
/// compute the same value.
uint64_t cseHash(OpKind K, int32_t AuxInt, unsigned NumArgs, NodeId A0,
                 NodeId A1) {
  uint64_t H = 1469598103934665603ull;
  const auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  Mix(static_cast<uint64_t>(K));
  Mix(static_cast<uint64_t>(static_cast<uint32_t>(AuxInt)));
  Mix(NumArgs);
  Mix(static_cast<uint64_t>(static_cast<int64_t>(A0)));
  Mix(static_cast<uint64_t>(static_cast<int64_t>(A1)));
  return H;
}

bool sameOperation(std::span<const TapeOp> Ops,
                   std::span<const TapeEdges> Edges, NodeId A, NodeId B) {
  const size_t IA = static_cast<size_t>(A), IB = static_cast<size_t>(B);
  if (Ops[IA].Kind != Ops[IB].Kind || Ops[IA].AuxInt != Ops[IB].AuxInt ||
      Edges[IA].NumArgs != Edges[IB].NumArgs)
    return false;
  for (unsigned K = 0, E = Edges[IA].NumArgs; K != E; ++K)
    if (Edges[IA].Args[K] != Edges[IB].Args[K])
      return false;
  return true;
}

} // namespace

AbsIntResult verify::absInterpret(const Tape &T,
                                  std::span<const NodeId> Outputs,
                                  const AbsIntOptions &Options) {
  // Every pass walks the tape's raw arrays: the edge invariant
  // (tape/Tape.h) makes each argument id a valid index, so no access
  // pays the per-node id check of the Tape accessors.
  const std::span<const TapeOp> Ops = T.ops();
  const std::span<const TapeEdges> Edges = T.edges();
  const std::span<const Interval> Recorded = T.values();
  const size_t N = T.size();
  AbsIntResult R;
  R.Report = VerifyReport(Options.MaxFindingsPerRule);
  R.Values.resize(N);
  R.Partials.assign(2 * N, Interval(0.0));
  R.Anchored.assign(N, 0);
  R.AdjointMagBound.assign(N, 0.0);
  R.SignificanceBound.assign(N, 0.0);

  std::vector<uint32_t> Consumers(N, 0);
  std::vector<uint8_t> IsOutput(N, 0);
  for (NodeId O : Outputs)
    if (O != InvalidNodeId && static_cast<size_t>(O) < N)
      IsOutput[static_cast<size_t>(O)] = 1;

  // Foldable[i]: the node's transitive dependencies are all point
  // (degenerate) input enclosures, so its value is a compile-time
  // constant.  Anchored non-input nodes depend on unrecorded state and
  // are never foldable.
  std::vector<uint8_t> Foldable(N, 0);

  // Open-addressed CSE table, one allocation for the whole scan: a
  // slot holds the first node recorded with its operation signature.
  // Capacity >= 2N keeps the load factor at 1/2, so probe chains stay
  // short; linear probing with the sameOperation compare handles hash
  // collisions exactly like the per-hash buckets a map would keep.
  std::vector<NodeId> CseTable;
  size_t CseMask = 0;
  if (Options.CheckCommonSubexpressions) {
    size_t Capacity = 16;
    while (Capacity < 2 * N)
      Capacity <<= 1;
    CseTable.assign(Capacity, InvalidNodeId);
    CseMask = Capacity - 1;
  }

  // ---- Forward pass: re-derive enclosures and partials ----
  for (size_t I = 0; I != N; ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    const OpKind Kind = Ops[I].Kind;
    const TapeEdges &E = Edges[I];
    const unsigned NumArgs = E.NumArgs;
    for (unsigned K = 0; K != NumArgs; ++K)
      ++Consumers[static_cast<size_t>(E.Args[K])];

    if (isAnchored(Kind, NumArgs)) {
      R.Anchored[I] = 1;
      R.Values[I] = Recorded[I];
      for (unsigned K = 0; K != NumArgs; ++K)
        R.Partials[2 * I + K] = E.Partials[K];
      Foldable[I] = Kind == OpKind::Input && R.Values[I].isPoint();
      continue;
    }

    const Interval &X = R.Values[static_cast<size_t>(E.Args[0])];
    const Interval &Y =
        NumArgs > 1 ? R.Values[static_cast<size_t>(E.Args[1])] : X;
    Interval V(0.0), P0(0.0), P1(0.0);
    transfer(Kind, Ops[I].AuxInt, X, Y, V, P0, P1);
    R.Values[I] = V;
    R.Partials[2 * I + 0] = P0;
    if (NumArgs > 1)
      R.Partials[2 * I + 1] = P1;

    Foldable[I] = 1;
    for (unsigned K = 0; K != NumArgs; ++K)
      if (!Foldable[static_cast<size_t>(E.Args[K])])
        Foldable[I] = 0;

    // A001: the recorded enclosure must lie inside the abstract one.
    // Raw containment first — on an honest same-build tape the two are
    // bitwise equal, so the slack widening (a handful of nextafter
    // steps per bound) only ever runs on the failure path.
    if (!V.contains(Recorded[I]) &&
        !detail::outward(V.lower(), V.upper(), Options.SlackUlps)
             .contains(Recorded[I])) {
      std::ostringstream OS;
      OS << nodeRef(T, Id) << " recorded enclosure " << Recorded[I]
         << " escapes the abstract enclosure " << V;
      flag(R.Report, RuleKind::ValueEscapesEnclosure, Id, -1, OS.str());
    }

    // A002: recorded partials must lie inside the abstract partials.
    // Round is exempt: its slope formula is a width ratio, which is not
    // inclusion-monotone (see DESIGN.md on the containment argument).
    if (Kind != OpKind::Round) {
      for (unsigned K = 0; K != NumArgs; ++K) {
        const Interval &P = R.Partials[2 * I + K];
        if (P.contains(E.Partials[K]) ||
            detail::outward(P.lower(), P.upper(), Options.SlackUlps)
                .contains(E.Partials[K]))
          continue;
        std::ostringstream OS;
        OS << nodeRef(T, Id) << " recorded partial " << K << " w.r.t. u"
           << E.Args[K] << " = " << E.Partials[K]
           << " escapes the abstract partial " << P;
        flag(R.Report, RuleKind::PartialEscapesEnclosure, Id,
             static_cast<int>(K), OS.str());
      }
    }

    // A006: the abstract divisor provably straddles zero, but the
    // recorded operand enclosure claims otherwise — the W001 domain
    // lint (which only sees recorded values) stays silent on a real
    // hazard.
    if (Kind == OpKind::Div && NumArgs == 2) {
      const NodeId Divisor = E.Args[1];
      const Interval &AbsB = R.Values[static_cast<size_t>(Divisor)];
      const Interval &RecB = Recorded[static_cast<size_t>(Divisor)];
      if (straddleHazard(AbsB) && !straddleHazard(RecB)) {
        std::ostringstream OS;
        OS << nodeRef(T, Id) << " divisor u" << Divisor << " = " << RecB
           << " must contain zero (abstract " << AbsB
           << "); the recorded enclosure hides the hazard";
        flag(R.Report, RuleKind::HiddenZeroDivisor, Id, 1, OS.str());
      }
    }

    // A008: an identical operation on identical operands was already
    // recorded.  Anchored nodes are excluded above: their unrecorded
    // passive operand could differ between the two occurrences.
    if (Options.CheckCommonSubexpressions) {
      const NodeId A0 = E.Args[0];
      const NodeId A1 = NumArgs > 1 ? E.Args[1] : InvalidNodeId;
      size_t Slot = static_cast<size_t>(
                        cseHash(Kind, Ops[I].AuxInt, NumArgs, A0, A1)) &
                    CseMask;
      NodeId First = InvalidNodeId;
      while (CseTable[Slot] != InvalidNodeId) {
        if (sameOperation(Ops, Edges, CseTable[Slot], Id)) {
          First = CseTable[Slot];
          break;
        }
        Slot = (Slot + 1) & CseMask;
      }
      if (First != InvalidNodeId) {
        std::ostringstream OS;
        OS << nodeRef(T, Id) << " duplicates u" << First
           << ": same operation on identical operands";
        std::ostringstream Fix;
        Fix << "reuse u" << First << " instead of recomputing";
        flag(R.Report, RuleKind::CommonSubexpression, Id, -1, OS.str(),
             Fix.str());
      } else {
        CseTable[Slot] = Id;
      }
    }
  }

  // A007: flag the frontier of each constant-foldable subgraph — a
  // foldable operation node that is an output, feeds a non-foldable
  // consumer, or feeds nothing.  (Interior nodes fold away with it.)
  if (Options.CheckFoldable) {
    std::vector<uint8_t> Frontier(N, 0);
    for (size_t I = 0; I != N; ++I) {
      if (!Foldable[I] || Ops[I].Kind == OpKind::Input)
        continue;
      Frontier[I] = IsOutput[I] || Consumers[I] == 0;
    }
    for (size_t I = 0; I != N; ++I) {
      if (Foldable[I])
        continue;
      for (unsigned K = 0, E = Edges[I].NumArgs; K != E; ++K) {
        const size_t Arg = static_cast<size_t>(Edges[I].Args[K]);
        if (Foldable[Arg] && Ops[Arg].Kind != OpKind::Input)
          Frontier[Arg] = 1;
      }
    }
    for (size_t I = 0; I != N; ++I) {
      if (!Frontier[I])
        continue;
      const NodeId Id = static_cast<NodeId>(I);
      std::ostringstream OS;
      OS << nodeRef(T, Id) << " computes to the constant " << R.Values[I]
         << " from point inputs";
      std::ostringstream Fix;
      Fix << "fold u" << Id << " and its point-input subgraph into a "
          << "constant operand";
      flag(R.Report, RuleKind::ConstantFoldable, Id, -1, OS.str(),
           Fix.str());
    }
  }

  // ---- Backward pass: adjoint magnitude bounds ----
  // M[i] bounds the summed adjoint magnitudes over every output seed:
  // seeding each output with magnitude 1 and propagating
  // M[arg] += |partial| * M[node] upward (with one-ulp upward rounding
  // per operation) dominates both the combined-seed sweep and the sum
  // of per-output sweeps, because interval |.| is sub-multiplicative
  // and sub-additive over the same recursion.
  std::vector<double> &M = R.AdjointMagBound;
  for (NodeId O : Outputs)
    if (O != InvalidNodeId && static_cast<size_t>(O) < N)
      M[static_cast<size_t>(O)] += 1.0;
  for (size_t I = N; I-- > 0;) {
    const double MI = M[I];
    if (MI == 0.0)
      continue;
    for (unsigned K = 0, E = Edges[I].NumArgs; K != E; ++K) {
      const double PM = R.Partials[2 * I + K].mag();
      if (PM == 0.0)
        continue;
      double &Slot = M[static_cast<size_t>(Edges[I].Args[K])];
      Slot = up(Slot + up(PM * MI));
    }
  }

  // Per-node significance bound.  Both metrics are dominated by
  // (w([u]) + 2 |[u]|) * M: Eq.-11 uses w([u] * a) <= w([u])|a| +
  // |[u]| w(a) <= (w + 2|.|)|a|, WidthTimesDerivative uses
  // w([u]) * |a| directly, and summing over per-output seeds is
  // covered because M bounds the summed magnitudes.
  const double Cap = Options.SignificanceCap;
  for (size_t I = 0; I != N; ++I) {
    const double MI = M[I];
    if (MI == 0.0)
      continue; // exact-zero adjoints give exactly zero significance
    const double W = R.Values[I].width();
    const double Mg = R.Values[I].mag();
    const double Raw = up(up(W + up(2.0 * Mg)) * MI);
    // NaN (inf - inf widths) and overflow both saturate at the cap,
    // exactly like cappedSignificance.
    R.SignificanceBound[I] = Raw <= Cap ? Raw : Cap;
  }

  // A005: a consumed non-input node every consuming edge of which has
  // abstract partial exactly [0, 0] — the branch is unreachable by
  // abstract adjoint (a certainly-unselected min/max arm, x^0), so the
  // work feeding it can never influence any output.  The syntactic
  // W-rules cannot see this: the edges exist, the node is alive.
  // Only report nodes that a *live* consumer cuts off through a hard
  // zero partial; a node dead merely because its consumers are dead
  // reports at the consumer closest to the live graph.
  std::vector<uint8_t> DeadEdgeFromLive(N, 0);
  for (size_t J = 0; J != N; ++J) {
    if (M[J] == 0.0 && !IsOutput[J])
      continue;
    for (unsigned K = 0, E = Edges[J].NumArgs; K != E; ++K)
      if (isExactZero(R.Partials[2 * J + K]))
        DeadEdgeFromLive[static_cast<size_t>(Edges[J].Args[K])] = 1;
  }
  for (size_t I = 0; I != N; ++I) {
    if (Ops[I].Kind == OpKind::Input || IsOutput[I] || Consumers[I] == 0 ||
        M[I] != 0.0 || !DeadEdgeFromLive[I])
      continue;
    const NodeId Id = static_cast<NodeId>(I);
    std::ostringstream OS;
    OS << nodeRef(T, Id) << " = " << R.Values[I]
       << " is unreachable by abstract adjoint: every consuming edge "
       << "has partial [0, 0]";
    flag(R.Report, RuleKind::StaticallyDeadEdge, Id, -1, OS.str());
  }

  return R;
}

void verify::checkDynamicSignificance(AbsIntResult &R,
                                      std::span<const double> NodeSignificance,
                                      const AbsIntOptions &Options) {
  const size_t N = std::min(R.SignificanceBound.size(),
                            NodeSignificance.size());
  const double Slack = 1.0 + Options.SignificanceSlack;
  for (size_t I = 0; I != N; ++I) {
    const double D = NodeSignificance[I];
    const double B = R.SignificanceBound[I];
    if (D <= B * Slack)
      continue;
    std::ostringstream OS;
    OS << "u" << I << " dynamic significance " << D
       << " exceeds the static bound " << B;
    flag(R.Report, RuleKind::SignificanceAboveBound,
         static_cast<NodeId>(I), -1, OS.str());
  }
}

VerifyReport verify::auditStoredSignificance(const AbsIntResult &R,
                                             std::span<const double> Stored,
                                             const AbsIntOptions &Options) {
  VerifyReport Report(Options.MaxFindingsPerRule);
  if (Stored.size() != R.SignificanceBound.size()) {
    std::ostringstream OS;
    OS << "stored report has " << Stored.size()
       << " per-node significances but the tape has "
       << R.SignificanceBound.size() << " nodes";
    flag(Report, RuleKind::StoredReportAboveBound, InvalidNodeId, -1,
         OS.str());
    return Report;
  }
  const double Slack = 1.0 + Options.SignificanceSlack;
  for (size_t I = 0; I != Stored.size(); ++I) {
    const double D = Stored[I];
    const double B = R.SignificanceBound[I];
    // A reverse sweep over this tape can only produce values in
    // [0, bound]; NaN, negatives and escapes all prove the report was
    // not computed from this tape.
    if (D >= 0.0 && D <= B * Slack)
      continue;
    std::ostringstream OS;
    OS << "u" << I << " stored significance " << D
       << " violates the static bound " << B;
    flag(Report, RuleKind::StoredReportAboveBound, static_cast<NodeId>(I),
         -1, OS.str());
  }
  return Report;
}
