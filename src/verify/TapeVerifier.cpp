//===- verify/TapeVerifier.cpp - Structural tape verification -------------===//

#include "verify/TapeVerifier.h"

#include "simd/DoubleLanes.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

using namespace scorpio;
using namespace scorpio::verify;

namespace {

/// Writes the raw mirror of node \p I of a tape's SoA arrays into \p N,
/// whose argument slots past the node's arity must hold their defaults.
/// Reads the arrays directly: the edge invariant (tape/Tape.h) makes
/// the per-node accessors' id checks redundant here.
void fillRawNode(RawNode &N, std::span<const TapeOp> Ops,
                 std::span<const TapeEdges> Edges,
                 std::span<const Interval> Values, size_t I) {
  const TapeEdges &E = Edges[I];
  N.Kind = Ops[I].Kind;
  N.AuxInt = Ops[I].AuxInt;
  N.ValueLo = Values[I].lower();
  N.ValueHi = Values[I].upper();
  N.NumArgs = E.NumArgs;
  for (unsigned A = 0; A != N.NumArgs && A != 2; ++A) {
    N.Args[A] = E.Args[A];
    N.PartialLo[A] = E.Partials[A].lower();
    N.PartialHi[A] = E.Partials[A].upper();
  }
}

std::string describeNode(NodeId Id, OpKind Kind) {
  std::ostringstream OS;
  OS << "u" << Id;
  if (static_cast<size_t>(Kind) < NumOpKinds)
    OS << " (" << opKindName(Kind) << ")";
  return OS.str();
}

bool boundsMalformed(double Lo, double Hi) {
  return std::isnan(Lo) || std::isnan(Hi) || Lo > Hi;
}

/// The structural rules (E001-E007) over \p N nodes, node I read as
/// NodeAt(I) — a RawTape's stored node, or one built on the fly from a
/// tape's arrays so in-process verification copies no mirror.
template <typename NodeAtFn>
VerifyReport checkStructure(size_t N, NodeAtFn NodeAt,
                            std::span<const NodeId> Inputs,
                            std::span<const NodeId> Outputs,
                            const VerifierOptions &Options) {
  VerifyReport Report(Options.MaxFindingsPerRule);
  auto Flag = [&](RuleKind K, NodeId Node, int Arg, std::string Msg) {
    Finding F;
    F.Kind = K;
    F.Node = Node;
    F.ArgIndex = Arg;
    F.Message = std::move(Msg);
    Report.add(std::move(F));
  };

  for (size_t I = 0; I != N; ++I) {
    const RawNode &Node = NodeAt(I);
    const NodeId Id = static_cast<NodeId>(I);

    // Arity consistency (E003).  An unrecognized kind byte cannot be
    // given an expected arity; it is an arity violation by definition.
    if (static_cast<size_t>(Node.Kind) >= NumOpKinds) {
      std::ostringstream OS;
      OS << "u" << Id << " has unrecognized operation kind "
         << static_cast<int>(Node.Kind);
      Flag(RuleKind::ArityMismatch, Id, -1, OS.str());
    } else {
      const unsigned Arity = opArity(Node.Kind);
      // Passive (constant) operands are not recorded, so a binary node
      // may legitimately carry one edge — but an Input must have none,
      // a unary node exactly one, and nothing exceeds its arity.
      const bool Bad = Node.NumArgs > 2 || Node.NumArgs > Arity ||
                       (Arity != 0 && Node.NumArgs == 0);
      if (Bad) {
        std::ostringstream OS;
        OS << describeNode(Id, Node.Kind) << " records "
           << static_cast<int>(Node.NumArgs) << " edges; "
           << opKindName(Node.Kind) << " admits "
           << (Arity == 2 ? "1-2" : std::to_string(Arity));
        Flag(RuleKind::ArityMismatch, Id, -1, OS.str());
      }
    }

    // Value enclosure well-formed (E005).
    if (boundsMalformed(Node.ValueLo, Node.ValueHi)) {
      std::ostringstream OS;
      OS << describeNode(Id, Node.Kind) << " value bounds [" << Node.ValueLo
         << ", " << Node.ValueHi << "] are not a valid interval";
      Flag(RuleKind::MalformedValue, Id, -1, OS.str());
    }

    const unsigned Edges = std::min<unsigned>(Node.NumArgs, 2);
    for (unsigned A = 0; A != Edges; ++A) {
      const NodeId Arg = Node.Args[A];
      if (Arg < 0 || static_cast<size_t>(Arg) >= N) {
        std::ostringstream OS;
        OS << describeNode(Id, Node.Kind) << " argument " << A << " id "
           << Arg << " does not name a recorded node";
        Flag(RuleKind::DanglingArgument, Id, static_cast<int>(A), OS.str());
      } else if (Arg >= Id) {
        std::ostringstream OS;
        OS << describeNode(Id, Node.Kind) << " argument " << A << " id "
           << Arg << " is not topologically earlier";
        Flag(RuleKind::NonTopologicalArgument, Id, static_cast<int>(A),
             OS.str());
      }
      if (boundsMalformed(Node.PartialLo[A], Node.PartialHi[A])) {
        std::ostringstream OS;
        OS << describeNode(Id, Node.Kind) << " partial " << A << " bounds ["
           << Node.PartialLo[A] << ", " << Node.PartialHi[A]
           << "] are not a valid interval";
        Flag(RuleKind::MalformedPartial, Id, static_cast<int>(A), OS.str());
      }
    }
  }

  // Registered inputs must exist and be Input operations (E006).
  for (NodeId In : Inputs) {
    if (In < 0 || static_cast<size_t>(In) >= N) {
      std::ostringstream OS;
      OS << "input list entry " << In << " does not name a recorded node";
      Flag(RuleKind::InputKindMismatch, In, -1, OS.str());
    } else if (const OpKind Kind = NodeAt(static_cast<size_t>(In)).Kind;
               Kind != OpKind::Input) {
      std::ostringstream OS;
      OS << "input list entry " << describeNode(In, Kind)
         << " is not an Input operation";
      Flag(RuleKind::InputKindMismatch, In, -1, OS.str());
    }
  }

  // Registered outputs must exist (E007).
  for (NodeId Out : Outputs) {
    if (Out < 0 || static_cast<size_t>(Out) >= N) {
      std::ostringstream OS;
      OS << "output list entry " << Out << " does not name a recorded node";
      Flag(RuleKind::InvalidOutput, Out, -1, OS.str());
    }
  }

  return Report;
}

} // namespace

RawTape verify::extractRaw(const Tape &T, std::span<const NodeId> Outputs) {
  const std::span<const TapeOp> Ops = T.ops();
  const std::span<const TapeEdges> Edges = T.edges();
  const std::span<const Interval> Values = T.values();
  RawTape Raw;
  Raw.Nodes.resize(T.size());
  for (size_t I = 0; I != Raw.Nodes.size(); ++I)
    fillRawNode(Raw.Nodes[I], Ops, Edges, Values, I);
  Raw.Inputs = T.inputs();
  Raw.Outputs.assign(Outputs.begin(), Outputs.end());
  return Raw;
}

VerifyReport verify::verifyStructure(const RawTape &Raw,
                                     const VerifierOptions &Options) {
  return checkStructure(
      Raw.Nodes.size(),
      [&](size_t I) -> const RawNode & { return Raw.Nodes[I]; }, Raw.Inputs,
      Raw.Outputs, Options);
}

namespace {

/// Bit-exact interval comparison (the batch contract is bit-identity,
/// stronger than numeric ==: it distinguishes -0.0 from 0.0).
bool bitEqual(const Interval &A, const Interval &B) {
  const double AB[2] = {A.lower(), A.upper()};
  const double BB[2] = {B.lower(), B.upper()};
  return std::memcmp(AB, BB, sizeof(AB)) == 0;
}

/// SCORPIO-E008: replay every output's adjoint both as a batch lane and
/// as a width-1 dedicated batch sweep and compare all node adjoints
/// bit-for-bit.  Both replays go through the const batch entry point,
/// so the tape's own adjoint state is never touched.  On SIMD-capable
/// builds the batch replay is additionally repeated with the forced
/// scalar backend (SweepBackend::Scalar, the textbook lane loops) and
/// compared lane-for-lane, so a vectorization bug is pinned to the SIMD
/// kernels rather than surfacing as a generic batch/dedicated mismatch.
void crossCheckBatchSweep(const Tape &T, std::span<const NodeId> Outputs,
                          const VerifierOptions &Options,
                          VerifyReport &Report) {
  const unsigned Width = std::max(1u, Options.BatchWidth);
  std::vector<std::pair<NodeId, Interval>> Seeds;
  BatchAdjoints Lanes, ScalarLanes, Single;
  for (size_t Begin = 0; Begin < Outputs.size(); Begin += Width) {
    const size_t End = std::min(Begin + Width, Outputs.size());
    Seeds.clear();
    for (size_t O = Begin; O != End; ++O)
      Seeds.emplace_back(Outputs[O], Interval(1.0));
    T.reverseSweepBatch(Seeds, Lanes);
    if (simd::NativeLanes > 1) {
      T.reverseSweepBatch(Seeds, ScalarLanes, SweepBackend::Scalar);
      for (size_t O = Begin; O != End; ++O) {
        const unsigned Lane = static_cast<unsigned>(O - Begin);
        for (size_t I = 0; I != T.size(); ++I) {
          const NodeId Id = static_cast<NodeId>(I);
          if (bitEqual(std::as_const(Lanes).at(Id, Lane),
                       std::as_const(ScalarLanes).at(Id, Lane)))
            continue;
          std::ostringstream OS;
          OS << "adjoint of u" << Id << " for output u" << Outputs[O]
             << " differs between the SIMD and scalar sweep backends in "
                "batch lane "
             << Lane;
          Finding F;
          F.Kind = RuleKind::BatchSweepMismatch;
          F.Node = Id;
          F.Message = OS.str();
          Report.add(std::move(F));
        }
      }
    }
    // Testing seam (see VerifierOptions::TestLaneAdjointBitFlip).
    auto LaneAdjoint = [&](NodeId Id, unsigned Lane) {
      Interval A = std::as_const(Lanes).at(Id, Lane);
      if (Options.TestLaneAdjointBitFlip == 0)
        return A;
      double Lo = A.lower();
      uint64_t Bits;
      std::memcpy(&Bits, &Lo, sizeof(Bits));
      Bits ^= Options.TestLaneAdjointBitFlip;
      std::memcpy(&Lo, &Bits, sizeof(Bits));
      return Interval(std::min(Lo, A.upper()), A.upper());
    };
    for (size_t O = Begin; O != End; ++O) {
      const std::pair<NodeId, Interval> One[] = {
          {Outputs[O], Interval(1.0)}};
      T.reverseSweepBatch(std::span<const std::pair<NodeId, Interval>>(One),
                          Single);
      const unsigned Lane = static_cast<unsigned>(O - Begin);
      for (size_t I = 0; I != T.size(); ++I) {
        const NodeId Id = static_cast<NodeId>(I);
        if (bitEqual(LaneAdjoint(Id, Lane), std::as_const(Single).at(Id, 0)))
          continue;
        std::ostringstream OS;
        OS << "adjoint of u" << Id << " for output u" << Outputs[O]
           << " differs between batch lane " << Lane
           << " and the dedicated sweep";
        Finding F;
        F.Kind = RuleKind::BatchSweepMismatch;
        F.Node = Id;
        F.Message = OS.str();
        Report.add(std::move(F));
      }
    }
  }
}

} // namespace

VerifyReport verify::verifyTape(const Tape &T,
                                std::span<const NodeId> Outputs,
                                const VerifierOptions &Options) {
  const std::span<const TapeOp> Ops = T.ops();
  const std::span<const TapeEdges> Edges = T.edges();
  const std::span<const Interval> Values = T.values();
  VerifyReport Report = checkStructure(
      T.size(),
      [&](size_t I) {
        RawNode N;
        fillRawNode(N, Ops, Edges, Values, I);
        return N;
      },
      T.inputs(), Outputs, Options);
  // Replaying sweeps over a structurally broken tape would exercise the
  // very out-of-bounds behavior the structural rules just reported;
  // the cross-check only runs on a well-formed IR.
  if (Options.CheckBatchSweep && !Report.hasErrors())
    crossCheckBatchSweep(T, Outputs, Options, Report);
  return Report;
}
