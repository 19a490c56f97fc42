//===- tape/Tape.cpp - DynDFG recording tape implementation --------------===//

#include "tape/Tape.h"

#include "simd/IntervalLanes.h"
#include "simd/IntervalOps.h"

#include <algorithm>
#include <atomic>
#include <utility>

using namespace scorpio;

const char *scorpio::opKindName(OpKind K) {
  switch (K) {
  case OpKind::Input:
    return "input";
  case OpKind::Add:
    return "add";
  case OpKind::Sub:
    return "sub";
  case OpKind::Mul:
    return "mul";
  case OpKind::Div:
    return "div";
  case OpKind::Neg:
    return "neg";
  case OpKind::Sin:
    return "sin";
  case OpKind::Cos:
    return "cos";
  case OpKind::Tan:
    return "tan";
  case OpKind::Exp:
    return "exp";
  case OpKind::Log:
    return "log";
  case OpKind::Sqrt:
    return "sqrt";
  case OpKind::Sqr:
    return "sqr";
  case OpKind::PowInt:
    return "powi";
  case OpKind::Pow:
    return "pow";
  case OpKind::Fabs:
    return "fabs";
  case OpKind::Erf:
    return "erf";
  case OpKind::Atan:
    return "atan";
  case OpKind::Min:
    return "min";
  case OpKind::Max:
    return "max";
  case OpKind::Round:
    return "round";
  case OpKind::TanOverX:
    return "tanoverx";
  }
  assert(false && "unknown op kind");
  return "?";
}

bool scorpio::isAccumulativeOp(OpKind K) {
  return K == OpKind::Add || K == OpKind::Mul || K == OpKind::Min ||
         K == OpKind::Max;
}

unsigned scorpio::opArity(OpKind K) {
  switch (K) {
  case OpKind::Input:
    return 0;
  case OpKind::Neg:
  case OpKind::Sin:
  case OpKind::Cos:
  case OpKind::Tan:
  case OpKind::Exp:
  case OpKind::Log:
  case OpKind::Sqrt:
  case OpKind::Sqr:
  case OpKind::PowInt:
  case OpKind::Fabs:
  case OpKind::Erf:
  case OpKind::Atan:
  case OpKind::Round:
  case OpKind::TanOverX:
    return 1;
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
  case OpKind::Pow:
  case OpKind::Min:
  case OpKind::Max:
    return 2;
  }
  assert(false && "unknown op kind");
  return 0;
}

diag::Expected<Tape> Tape::adopt(std::vector<Interval> Values,
                                 std::vector<TapeOp> Ops,
                                 std::vector<TapeEdges> Edges,
                                 std::vector<NodeId> Inputs,
                                 std::vector<std::string> Divergences) {
  const auto Refuse = [](const char *Why) {
    return diag::Status::error(diag::ErrC::InvalidArgument,
                               std::string("Tape::adopt: ") + Why);
  };
  const size_t N = Values.size();
  if (Ops.size() != N || Edges.size() != N)
    return Refuse("node arrays differ in length");
  size_t NextInput = 0;
  for (size_t I = 0; I != N; ++I) {
    if (static_cast<size_t>(Ops[I].Kind) >= NumOpKinds)
      return Refuse("unknown op kind");
    const TapeEdges &E = Edges[I];
    if (E.NumArgs > 2)
      return Refuse("node records more than two arguments");
    for (unsigned A = 0; A != E.NumArgs; ++A)
      if (E.Args[A] < 0 || static_cast<size_t>(E.Args[A]) >= I)
        return Refuse("argument id is not an earlier node");
    if (Ops[I].Kind == OpKind::Input &&
        (NextInput == Inputs.size() ||
         Inputs[NextInput++] != static_cast<NodeId>(I)))
      return Refuse("input list is not the Input nodes in id order");
  }
  if (NextInput != Inputs.size())
    return Refuse("input list is not the Input nodes in id order");
  Tape T;
  T.Values = std::move(Values);
  T.Ops = std::move(Ops);
  T.Edges = std::move(Edges);
  T.Adjoints.assign(N, Interval(0.0));
  T.Inputs = std::move(Inputs);
  T.Divergences = std::move(Divergences);
  return T;
}

void Tape::clear() {
  Values.clear();
  Ops.clear();
  Edges.clear();
  Adjoints.clear();
  Inputs.clear();
  Divergences.clear();
}

void Tape::reserve(size_t ExpectedNodes) {
  Values.reserve(ExpectedNodes);
  Ops.reserve(ExpectedNodes);
  Edges.reserve(ExpectedNodes);
  Adjoints.reserve(ExpectedNodes);
}

// Every record function copies its operands into locals before the
// first push_back: callers may pass references into this tape's own
// arrays (T.value(B) as a partial), and a growing push_back relocates
// them.

NodeId Tape::recordInput(const Interval &V) {
  const NodeId Id = static_cast<NodeId>(Values.size());
  const Interval Value = V;
  Values.push_back(Value);
  Ops.push_back(TapeOp{OpKind::Input, 0});
  Edges.push_back(TapeEdges{});
  Adjoints.push_back(Interval(0.0));
  Inputs.push_back(Id);
  return Id;
}

NodeId Tape::recordUnary(OpKind K, const Interval &V, NodeId Arg,
                         const Interval &Partial, int32_t AuxInt) {
  const NodeId Id = static_cast<NodeId>(Values.size());
  // IAValue overloads always pass tape-generated ids, but the recording
  // API is public (tests, tooling): an invalid or forward-referencing
  // argument is live-checked and demoted to a passive operand (the node
  // is still recorded, as a constant leaf) instead of corrupting the
  // edge stream in Release builds.
  const bool ArgOk =
      SCORPIO_CHECK(Arg >= 0 && Arg < Id,
                    diag::ErrC::InvalidArgument,
                    "Tape::recordUnary: invalid or forward argument id");
  TapeEdges E;
  if (ArgOk) {
    E.NumArgs = 1;
    E.Args[0] = Arg;
    E.Partials[0] = Partial;
  }
  const Interval Value = V;
  Values.push_back(Value);
  Ops.push_back(TapeOp{K, AuxInt});
  Edges.push_back(E);
  Adjoints.push_back(Interval(0.0));
  return Id;
}

NodeId Tape::recordBinary(OpKind K, const Interval &V, NodeId Arg0,
                          const Interval &Partial0, NodeId Arg1,
                          const Interval &Partial1) {
  const NodeId Id = static_cast<NodeId>(Values.size());
  // Either argument may legitimately be passive (InvalidNodeId); an id
  // that is present but out of range / forward-referencing is demoted to
  // passive with a diagnostic, and a node whose arguments all turn out
  // passive is additionally flagged (callers should have recorded a
  // constant, not an operation).
  auto ActiveOk = [&](NodeId Arg) {
    if (Arg == InvalidNodeId)
      return false;
    return SCORPIO_CHECK(Arg < Id && Arg >= 0, diag::ErrC::InvalidArgument,
                         "Tape::recordBinary: invalid or forward argument id");
  };
  const bool Use0 = ActiveOk(Arg0);
  const bool Use1 = ActiveOk(Arg1);
  (void)SCORPIO_CHECK(Arg0 != InvalidNodeId || Arg1 != InvalidNodeId,
                      diag::ErrC::InvalidArgument,
                      "Tape::recordBinary: binary op needs at least one "
                      "active argument");
  TapeEdges E;
  if (Use0) {
    E.Args[E.NumArgs] = Arg0;
    E.Partials[E.NumArgs] = Partial0;
    ++E.NumArgs;
  }
  if (Use1) {
    E.Args[E.NumArgs] = Arg1;
    E.Partials[E.NumArgs] = Partial1;
    ++E.NumArgs;
  }
  const Interval Value = V;
  Values.push_back(Value);
  Ops.push_back(TapeOp{K, 0});
  Edges.push_back(E);
  Adjoints.push_back(Interval(0.0));
  return Id;
}

void Tape::clearAdjoints() {
  simd::zeroFillRun(Adjoints.data(), Adjoints.size());
}

void Tape::seedAdjoint(NodeId Id, const Interval &Seed) {
  SCORPIO_REQUIRE(isValidNode(Id), diag::ErrC::OutOfRange,
                  "Tape::seedAdjoint: node id out of range");
  Adjoints[static_cast<size_t>(Id)] += Seed;
}

void BatchAdjoints::resize(size_t NumNodes, unsigned Width) {
  if (NumNodes == Nodes && Width == Lanes) {
    for (NodeId Id : LiveRows) {
      simd::zeroFillRun(Data.data() + static_cast<size_t>(Id) * Lanes, Lanes);
      Live[static_cast<size_t>(Id)] = 0;
    }
    LiveRows.clear();
    return;
  }
  Nodes = NumNodes;
  Lanes = Width;
  Data.assign(NumNodes * Width, Interval(0.0));
  Live.assign(NumNodes, 0);
  LiveRows.clear();
  assert((Data.empty() || simd::isCacheLineAligned(Data.data())) &&
         "BatchAdjoints storage must be cache-line-aligned");
}

namespace {
/// See Tape::totalReverseSweeps().
std::atomic<uint64_t> ReverseSweepCounter{0};
} // namespace

uint64_t Tape::totalReverseSweeps() {
  return ReverseSweepCounter.load(std::memory_order_relaxed);
}

void Tape::reverseSweep(SweepBackend Backend) {
  ReverseSweepCounter.fetch_add(1, std::memory_order_relaxed);
  // Eq. 8: u_(1)i = sum over consumers j of dphi_j/du_i * u_(1)j,
  // evaluated by walking the tape backwards and scattering each node's
  // adjoint to its arguments.  Nodes with a [0,0] adjoint reach nobody
  // (interval products with an exact-zero factor are exactly [0,0]), so
  // they are skipped without widening the result.
  const Interval Zero(0.0);
  if (Backend == SweepBackend::Scalar) {
    // The textbook per-edge operator loop, kept verbatim as the
    // reference side of the bit-identity cross-checks.
    for (size_t I = Values.size(); I-- > 0;) {
      const Interval &A = Adjoints[I];
      if (A == Zero)
        continue;
      const TapeEdges &E = Edges[I];
      for (uint8_t K = 0; K != E.NumArgs; ++K)
        Adjoints[static_cast<size_t>(E.Args[K])] += E.Partials[K] * A;
    }
    return;
  }
  // Auto: identical scatter order, with two bit-exact shortcuts.  An
  // exact-zero partial contributes the exact-zero product, and adding
  // [0, 0] is the identity — skip the edge.  A point partial (every
  // +/- edge) needs only two of operator*'s four corner products, and
  // a one-signed point factor is monotone, so the bounds arrive
  // pre-ordered; both branches reproduce operator*'s result bit for
  // bit (the same classification the batched sweep amortizes over its
  // lanes).
  for (size_t I = Values.size(); I-- > 0;) {
    const Interval &A = Adjoints[I];
    if (A == Zero)
      continue;
    const TapeEdges &E = Edges[I];
    for (uint8_t K = 0; K != E.NumArgs; ++K) {
      const Interval P = E.Partials[K];
      if (P == Zero)
        continue;
      Interval &D = Adjoints[static_cast<size_t>(E.Args[K])];
      if (P.isPoint()) {
        const double Pv = P.lower();
        const double X1 = detail::mulBound(Pv, A.lower());
        const double X2 = detail::mulBound(Pv, A.upper());
        D += Pv > 0.0 ? detail::outward(X1, X2, 1)
                      : detail::outward(X2, X1, 1);
      } else {
        D += P * A;
      }
    }
  }
}

namespace {

/// The vectorized prefix of one lane scatter: applies partial \p P of
/// one (node, argument) edge to lanes [0, retval) of destination row
/// \p D, simd::NativeLanes lanes per step.  Shape selects the same
/// three product forms the scalar loop classifies into: 0 = positive
/// point partial, 1 = negative point partial, 2 = general interval
/// partial.  Returns the number of lanes consumed (a multiple of the
/// vector width; the caller's scalar loop finishes the tail).
///
/// Bit-identity with the scalar lanes is compositional: mulPoint/mulIA
/// reproduce the products, the exact-zero-adjoint skip becomes a
/// select to [0, 0] (which addIA's B-zero identity turns back into
/// "destination unchanged"), and addIA reproduces operator+.
template <int Shape>
inline unsigned scatterLanesSimd(const Interval &P, const Interval *Row,
                                 Interval *D, unsigned W) {
  if constexpr (simd::NativeLanes <= 1) {
    (void)P;
    (void)Row;
    (void)D;
    (void)W;
    return 0;
  } else {
    constexpr unsigned VW = simd::NativeLanes;
    using IL = simd::IntervalLanes<VW>;
    const simd::DoubleLanes<VW> Pv =
        simd::DoubleLanes<VW>::broadcast(P.lower());
    const IL PL = IL::broadcast(P);
    const IL ZeroIA = IL::zero();
    unsigned L = 0;
    for (; L + VW <= W; L += VW) {
      const IL A = simd::loadIntervals<VW>(Row + L);
      const simd::LaneMask<VW> AZ = A.isZero();
      // A whole vector of zero adjoints reaches nobody — the common
      // case in the upper tape region, before the seeds fan out.
      if (AZ.all())
        continue;
      IL C;
      if constexpr (Shape == 0)
        C = simd::mulPoint<true>(Pv, A);
      else if constexpr (Shape == 1)
        C = simd::mulPoint<false>(Pv, A);
      else
        C = simd::mulIA(PL, A);
      // Zero-adjoint lanes contribute exactly [0, 0] (mulIA already
      // guarantees this; the point forms outward-round their zero
      // products, so force them back).
      if constexpr (Shape != 2)
        C = IL::select(AZ, ZeroIA, C);
      const IL Dv = simd::loadIntervals<VW>(D + L);
      simd::storeIntervals<VW>(D + L, simd::addIA(Dv, C));
    }
    return L;
  }
}

} // namespace

void Tape::reverseSweepBatch(
    std::span<const std::pair<NodeId, Interval>> Seeds, BatchAdjoints &Out,
    SweepBackend Backend) const {
  ReverseSweepCounter.fetch_add(1, std::memory_order_relaxed);
  const unsigned W = static_cast<unsigned>(Seeds.size());
  Out.resize(Values.size(), W);
  if (W == 0 || Values.empty())
    return;
  for (unsigned L = 0; L != W; ++L) {
    // An out-of-range seed node leaves its lane all-zero (a sweep that
    // was never seeded) instead of scribbling outside the matrix.
    if (!SCORPIO_CHECK(isValidNode(Seeds[L].first), diag::ErrC::OutOfRange,
                       "Tape::reverseSweepBatch: seed node id out of range"))
      continue;
    Out.at(Seeds[L].first, L) += Seeds[L].second;
  }

  // One backward pass over the edge stream, propagating all W lanes of a
  // node before moving to the next node.  Per lane this performs exactly
  // the sequence of interval operations reverseSweep() would, so each
  // lane's result is bit-identical to a dedicated single-seed sweep:
  // within a node, lane L's contributions to the arguments happen in
  // argument order (which matters when both arguments alias, as in x*x),
  // and contributions to a slot arrive in descending consumer order.
  // A row that is not live is [0, 0] in every lane, and the scalar
  // sweep skips a zero adjoint, so skipping the row is exact; every
  // consumer has a larger id than its arguments, so a row's liveness is
  // final by the time the pass reaches it.
  const Interval Zero(0.0);
  // With the Auto backend each lane loop runs a vectorized prefix
  // (NativeLanes lanes per step) and finishes with the scalar tail; the
  // Scalar backend — the E008 cross-check reference — starts every loop
  // at lane 0 so only the original scalar code runs.
  const bool UseSimd = Backend == SweepBackend::Auto && simd::NativeLanes > 1;
  for (size_t I = Values.size(); I-- > 0;) {
    if (!Out.isLive(static_cast<NodeId>(I)))
      continue;
    const TapeEdges &E = Edges[I];
    if (E.NumArgs == 0)
      continue;
    const Interval *Row = std::as_const(Out).row(static_cast<NodeId>(I));
    // Per argument, the destination row, the partial, and the partial's
    // shape are loop-invariant; classifying them once per node and
    // amortizing over the W lanes is where the batch saves over W
    // separate sweeps.  Iterating arguments outside lanes keeps the
    // per-slot accumulation order of the scalar sweep (lanes never share
    // a slot, and an aliased x*x argument pair still applies partial 0
    // before partial 1 to every lane's slot).
    for (uint8_t K = 0; K != E.NumArgs; ++K) {
      const Interval P = E.Partials[K];
      // An exact-zero partial contributes the exact-zero product to
      // every lane, and adding [0, 0] is the identity — skip the node.
      if (P == Zero)
        continue;
      // The one write into an argument row: it makes the row live.
      Interval *const D = Out.row(E.Args[K]);
      if (P.isPoint()) {
        // Point partial (every +/- edge and any differentiation w.r.t.
        // an operand of a constant): only two of operator*'s four bound
        // products are distinct, and multiplying by a one-signed point
        // is monotone, so the product bounds arrive already ordered.
        // Both branches produce bit-exactly operator*'s result.
        const double Pv = P.lower();
        if (Pv > 0.0) {
          for (unsigned L = UseSimd ? scatterLanesSimd<0>(P, Row, D, W) : 0;
               L != W; ++L) {
            const Interval A = Row[L];
            if (A == Zero)
              continue;
            const double X1 = detail::mulBound(Pv, A.lower());
            const double X2 = detail::mulBound(Pv, A.upper());
            D[L] += detail::outward(X1, X2, 1);
          }
        } else {
          for (unsigned L = UseSimd ? scatterLanesSimd<1>(P, Row, D, W) : 0;
               L != W; ++L) {
            const Interval A = Row[L];
            if (A == Zero)
              continue;
            const double X1 = detail::mulBound(Pv, A.lower());
            const double X2 = detail::mulBound(Pv, A.upper());
            D[L] += detail::outward(X2, X1, 1);
          }
        }
      } else {
        for (unsigned L = UseSimd ? scatterLanesSimd<2>(P, Row, D, W) : 0;
             L != W; ++L) {
          const Interval A = Row[L];
          if (A == Zero)
            continue;
          D[L] += P * A;
        }
      }
    }
  }
}

void Tape::reverseSweepBatch(std::span<const NodeId> SeedNodes,
                             BatchAdjoints &Out, SweepBackend Backend) const {
  std::vector<std::pair<NodeId, Interval>> Seeds;
  Seeds.reserve(SeedNodes.size());
  for (NodeId Id : SeedNodes)
    Seeds.emplace_back(Id, Interval(1.0));
  reverseSweepBatch(std::span<const std::pair<NodeId, Interval>>(Seeds), Out,
                    Backend);
}

void Tape::noteDivergence(std::string Description) {
  Divergences.push_back(std::move(Description));
}

Tape *&Tape::activeSlot() {
  thread_local Tape *Active = nullptr;
  return Active;
}

Tape *Tape::active() { return activeSlot(); }

ActiveTapeScope::ActiveTapeScope() : Previous(Tape::activeSlot()) {
  Tape::activeSlot() = &OwnedTape;
}

ActiveTapeScope::~ActiveTapeScope() { Tape::activeSlot() = Previous; }
