//===- tape/Tape.h - DynDFG recording tape for interval adjoint AD --------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Dynamic Data Flow Graph (DynDFG) recording mechanism of
/// dco/scorpio (paper Section 2.3).  Every elementary operation executed
/// on the overloading type appends one node to the active tape; edges
/// carry interval-valued local partial derivatives computed during the
/// forward sweep (Figure 1a).  A reverse sweep propagates interval
/// adjoints backwards (Eq. 7-9) so that after a single pass the interval
/// derivative of the output with respect to *every* intermediate variable
/// is available (Figure 1b).
///
/// Storage is structure-of-arrays over contiguous std::vectors, so the
/// reverse sweep streams only the sweep-hot fields (argument ids,
/// partials, adjoints) instead of striding over full nodes, and a small
/// tape costs only what it records.  reverseSweepBatch() additionally
/// propagates a configurable number of independent output seeds
/// ("adjoint lanes") in one backward pass, which is what makes PerOutput
/// significance analysis of m-output kernels cost ceil(m/K) sweeps
/// instead of m.
///
/// Lifetime rule: a NodeId stays valid for the lifetime of its tape, but
/// a reference returned by value(), partial() or adjoint() -- or a span
/// returned by ops(), edges() or values() -- lasts only until the next
/// record call, which may grow (and so relocate) the arrays.  The record
/// functions themselves accept such references as arguments: they copy
/// every operand before appending anything.
///
/// Edge invariant: every recorded argument id of node Id lies in
/// [0, Id).  The record functions enforce it (an out-of-range or
/// forward id is demoted to a passive operand), and a deserialized tape
/// is rebuilt through them, so a pass over the raw arrays may index by
/// argument id without a check, and every consumer is visited after
/// all of its operands.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_TAPE_TAPE_H
#define SCORPIO_TAPE_TAPE_H

#include "interval/Interval.h"
#include "simd/AlignedAlloc.h"
#include "support/Diag.h"

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace scorpio {

/// Elementary function kinds (the phi_j of Eq. 2).
enum class OpKind : uint8_t {
  Input,
  Add,
  Sub,
  Mul,
  Div,
  Neg,
  Sin,
  Cos,
  Tan,
  Exp,
  Log,
  Sqrt,
  Sqr,
  PowInt,
  Pow,
  Fabs,
  Erf,
  Atan,
  Min,
  Max,
  Round,
  TanOverX
};

/// The highest-valued OpKind enumerator.  Exhaustive iteration (tests,
/// the tape verifier's rule catalog) walks [0, LastOpKind]; when adding
/// an enumerator, update this anchor — the opkind_exhaustive_test and
/// the -Werror=switch'd switches below fail the build otherwise.
inline constexpr OpKind LastOpKind = OpKind::TanOverX;
inline constexpr size_t NumOpKinds = static_cast<size_t>(LastOpKind) + 1;

/// Human-readable operation mnemonic ("add", "sin", ...).
const char *opKindName(OpKind K);

/// True for associative accumulation operations (+, *, min, max) whose
/// self-referential chains (`res = res + term`) are anti-dependency
/// aggregation nodes in the sense of Algorithm 1 step S4.
bool isAccumulativeOp(OpKind K);

/// Number of operands the elementary function phi takes: 0 for Input,
/// 1 for unary kinds, 2 for binary kinds.  This is the *mathematical*
/// arity; a recorded node may carry fewer edges when operands are
/// passive constants (they are not recorded), but never more.
unsigned opArity(OpKind K);

/// Index of a node within its tape.
using NodeId = int32_t;
inline constexpr NodeId InvalidNodeId = -1;

/// Sweep-hot per-node data: recorded (active) argument ids and their
/// interval local partials d(phi_j)/d(u_i).  Kept separate from the cold
/// metadata so the reverse sweep streams only these cache lines.
struct TapeEdges {
  Interval Partials[2];
  NodeId Args[2] = {InvalidNodeId, InvalidNodeId};
  uint8_t NumArgs = 0;
};

/// Cold per-node metadata (graph export, DynDFG construction).
struct TapeOp {
  OpKind Kind = OpKind::Input;
  /// Integer exponent for PowInt.
  int32_t AuxInt = 0;
};

/// Which implementation a reverse sweep runs on.  Both produce
/// bit-identical adjoints — the equivalence is enforced by the
/// SCORPIO-E008 verifier rule and tests/simd_sweep_test.cpp — so Auto
/// is always safe; Scalar exists as the reference side of that
/// cross-check and for A/B benchmarking (bench/perf_report's
/// simd_sweep_speedup).
enum class SweepBackend : uint8_t {
  /// Explicit-width SIMD lane loops when compiled in
  /// (simd::NativeLanes > 1), the scalar loop otherwise.
  Auto,
  /// The scalar per-lane loop, unconditionally.
  Scalar,
};

/// A dense NumNodes x Width matrix of interval adjoints, striped per node
/// (the Width lanes of one node are contiguous).  Each lane is one
/// independent reverse-sweep seed; Tape::reverseSweepBatch() propagates
/// all lanes in a single backward pass over the tape.
///
/// Storage starts cache-line-aligned so the vectorized sweep's lane
/// loads tile cleanly (see simd/AlignedAlloc.h).
class BatchAdjoints {
public:
  BatchAdjoints() = default;
  BatchAdjoints(size_t NumNodes, unsigned Width) { resize(NumNodes, Width); }

  /// Resizes to \p NumNodes x \p Width and zeroes every lane.
  void resize(size_t NumNodes, unsigned Width) {
    Nodes = NumNodes;
    Lanes = Width;
    Data.assign(NumNodes * Width, Interval(0.0));
    assert((Data.empty() || simd::isCacheLineAligned(Data.data())) &&
           "BatchAdjoints storage must be cache-line-aligned");
  }

  size_t numNodes() const { return Nodes; }
  unsigned width() const { return Lanes; }

  Interval &at(NodeId Id, unsigned Lane) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Nodes && Lane < Lanes);
    return Data[static_cast<size_t>(Id) * Lanes + Lane];
  }
  const Interval &at(NodeId Id, unsigned Lane) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Nodes && Lane < Lanes);
    return Data[static_cast<size_t>(Id) * Lanes + Lane];
  }

  /// The contiguous lane stripe of node \p Id.
  Interval *row(NodeId Id) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Nodes);
    return Data.data() + static_cast<size_t>(Id) * Lanes;
  }
  const Interval *row(NodeId Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Nodes);
    return Data.data() + static_cast<size_t>(Id) * Lanes;
  }

private:
  std::vector<Interval, simd::AlignedAllocator<Interval>> Data;
  size_t Nodes = 0;
  unsigned Lanes = 0;
};

/// An append-only tape of elementary operations plus divergence
/// diagnostics.
///
/// Constant operands are *passive*: they are not recorded, so a node's
/// argument list contains only the operands that transitively depend on a
/// registered input.  This matches the paper's DynDFG figures, which show
/// only value-carrying vertices.
class Tape {
public:
  Tape() = default;
  Tape(const Tape &) = delete;
  Tape &operator=(const Tape &) = delete;
  // Movable so deserialized tapes (tape/TapeIO.h) can be handed to an
  // Analysis wholesale.  Moving while a tape is active would dangle the
  // thread-local active() pointer; ActiveTapeScope only ever move-
  // assigns *into* its owned tape, whose address is stable.
  Tape(Tape &&) = default;
  Tape &operator=(Tape &&) = default;

  /// Preallocates storage for \p ExpectedNodes nodes.  A pure hint:
  /// recording beyond it simply grows the arrays.  Kernels that know
  /// their op count (apps, sharded drivers) call this to avoid
  /// reallocation on the hot recording path.
  void reserve(size_t ExpectedNodes);

  /// Appends an input node holding enclosure \p V; returns its id.
  NodeId recordInput(const Interval &V);

  /// Appends a unary operation node.
  NodeId recordUnary(OpKind K, const Interval &V, NodeId Arg,
                     const Interval &Partial, int32_t AuxInt = 0);

  /// Appends a binary operation node.  Either argument may be
  /// InvalidNodeId (a passive operand); at least one must be active.
  NodeId recordBinary(OpKind K, const Interval &V, NodeId Arg0,
                      const Interval &Partial0, NodeId Arg1,
                      const Interval &Partial1);

  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }

  /// True iff \p Id names a recorded node.  Node ids also arrive from
  /// callers (tests, tooling, seed lists), so the accessors below
  /// live-check them and recover with neutral fallbacks instead of
  /// reading out of bounds in Release builds.
  bool isValidNode(NodeId Id) const {
    return Id >= 0 && static_cast<size_t>(Id) < Values.size();
  }

  /// Interval enclosure [u_j] computed during the forward sweep.
  const Interval &value(NodeId Id) const {
    if (!SCORPIO_CHECK(isValidNode(Id), diag::ErrC::OutOfRange,
                       "Tape::value: node id out of range"))
      return zeroInterval();
    return Values[static_cast<size_t>(Id)];
  }

  /// Elementary operation of node \p Id.
  OpKind kind(NodeId Id) const {
    if (!SCORPIO_CHECK(isValidNode(Id), diag::ErrC::OutOfRange,
                       "Tape::kind: node id out of range"))
      return OpKind::Input;
    return Ops[static_cast<size_t>(Id)].Kind;
  }

  /// Integer exponent for PowInt nodes.
  int32_t auxInt(NodeId Id) const {
    if (!SCORPIO_CHECK(isValidNode(Id), diag::ErrC::OutOfRange,
                       "Tape::auxInt: node id out of range"))
      return 0;
    return Ops[static_cast<size_t>(Id)].AuxInt;
  }

  /// Number of recorded (active) arguments of node \p Id.
  unsigned numArgs(NodeId Id) const {
    if (!SCORPIO_CHECK(isValidNode(Id), diag::ErrC::OutOfRange,
                       "Tape::numArgs: node id out of range"))
      return 0;
    return Edges[static_cast<size_t>(Id)].NumArgs;
  }

  /// The \p A-th recorded argument id of node \p Id.
  NodeId arg(NodeId Id, unsigned A) const {
    if (!SCORPIO_CHECK(isValidNode(Id), diag::ErrC::OutOfRange,
                       "Tape::arg: node id out of range"))
      return InvalidNodeId;
    const TapeEdges &E = Edges[static_cast<size_t>(Id)];
    if (!SCORPIO_CHECK(A < E.NumArgs, diag::ErrC::OutOfRange,
                       "Tape::arg: argument index out of range"))
      return InvalidNodeId;
    // NumArgs <= 2, so A & 1 == A here; the mask makes the access
    // provably in-bounds for the optimizer as well.
    return E.Args[A & 1];
  }

  /// The interval local partial with respect to the \p A-th argument.
  const Interval &partial(NodeId Id, unsigned A) const {
    if (!SCORPIO_CHECK(isValidNode(Id), diag::ErrC::OutOfRange,
                       "Tape::partial: node id out of range"))
      return zeroInterval();
    const TapeEdges &E = Edges[static_cast<size_t>(Id)];
    if (!SCORPIO_CHECK(A < E.NumArgs, diag::ErrC::OutOfRange,
                       "Tape::partial: argument index out of range"))
      return zeroInterval();
    // NumArgs <= 2, so A & 1 == A here (see arg()).
    return E.Partials[A & 1];
  }

  /// Interval adjoint accumulated by reverseSweep().
  const Interval &adjoint(NodeId Id) const {
    if (!SCORPIO_CHECK(isValidNode(Id), diag::ErrC::OutOfRange,
                       "Tape::adjoint: node id out of range"))
      return zeroInterval();
    return Adjoints[static_cast<size_t>(Id)];
  }

  /// Read-only views of the SoA arrays, one entry per node, for passes
  /// that walk every node: unlike the per-node accessors above they
  /// skip the id check, which the edge invariant (file comment) makes
  /// redundant.  Valid until the next record call.
  std::span<const TapeOp> ops() const { return Ops; }
  std::span<const TapeEdges> edges() const { return Edges; }
  std::span<const Interval> values() const { return Values; }

  /// Ids of all recorded input nodes, in registration order.
  const std::vector<NodeId> &inputs() const { return Inputs; }

  /// Resets every adjoint to [0, 0].
  void clearAdjoints();

  /// Adds \p Seed to the adjoint of \p Id (Eq. 7 allows y_(1) seeds).
  void seedAdjoint(NodeId Id, const Interval &Seed);

  /// Propagates adjoints from the last node towards the inputs (Eq. 8).
  /// Callers seed output adjoints first.  Auto classifies point partials
  /// once per edge and shortcuts their products (bit-exactly the full
  /// interval multiply); Scalar is the textbook per-edge operator loop.
  /// Both orderings and results are bit-identical.
  void reverseSweep(SweepBackend Backend = SweepBackend::Auto);

  /// Vector-adjoint mode: one backward pass propagating
  /// K = Seeds.size() independent seeds, lane k starting from
  /// Seeds[k].first with adjoint Seeds[k].second.  \p Out is resized to
  /// size() x K and zeroed first.  Lane k of the result is bit-identical
  /// to clearAdjoints() + seedAdjoint(Seeds[k]...) + reverseSweep(): the
  /// per-lane operation sequence is exactly the single-sweep sequence.
  /// Does not touch the tape's own adjoints.
  ///
  /// With Backend == Auto the lane loops run simd::NativeLanes-wide
  /// vertical SIMD over the BatchAdjoints rows (scalar tail for the
  /// remainder); Scalar forces the reference per-lane loop.  The two
  /// backends are bit-identical — the SCORPIO-E008 cross-check replays
  /// both and compares every adjoint.
  void reverseSweepBatch(std::span<const std::pair<NodeId, Interval>> Seeds,
                         BatchAdjoints &Out,
                         SweepBackend Backend = SweepBackend::Auto) const;

  /// Convenience form seeding every listed node with [1, 1].
  void reverseSweepBatch(std::span<const NodeId> SeedNodes,
                         BatchAdjoints &Out,
                         SweepBackend Backend = SweepBackend::Auto) const;

  /// Process-wide count of adjoint reverse sweeps executed since process
  /// start (each reverseSweep() call and each reverseSweepBatch() pass
  /// counts once, whatever its lane width).  Monotonic and thread-safe;
  /// the result-cache tests assert that a warm cache serves a repeated
  /// merge without this counter moving.
  static uint64_t totalReverseSweeps();

  /// Records that a kernel branched on an ambiguous interval comparison.
  /// The analysis result will be flagged invalid (paper Section 2.2).
  void noteDivergence(std::string Description);

  bool hasDiverged() const { return !Divergences.empty(); }
  const std::vector<std::string> &divergences() const { return Divergences; }

  /// The tape new IAValue operations record into, or nullptr when none is
  /// active (pure interval evaluation).  Thread-local.
  static Tape *active();

private:
  friend class ActiveTapeScope;
  static Tape *&activeSlot();

  /// Neutral fallback returned by reference-returning accessors when a
  /// live check fails (there may be no node to refer to at all).
  static const Interval &zeroInterval() {
    static const Interval Zero(0.0);
    return Zero;
  }

  /// SoA node storage, one entry per node in each array.
  std::vector<Interval> Values;
  std::vector<TapeOp> Ops;
  std::vector<TapeEdges> Edges;
  std::vector<Interval> Adjoints;
  std::vector<NodeId> Inputs;
  std::vector<std::string> Divergences;
};

/// RAII activation of a tape for the current thread.
///
/// \code
///   ActiveTapeScope Scope;
///   IAValue X = ...;            // operations record into Scope.tape()
///   Scope.tape().reverseSweep();
/// \endcode
class ActiveTapeScope {
public:
  ActiveTapeScope();
  ~ActiveTapeScope();
  ActiveTapeScope(const ActiveTapeScope &) = delete;
  ActiveTapeScope &operator=(const ActiveTapeScope &) = delete;

  Tape &tape() { return OwnedTape; }
  const Tape &tape() const { return OwnedTape; }

private:
  Tape OwnedTape;
  Tape *Previous;
};

} // namespace scorpio

#endif // SCORPIO_TAPE_TAPE_H
