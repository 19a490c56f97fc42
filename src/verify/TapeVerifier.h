//===- verify/TapeVerifier.h - Structural DynDFG/tape verification --------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural well-formedness verification of a recorded Tape (the
/// SCORPIO-Exxx rules of the catalog in Verify.h).  Runs after step S3,
/// before the reverse sweep consumes the tape: a malformed IR must be
/// reported, never analysed.
///
/// The checks operate on RawTape, a plain-data mirror of the tape's node
/// stream.  Two reasons:
///
///  * Tape's recording API live-checks its preconditions and demotes bad
///    edges at record time, so a defective tape cannot be *constructed*
///    through it — but the verifier must not rely on that: tapes can in
///    principle arrive from other producers (deserialization, sharded
///    transports) or from scorpio bugs, which is exactly what it is here
///    to catch.
///  * Mutation testing: tests forge arbitrary defects (NaN partials,
///    forward references, wrong arities) directly in the raw view and
///    assert each one is flagged with the expected rule ID — coverage
///    the recording API would otherwise make unreachable.
///
/// The batch-sweep cross-check (SCORPIO-E008) additionally replays the
/// adjoint sweep on the real Tape: every reverseSweepBatch lane is
/// compared bit-for-bit against a dedicated single-seed sweep, pinning
/// the vector-adjoint equivalence contract at verification time.  On
/// SIMD builds the same lanes are also replayed with the forced scalar
/// backend (SweepBackend::Scalar) and compared bit-for-bit, extending
/// the contract to the vectorized kernels themselves.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_VERIFY_TAPEVERIFIER_H
#define SCORPIO_VERIFY_TAPEVERIFIER_H

#include "verify/Verify.h"

#include <span>

namespace scorpio {
namespace verify {

/// Plain-data mirror of one tape node (value, op, edges).  Fields are
/// raw doubles, not Interval, so tests can forge invariant-violating
/// bit patterns (NaN bounds, inverted bounds) that the Interval
/// constructor rejects.
struct RawNode {
  OpKind Kind = OpKind::Input;
  int32_t AuxInt = 0;
  double ValueLo = 0.0, ValueHi = 0.0;
  NodeId Args[2] = {InvalidNodeId, InvalidNodeId};
  double PartialLo[2] = {0.0, 0.0};
  double PartialHi[2] = {0.0, 0.0};
  uint8_t NumArgs = 0;
};

/// Plain-data mirror of a whole tape plus its registration context.
struct RawTape {
  std::vector<RawNode> Nodes;
  /// The tape's own input list (Tape::inputs()).
  std::vector<NodeId> Inputs;
  /// Registered output nodes (Analysis::outputNodes() or equivalent).
  std::vector<NodeId> Outputs;
};

/// Extracts the raw view of \p T; \p Outputs is the registered output
/// list (may be empty when unknown — the InvalidOutput rule then has
/// nothing to check).
RawTape extractRaw(const Tape &T, std::span<const NodeId> Outputs = {});

/// Options controlling verification.
struct VerifierOptions {
  /// Run the SCORPIO-E008 batch-vs-dedicated sweep replay (only
  /// meaningful for verifyTape; the raw check set cannot sweep).
  bool CheckBatchSweep = true;
  /// Lane count per replayed batch pass (mirrors
  /// AnalysisOptions::BatchWidth).
  unsigned BatchWidth = 8;
  /// Per-rule cap on stored findings (exact counts are always kept).
  size_t MaxFindingsPerRule = 32;
  /// Testing seam: XOR this mask into the low bits of every batch-lane
  /// adjoint lower bound before the E008 comparison.  A correct batch
  /// kernel never diverges from the dedicated sweep on its own (both
  /// replay the same deterministic tape), so mutation tests use this to
  /// prove the mismatch-detection path actually fires.  Must be 0 in
  /// production use.
  uint64_t TestLaneAdjointBitFlip = 0;
};

/// Verifies the structural rules (E001-E007) on a raw tape view.
VerifyReport verifyStructure(const RawTape &Raw,
                             const VerifierOptions &Options = {});

/// Verifies a recorded tape: the structural rules, with exactly the
/// findings verifyStructure(extractRaw(T, Outputs)) reports but read
/// straight from the tape's arrays (no mirror is built), plus the
/// batch-sweep cross-check (E008) on the tape itself when
/// Options.CheckBatchSweep is set.  \p Outputs is
/// the registered output list; the cross-check seeds each output with
/// [1, 1], exactly as PerOutput analysis does.  Does not modify the
/// tape's own adjoints.
VerifyReport verifyTape(const Tape &T, std::span<const NodeId> Outputs,
                        const VerifierOptions &Options = {});

} // namespace verify
} // namespace scorpio

#endif // SCORPIO_VERIFY_TAPEVERIFIER_H
