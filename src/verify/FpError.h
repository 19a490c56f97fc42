//===- verify/FpError.h - Rounding-error audit and mixed-precision lints --===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static side of the CHEF-FP-style FP-error backend
/// (core/SweepBackends.h): a re-derivation of per-node rounding-error
/// bounds from the tape IR alone, the cross-checks that hold the
/// dynamic backend to them, and the mixed-precision lints built on top.
///
/// The error model, shared verbatim with the dynamic backend so the two
/// sides cannot drift apart:
///
///   eps_i = fpLocalError(K_i, m_i)
///         = fpOpErrorScale(K_i) * (ulp(m_i) / 2)
///
/// where m_i is a magnitude of node i's enclosure.  The *dynamic*
/// backend evaluates the model at |mid| of the recorded enclosure (the
/// representative point CHEF-FP would differentiate at); the *static*
/// bound here evaluates it at mag() of the abstract enclosure from
/// verify/AbsInt.h.  Containment follows from two monotonicities:
/// |mid| <= mag of the same interval, the recorded enclosure is
/// contained in the abstract one so its mag is no larger, and the
/// step-based ulp is non-decreasing in magnitude.  Multiplying by the
/// abstract adjoint magnitude bound (which dominates every seeding
/// scheme's summed adjoint magnitudes, see AbsInt.cpp) with one-ulp
/// upward rounding then dominates every honest dynamic contribution —
/// the same trust model as the SCORPIO-A family, applied to rounding
/// error.
///
/// Rules emitted here:
///
///   SCORPIO-F001..F004 (errors): dynamic / stored FP-error numbers
///   that the static bounds prove were not computed from this tape,
///   including the cross-validation against interval significance
///   (F003: a node statically dead for significance must have exactly
///   zero error contribution).
///
///   SCORPIO-F005..F008 (warnings): mixed-precision lints over the
///   DynDFG task levels — float-demotable levels (with SARIF fix-its),
///   error-dominating nodes, out-of-tolerance totals, and levels one
///   dominator short of demotion.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_VERIFY_FPERROR_H
#define SCORPIO_VERIFY_FPERROR_H

#include "interval/Interval.h"
#include "tape/Tape.h"
#include "verify/Verify.h"

#include <span>
#include <string>
#include <vector>

namespace scorpio::verify {

/// Per-OpKind scale on the half-ulp local rounding error:
///   0 — exact in IEEE-754 binary arithmetic (Input just stores,
///       Neg/Fabs flip the sign bit, Min/Max select, Round is exact by
///       definition of the result);
///   1 — correctly rounded primitives (+, -, *, /, sqrt and the x*x
///       square), at most half an ulp of error each;
///   2 — libm transcendentals, conservatively allowed a full ulp.
double fpOpErrorScale(OpKind K);

/// Half an ulp at magnitude \p X (X >= 0): (stepUp(X) - X) / 2.
/// Infinite or NaN magnitudes yield +inf — an unbounded enclosure
/// cannot certify any rounding error.
double fpHalfUlp(double X);

/// The shared local-error model: eps = scale(K) * halfUlp(Magnitude).
/// Exact kinds return exactly 0.0 for every magnitude (including inf).
double fpLocalError(OpKind K, double Magnitude);

/// Ratio of binary32 to binary64 ulp at equal magnitude (2^29): scaling
/// a double-precision error contribution by this projects the same
/// dataflow evaluated in float, the basis of the F005/F008 demotion
/// lints.
inline constexpr double FloatDemotionScale = 536870912.0;

/// Knobs for the FP-error audit.  Mirrors AbsIntOptions deliberately:
/// the pass is the A-family trust model instantiated for rounding
/// error.
struct FpErrorOptions {
  /// Mirror of AnalysisOptions::SignificanceCap — contributions and
  /// bounds saturate here so downstream statistics stay finite.
  double ErrorCap = 1e300;
  /// Relative headroom for the F001/F002/F004 comparisons: a dynamic
  /// or stored value D only fires against bound B when
  /// D > B * (1 + ErrorSlack), absorbing the round-to-nearest
  /// accumulation the upward-rounded static recursion does not model.
  double ErrorSlack = 0.5;
  /// F005/F008: a task level whose projected *float* error
  /// contribution is at most this is safe to demote to float.
  double DemotionTolerance = 1e-6;
  /// F006: a node contributing more than this fraction of the total
  /// error bound dominates the budget.
  double DominanceFraction = 0.5;
  /// F007: total FP error bound above this cannot be certified.
  double OutputErrorTolerance = 1e-3;
  /// Storage cap per rule, as in AbsIntOptions.
  unsigned MaxFindingsPerRule = 32;
};

/// The static FP-error interpretation of one tape.
struct FpErrorResult {
  /// Static local rounding-error bound per node: the shared model
  /// evaluated at the abstract enclosure magnitude.
  std::vector<double> LocalErrorBound;
  /// Per-node upper bound on the summed adjoint magnitudes over every
  /// output seed (adopted from verify/AbsInt.h; zero means the node is
  /// statically dead for significance *and* for rounding error).
  std::vector<double> AdjointMagBound;
  /// Per-node static error-contribution bound:
  /// up(LocalErrorBound * AdjointMagBound), capped at ErrorCap.  Every
  /// honest dynamic contribution is at most this value.
  std::vector<double> ContributionBound;
  /// Upward-rounded sum of the contribution bounds, capped: dominates
  /// every honest total FP error at the outputs.
  double TotalErrorBound = 0.0;
  /// F001/F003 findings (appended by checkDynamicFpError).
  VerifyReport Report;

  bool hasErrors() const { return Report.hasErrors(); }
};

/// Re-derives the static FP-error bounds of \p T from the recorded
/// input enclosures alone, reusing the abstract interpreter of
/// verify/AbsInt.h for enclosures and adjoint magnitude bounds (which
/// is what makes the containment argument against AbsInt a theorem
/// rather than a convention — both families bound the same adjoint
/// recursion).  \p T must already have passed verifyStructure.
FpErrorResult fpErrorInterpret(const Tape &T, std::span<const NodeId> Outputs,
                               const FpErrorOptions &Options = {});

/// SCORPIO-F001/F003: checks freshly computed dynamic per-node FP-error
/// contributions (the FpError backend's nodeSignificances()) against
/// \p R's static bounds and appends findings to \p R.Report.  A node
/// with AdjointMagBound == 0 must contribute exactly zero (F003, the
/// cross-validation against interval significance and AbsInt); live
/// nodes fire F001 above bound * (1 + ErrorSlack).
void checkDynamicFpError(FpErrorResult &R,
                         std::span<const double> Contributions,
                         const FpErrorOptions &Options);

/// SCORPIO-F002/F004: semantic audit of a *persisted* FP-error report
/// (a result-cache entry analysed under the FpError backend) against
/// the static bounds derived from the tape it shipped with — the A004
/// trust model for the F family.  \p StoredTotal is the report's total
/// FP error (its outputSignificance()).  Returns only the audit
/// findings; \p R is the output of fpErrorInterpret over that tape.
VerifyReport auditStoredFpError(const FpErrorResult &R,
                                std::span<const double> Stored,
                                double StoredTotal,
                                const FpErrorOptions &Options);

/// SCORPIO-F005..F008: the mixed-precision lints over \p R's static
/// contribution bounds.  Task groups are the raw DynDFG levels
/// (graph/TapeLevels.h; the paper's level-based task extraction): per level the contribution
/// bounds are summed, projected to float via FloatDemotionScale, and
/// compared against DemotionTolerance — demotable levels get a SARIF
/// fix-it naming the task group (F005), levels blocked by exactly
/// their largest contributor fire F008.  F006 flags nodes dominating
/// the total bound and F007 totals above OutputErrorTolerance.
VerifyReport lintFpError(const Tape &T, const FpErrorResult &R,
                         const std::vector<NodeId> &Outputs,
                         const FpErrorOptions &Options);

} // namespace scorpio::verify

#endif // SCORPIO_VERIFY_FPERROR_H
