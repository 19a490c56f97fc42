//===- tests/fperror_test.cpp - FP-error backend and F-rule tests ---------===//
//
// The PR-9 contract: the CHEF-FP-style FpError backend's dynamic
// rounding-error contributions are contained in the static bounds
// verify/FpError re-derives from the tape IR, and the SCORPIO-F rule
// family holds persisted reports and the mixed-precision lints to them.
// Covered here:
//
//  - the shared ulp-error model's fixed points (exact ops, correctly
//    rounded primitives, transcendentals, unbounded magnitudes);
//  - containment on every registry kernel under both output modes
//    (the honest-tape case: zero F-errors);
//  - the result JSON names the backend iff it is not the default one;
//  - one mutation test per SCORPIO-F rule, forging exactly the defect
//    the rule exists to catch;
//  - a byte-exact golden SARIF export of an F005 demotion fix-it.
//
// Regenerate goldens with SCORPIO_UPDATE_GOLDENS=1 in the environment.
//
//===----------------------------------------------------------------------===//

#include "verify/FpError.h"

#include "core/Analysis.h"
#include "kernels/KernelRegistry.h"
#include "verify/Sarif.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

using namespace scorpio;
using namespace scorpio::verify;

namespace {

std::string goldenPath(const std::string &Name) {
  return std::string(SCORPIO_GOLDEN_DIR) + "/" + Name;
}

std::string readFile(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  EXPECT_TRUE(IS.good()) << "cannot open " << Path;
  std::ostringstream OS;
  OS << IS.rdbuf();
  return OS.str();
}

void expectGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = goldenPath(Name);
  if (std::getenv("SCORPIO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream OS(Path, std::ios::binary);
    ASSERT_TRUE(OS.good()) << "cannot write " << Path;
    OS << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  EXPECT_EQ(Actual, readFile(Path)) << "golden mismatch for " << Name
                                    << " (set SCORPIO_UPDATE_GOLDENS=1 to "
                                       "regenerate)";
}

/// First stored finding of rule \p K (nullptr when none).
const Finding *firstOf(const VerifyReport &R, RuleKind K) {
  for (const Finding &F : R.findings())
    if (F.Kind == K)
      return &F;
  return nullptr;
}

/// The x^2 running tape: one input on [1, 2], one squaring, one output.
/// Small enough that every bound is hand-checkable, arithmetic enough
/// that the contribution and the task-level lints all have a subject.
void recordSquare(Analysis &A) {
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Y = X * X;
  A.registerOutput(Y, "y");
}

//===----------------------------------------------------------------------===//
// The shared ulp-error model
//===----------------------------------------------------------------------===//

TEST(FpErrorModel, OpScalesMatchTheIeeeContract) {
  // Exact in binary floating point: sign-bit flips, selections, stores.
  for (const OpKind K : {OpKind::Input, OpKind::Neg, OpKind::Fabs,
                         OpKind::Min, OpKind::Max, OpKind::Round})
    EXPECT_EQ(fpOpErrorScale(K), 0.0) << opKindName(K);
  // Correctly rounded primitives: half an ulp each.
  for (const OpKind K : {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div,
                         OpKind::Sqrt, OpKind::Sqr})
    EXPECT_EQ(fpOpErrorScale(K), 1.0) << opKindName(K);
  // libm transcendentals: conservatively a full ulp.
  for (const OpKind K : {OpKind::Sin, OpKind::Exp, OpKind::Log, OpKind::Pow,
                         OpKind::TanOverX})
    EXPECT_EQ(fpOpErrorScale(K), 2.0) << opKindName(K);
}

TEST(FpErrorModel, HalfUlpAndLocalErrorFixedPoints) {
  // At 1.0 the step to the next double is the machine epsilon, so half
  // an ulp is exactly 2^-53.
  EXPECT_EQ(fpHalfUlp(1.0), std::ldexp(1.0, -53));
  EXPECT_EQ(fpHalfUlp(0.0), 0.5 * std::numeric_limits<double>::denorm_min());
  // Unbounded magnitudes certify nothing...
  const double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(fpHalfUlp(Inf), Inf);
  EXPECT_EQ(fpLocalError(OpKind::Add, Inf), Inf);
  EXPECT_TRUE(std::isinf(
      fpLocalError(OpKind::Sin, std::numeric_limits<double>::quiet_NaN())));
  // ...except for exact operations, which are error-free at any value.
  EXPECT_EQ(fpLocalError(OpKind::Neg, Inf), 0.0);
  // The transcendental scale doubles the primitive error.
  EXPECT_EQ(fpLocalError(OpKind::Exp, 1.0),
            2.0 * fpLocalError(OpKind::Mul, 1.0));
}

//===----------------------------------------------------------------------===//
// Honest tapes: containment on every registry kernel
//===----------------------------------------------------------------------===//

// The dynamic backend evaluates the model at |mid| of the recorded
// enclosure, the static bound at mag() of the abstract one; both feed
// the same adjoint recursion, so on a tape recorded by this build every
// dynamic contribution must respect the static bound and no F-error
// can fire — under either seeding scheme (PerOutput covers the batched
// SIMD sweep path).
TEST(FpErrorRegistry, ContainmentHoldsOnEveryKernel) {
  KernelRegistry &Registry = KernelRegistry::global();
  using Mode = AnalysisOptions::OutputMode;
  for (const std::string &Name : Registry.names()) {
    const KernelDescriptor *K = Registry.find(Name);
    ASSERT_NE(K, nullptr) << Name;
    for (const Mode M : {Mode::CombinedSeed, Mode::PerOutput}) {
      Analysis A;
      K->Analyse(A, K->DefaultRanges);
      AnalysisOptions Options;
      Options.Mode = M;
      Options.Backend = AnalysisBackend::FpError;
      const AnalysisResult R = A.analyse(Options);
      if (!R.isValid())
        continue; // diverged results carry no meaningful contributions
      EXPECT_EQ(R.backend(), AnalysisBackend::FpError) << Name;
      const FpErrorOptions FpOpts;
      FpErrorResult Fp =
          fpErrorInterpret(A.tape(), A.outputNodes(), FpOpts);
      for (NodeId Id = 0; Id != static_cast<NodeId>(A.tape().size()); ++Id)
        EXPECT_LE(R.significanceOf(Id),
                  Fp.ContributionBound[static_cast<size_t>(Id)] *
                      (1.0 + FpOpts.ErrorSlack))
            << Name << " u" << Id;
      checkDynamicFpError(Fp, R.nodeSignificances(), FpOpts);
      EXPECT_FALSE(Fp.hasErrors()) << Name;
      EXPECT_EQ(Fp.Report.countOf(RuleKind::FpContributionAboveBound), 0u)
          << Name;
      EXPECT_EQ(Fp.Report.countOf(RuleKind::DeadNodeNonzeroError), 0u)
          << Name;
    }
  }
}

// The report JSON stays byte-compatible for the default backend (no new
// key) and names the FP-error backend when it produced the numbers.
TEST(FpErrorRegistry, ReportJsonNamesTheBackendIffNotDefault) {
  Analysis A;
  recordSquare(A);
  std::ostringstream Default, Fperr;
  A.analyse().writeJson(Default);
  AnalysisOptions Options;
  Options.Backend = AnalysisBackend::FpError;
  A.analyse(Options).writeJson(Fperr);
  EXPECT_EQ(Default.str().find("\"backend\""), std::string::npos);
  EXPECT_NE(Fperr.str().find("\"backend\":\"fperr\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Mutation tests: one forged defect per rule
//===----------------------------------------------------------------------===//

// SCORPIO-F001: a live node reporting a dynamic FP-error contribution
// the static bound rules out.  Every node of x^2 is live, so a report
// of 1e305 everywhere is pure F001 — no F003 can fire.
TEST(FpErrorMutation, F001FiresOnInflatedDynamicContribution) {
  Analysis A;
  recordSquare(A);
  const FpErrorOptions Opts;
  FpErrorResult R = fpErrorInterpret(A.tape(), A.outputNodes(), Opts);
  ASSERT_FALSE(R.hasErrors());
  const std::vector<double> Forged(A.tape().size(), 1e305);
  checkDynamicFpError(R, Forged, Opts);
  EXPECT_TRUE(R.hasErrors());
  EXPECT_GT(R.Report.countOf(RuleKind::FpContributionAboveBound), 0u);
  EXPECT_EQ(R.Report.countOf(RuleKind::DeadNodeNonzeroError), 0u);
  const Finding *F = firstOf(R.Report, RuleKind::FpContributionAboveBound);
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("exceeds the static bound"), std::string::npos)
      << F->Message;
}

// SCORPIO-F002: the semantic audit of persisted FP-error reports,
// mirroring the A004 battery: honest, size-mismatched, NaN, negative
// and inflated stored streams.
TEST(FpErrorMutation, F002AuditsStoredPerNodeContributions) {
  Analysis A;
  recordSquare(A);
  const FpErrorOptions Opts;
  const FpErrorResult R = fpErrorInterpret(A.tape(), A.outputNodes(), Opts);
  ASSERT_FALSE(R.hasErrors());
  AnalysisOptions AOpts;
  AOpts.Backend = AnalysisBackend::FpError;
  const AnalysisResult Dyn = A.analyse(AOpts);
  ASSERT_TRUE(Dyn.isValid());

  // Honest stored report: clean.
  EXPECT_FALSE(auditStoredFpError(R, Dyn.nodeSignificances(),
                                  Dyn.outputSignificance(), Opts)
                   .hasErrors());

  // Size mismatch: one tape-global finding.
  const std::vector<double> Short(A.tape().size() - 1, 0.0);
  const VerifyReport Sized =
      auditStoredFpError(R, Short, Dyn.outputSignificance(), Opts);
  EXPECT_EQ(Sized.countOf(RuleKind::StoredFpErrorAboveBound), 1u);
  const Finding *F = firstOf(Sized, RuleKind::StoredFpErrorAboveBound);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Node, InvalidNodeId);
  EXPECT_NE(F->Message.find("per-node FP-error contributions"),
            std::string::npos)
      << F->Message;

  // NaN, negative and inflated entries all violate the bound.
  for (const double Bad :
       {std::numeric_limits<double>::quiet_NaN(), -1.0, 1e305}) {
    std::vector<double> Stored(Dyn.nodeSignificances().begin(),
                               Dyn.nodeSignificances().end());
    Stored.back() = Bad;
    EXPECT_EQ(auditStoredFpError(R, Stored, Dyn.outputSignificance(), Opts)
                  .countOf(RuleKind::StoredFpErrorAboveBound),
              1u)
        << "stored value " << Bad << " must be rejected";
  }
}

// SCORPIO-F003: the cross-validation against interval significance and
// AbsInt — a node with no adjoint path to any output (statically dead
// for significance) must carry exactly zero rounding-error
// contribution; even 1e-10 proves the sweeps diverged.
TEST(FpErrorMutation, F003FiresOnDeadNodeWithNonzeroError) {
  Tape T;
  const NodeId X = T.recordInput(Interval(1.0, 2.0));
  const NodeId U = T.recordUnary(OpKind::Sqr, sqr(Interval(1.0, 2.0)), X,
                                 Interval(2.0) * Interval(1.0, 2.0));
  const NodeId Y = T.recordUnary(OpKind::Sqr, sqr(Interval(1.0, 2.0)), X,
                                 Interval(2.0) * Interval(1.0, 2.0));
  const std::vector<NodeId> Outputs{Y};
  const FpErrorOptions Opts;
  FpErrorResult R = fpErrorInterpret(T, Outputs, Opts);
  ASSERT_FALSE(R.hasErrors());
  ASSERT_EQ(R.AdjointMagBound[static_cast<size_t>(U)], 0.0);

  std::vector<double> Contributions(R.ContributionBound.begin(),
                                    R.ContributionBound.end());
  Contributions[static_cast<size_t>(U)] = 1e-10;
  checkDynamicFpError(R, Contributions, Opts);
  EXPECT_TRUE(R.hasErrors());
  EXPECT_EQ(R.Report.countOf(RuleKind::DeadNodeNonzeroError), 1u);
  EXPECT_EQ(R.Report.countOf(RuleKind::FpContributionAboveBound), 0u);
  const Finding *F = firstOf(R.Report, RuleKind::DeadNodeNonzeroError);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Node, U);
  EXPECT_NE(F->Message.find("statically dead"), std::string::npos)
      << F->Message;
}

// SCORPIO-F004: every per-node entry honest but the stored total lies —
// the total is audited against the summed bound independently.
TEST(FpErrorMutation, F004FiresOnForgedStoredTotal) {
  Analysis A;
  recordSquare(A);
  const FpErrorOptions Opts;
  const FpErrorResult R = fpErrorInterpret(A.tape(), A.outputNodes(), Opts);
  ASSERT_FALSE(R.hasErrors());
  const std::vector<double> Stored(R.ContributionBound.begin(),
                                   R.ContributionBound.end());
  for (const double BadTotal :
       {1e305, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    const VerifyReport Audit = auditStoredFpError(R, Stored, BadTotal, Opts);
    EXPECT_EQ(Audit.countOf(RuleKind::StoredTotalAboveBound), 1u)
        << "stored total " << BadTotal << " must be rejected";
    EXPECT_EQ(Audit.countOf(RuleKind::StoredFpErrorAboveBound), 0u);
  }
  EXPECT_FALSE(
      auditStoredFpError(R, Stored, R.TotalErrorBound, Opts).hasErrors());
}

// SCORPIO-F005: x^2 on [1, 2] costs half an ulp at magnitude 4 — even
// projected to float (x 2^29) that is ~2.4e-7, inside the default 1e-6
// demotion tolerance, so its task level is demotable with a fix-it.
TEST(FpErrorMutation, F005FiresWithDemotionFixIt) {
  Analysis A;
  recordSquare(A);
  const FpErrorOptions Opts;
  const FpErrorResult R = fpErrorInterpret(A.tape(), A.outputNodes(), Opts);
  const VerifyReport Lint =
      lintFpError(A.tape(), R, A.outputNodes(), Opts);
  EXPECT_EQ(Lint.countOf(RuleKind::FloatDemotableTask), 1u);
  const Finding *F = firstOf(Lint, RuleKind::FloatDemotableTask);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Node, A.outputNodes().front());
  EXPECT_NE(F->Message.find("demotion tolerance"), std::string::npos)
      << F->Message;
  EXPECT_NE(F->FixIt.find("demote the 1 nodes of task level"),
            std::string::npos)
      << F->FixIt;
}

// SCORPIO-F006: with the demotion lints silenced (a negative tolerance
// satisfies neither branch), the single arithmetic node of x^2 holds
// 100% > 50% of the error budget and is flagged as dominating.
TEST(FpErrorMutation, F006FiresOnErrorDominatingNode) {
  Analysis A;
  recordSquare(A);
  FpErrorOptions Opts;
  Opts.DemotionTolerance = -1.0;
  const FpErrorResult R = fpErrorInterpret(A.tape(), A.outputNodes(), Opts);
  const VerifyReport Lint =
      lintFpError(A.tape(), R, A.outputNodes(), Opts);
  EXPECT_EQ(Lint.countOf(RuleKind::ErrorDominatingNode), 1u);
  EXPECT_EQ(Lint.countOf(RuleKind::FloatDemotableTask), 0u);
  EXPECT_EQ(Lint.countOf(RuleKind::DemotionBlockedByDominator), 0u);
  const Finding *F = firstOf(Lint, RuleKind::ErrorDominatingNode);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Node, A.outputNodes().front());
  EXPECT_NE(F->Message.find("of the budget"), std::string::npos)
      << F->Message;
}

// SCORPIO-F007: a zero output tolerance turns any nonzero total error
// bound into an uncertifiable report.
TEST(FpErrorMutation, F007FiresOnTotalAboveTolerance) {
  Analysis A;
  recordSquare(A);
  FpErrorOptions Opts;
  Opts.OutputErrorTolerance = 0.0;
  const FpErrorResult R = fpErrorInterpret(A.tape(), A.outputNodes(), Opts);
  ASSERT_GT(R.TotalErrorBound, 0.0);
  const VerifyReport Lint =
      lintFpError(A.tape(), R, A.outputNodes(), Opts);
  EXPECT_EQ(Lint.countOf(RuleKind::TotalErrorAboveTolerance), 1u);
  const Finding *F = firstOf(Lint, RuleKind::TotalErrorAboveTolerance);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Node, InvalidNodeId);
  EXPECT_NE(F->Message.find("exceeds the output error tolerance"),
            std::string::npos)
      << F->Message;
}

// SCORPIO-F008: a two-node task level (x^2 and e^x) where the
// transcendental dominates; with the tolerance set to exactly the
// remainder, the level misses demotion only because of exp and the
// fix-it says to keep that one node in double.
TEST(FpErrorMutation, F008FiresOnDemotionBlockedByDominator) {
  Analysis A;
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Y1 = X * X;
  IAValue Y2 = exp(X);
  A.registerOutput(Y1 + Y2, "z");
  const NodeId SqrNode = Y1.node(), ExpNode = Y2.node();

  FpErrorOptions Opts;
  const FpErrorResult R = fpErrorInterpret(A.tape(), A.outputNodes(), Opts);
  const double SqrB = R.ContributionBound[static_cast<size_t>(SqrNode)];
  const double ExpB = R.ContributionBound[static_cast<size_t>(ExpNode)];
  ASSERT_GT(ExpB, SqrB); // the full-ulp transcendental dominates
  // Exactly the level's error minus its dominator: demotion fails by
  // precisely one node.
  Opts.DemotionTolerance = SqrB * FloatDemotionScale;
  const VerifyReport Lint =
      lintFpError(A.tape(), R, A.outputNodes(), Opts);
  EXPECT_GT(Lint.countOf(RuleKind::DemotionBlockedByDominator), 0u);
  // The lone Add of the output level also fires F008 (a one-node level
  // blocked by its only member); the finding under test is the one
  // naming the transcendental dominator of the two-node level.
  const Finding *F = nullptr;
  for (const Finding &Candidate : Lint.findings())
    if (Candidate.Kind == RuleKind::DemotionBlockedByDominator &&
        Candidate.Node == ExpNode)
      F = &Candidate;
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("misses float demotion only because"),
            std::string::npos)
      << F->Message;
  std::ostringstream Keep;
  Keep << "keep u" << ExpNode << " in double";
  EXPECT_NE(F->FixIt.find(Keep.str()), std::string::npos) << F->FixIt;
}

//===----------------------------------------------------------------------===//
// SARIF export for the F family
//===----------------------------------------------------------------------===//

TEST(FpErrorExport, DemotionFixItSarifMatchesGolden) {
  // The x^2 lint is fully deterministic: one demotable level (F005 with
  // its fix-it) and one dominating node (F006).  Its SARIF export pins
  // the F-family rule metadata and the "fixes" emission byte-for-byte.
  Analysis A;
  recordSquare(A);
  const FpErrorOptions Opts;
  const FpErrorResult R = fpErrorInterpret(A.tape(), A.outputNodes(), Opts);
  const VerifyReport Lint =
      lintFpError(A.tape(), R, A.outputNodes(), Opts);
  ASSERT_GT(Lint.countOf(RuleKind::FloatDemotableTask), 0u);
  std::ostringstream OS;
  writeSarif(OS, "fperr-demotion", Lint);
  expectGolden("fperr_demotion_fixit.sarif", OS.str());
}

} // namespace
