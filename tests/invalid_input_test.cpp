//===- tests/invalid_input_test.cpp - Release-mode invalid-input suite ----===//
//
// Every documented failure path of the user-facing API surface —
// interval, tape, analysis, runtime, quality — must produce a structured
// DiagRecord and a deterministic, documented recovery value instead of
// silently continuing.  This suite runs identically in Debug and Release
// (NDEBUG) builds: none of these paths is guarded by `assert` any more.
// The DiagTestHook fault-injection tests at the bottom drive the same
// paths on *valid* inputs, proving the checks are live code, not
// compiled-out conditions.
//
//===----------------------------------------------------------------------===//

#include "apps/sobel/Sobel.h"
#include "core/Analysis.h"
#include "core/MonteCarlo.h"
#include "core/RangeSweep.h"
#include "core/SplitAnalysis.h"
#include "core/TaskSuggestion.h"
#include "graph/DynDFG.h"
#include "interval/Interval.h"
#include "kernels/KernelRegistry.h"
#include "quality/Image.h"
#include "quality/Metrics.h"
#include "runtime/RatioController.h"
#include "runtime/TaskRuntime.h"
#include "service/ResultCache.h"
#include "support/Diag.h"
#include "tape/Tape.h"
#include "tape/TapeIO.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <sys/stat.h>

using namespace scorpio;
using namespace scorpio::diag;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();
constexpr double QNaN = std::numeric_limits<double>::quiet_NaN();

class InvalidInputTest : public ::testing::Test {
protected:
  void SetUp() override {
    DiagSink::global().clear();
    DiagTestHook::disarm();
    setCheckPolicy(CheckPolicy::ReturnStatus);
  }
  void TearDown() override {
    DiagTestHook::disarm();
    DiagSink::global().clear();
  }
};

//===----------------------------------------------------------------------===//
// Interval layer
//===----------------------------------------------------------------------===//

TEST_F(InvalidInputTest, CenteredNegativeRadiusRecoversToEntire) {
  const Interval I = Interval::centered(1.0, -0.5);
  EXPECT_EQ(I, Interval::entire());
  ASSERT_EQ(DiagSink::global().count(), 1u);
  const DiagRecord R = DiagSink::global().last();
  EXPECT_EQ(R.Code, ErrC::DomainError);
  EXPECT_NE(R.Message.find("negative radius"), std::string::npos);
}

TEST_F(InvalidInputTest, CenteredNaNRecoversToEntire) {
  EXPECT_EQ(Interval::centered(QNaN, 1.0), Interval::entire());
  EXPECT_EQ(Interval::centered(0.0, QNaN), Interval::entire());
  EXPECT_EQ(DiagSink::global().countOf(ErrC::DomainError), 2u);
}

TEST_F(InvalidInputTest, CenteredZeroRadiusIsValid) {
  // A zero radius is a legal point enclosure (widened outward 1 ulp as
  // always); it must NOT produce a diagnostic.
  const Interval I = Interval::centered(2.0, 0.0);
  EXPECT_TRUE(I.contains(2.0));
  EXPECT_EQ(DiagSink::global().count(), 0u);
}

TEST_F(InvalidInputTest, DisjointIntersectRecoversWithGapHull) {
  // Pre-PR Release builds returned the *inverted* interval [2, 1] here.
  const Interval I = intersect(Interval(0.0, 1.0), Interval(2.0, 3.0));
  EXPECT_LE(I.lower(), I.upper()) << "recovery must be a valid interval";
  EXPECT_EQ(I, Interval(1.0, 2.0)); // gap hull between the operands
  ASSERT_EQ(DiagSink::global().count(), 1u);
  EXPECT_EQ(DiagSink::global().last().Code, ErrC::DomainError);
}

TEST_F(InvalidInputTest, TanOverXNonPositivePhiRecoversToEntire) {
  EXPECT_EQ(tanOverX(Interval(0.0, 1.0), -0.5), Interval::entire());
  EXPECT_EQ(DiagSink::global().countOf(ErrC::DomainError), 1u);
}

//===----------------------------------------------------------------------===//
// Tape layer
//===----------------------------------------------------------------------===//

TEST_F(InvalidInputTest, TapeAccessorsRejectBadNodeIds) {
  Tape T;
  const NodeId In = T.recordInput(Interval(1.0, 2.0));
  ASSERT_EQ(In, 0);

  EXPECT_EQ(T.value(-1), Interval(0.0, 0.0));
  EXPECT_EQ(T.value(99), Interval(0.0, 0.0));
  EXPECT_EQ(T.adjoint(42), Interval(0.0, 0.0));
  EXPECT_EQ(T.kind(7), OpKind::Input);
  EXPECT_EQ(T.numArgs(7), 0u);
  EXPECT_EQ(T.arg(0, 5), InvalidNodeId); // valid node, bad arg index
  EXPECT_EQ(T.partial(0, 5), Interval(0.0, 0.0));
  EXPECT_EQ(DiagSink::global().countOf(ErrC::OutOfRange), 7u);
}

TEST_F(InvalidInputTest, TapeSeedAdjointOutOfRangeIsNoOp) {
  Tape T;
  T.recordInput(Interval(1.0, 2.0));
  T.seedAdjoint(17, Interval(1.0));
  T.reverseSweep();
  EXPECT_EQ(T.adjoint(0), Interval(0.0, 0.0));
  EXPECT_EQ(DiagSink::global().countOf(ErrC::OutOfRange), 1u);
}

TEST_F(InvalidInputTest, TapeRecordUnaryForwardReferenceDemotesEdge) {
  Tape T;
  T.recordInput(Interval(1.0, 2.0));
  // Argument id 5 does not exist yet: the node is still recorded, as a
  // leaf, and the invalid edge is dropped with a diagnostic.
  const NodeId Id = T.recordUnary(OpKind::Sin, Interval(-1.0, 1.0), 5,
                                  Interval(0.0, 1.0));
  EXPECT_EQ(T.numArgs(Id), 0u);
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);
}

TEST_F(InvalidInputTest, TapeRecordUnaryNegativeIdDemotesEdge) {
  Tape T;
  T.recordInput(Interval(1.0, 2.0));
  // A negative id other than InvalidNodeId is as invalid as a forward
  // one: passes over the raw edge arrays index by argument id.
  const NodeId Id = T.recordUnary(OpKind::Sin, Interval(-1.0, 1.0), -5,
                                  Interval(0.0, 1.0));
  EXPECT_EQ(T.numArgs(Id), 0u);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);
}

TEST_F(InvalidInputTest, TapeRecordBinaryValidatesArguments) {
  Tape T;
  const NodeId A = T.recordInput(Interval(1.0, 2.0));
  // One good argument, one out-of-range: the bad one is demoted.
  const NodeId Id = T.recordBinary(OpKind::Add, Interval(0.0, 4.0), A,
                                   Interval(1.0), 66, Interval(1.0));
  EXPECT_EQ(T.numArgs(Id), 1u);
  EXPECT_EQ(T.arg(Id, 0), A);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);

  DiagSink::global().clear();
  // Both passive: flagged (callers should record a constant instead).
  const NodeId Leaf = T.recordBinary(OpKind::Mul, Interval(6.0),
                                     InvalidNodeId, Interval(0.0),
                                     InvalidNodeId, Interval(0.0));
  EXPECT_EQ(T.numArgs(Leaf), 0u);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);
}

TEST_F(InvalidInputTest, TapeBatchSweepSkipsBadSeeds) {
  Tape T;
  const NodeId In = T.recordInput(Interval(1.0, 2.0));
  const NodeId Out =
      T.recordUnary(OpKind::Neg, -Interval(1.0, 2.0), In, Interval(-1.0));

  BatchAdjoints Batch;
  const std::vector<std::pair<NodeId, Interval>> Seeds = {
      {Out, Interval(1.0)}, {123, Interval(1.0)}};
  T.reverseSweepBatch(std::span<const std::pair<NodeId, Interval>>(Seeds),
                      Batch);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::OutOfRange), 1u);

  // Lane 0 swept normally (bit-identical to a dedicated scalar sweep);
  // lane 1 (bad seed) stayed all-zero.
  T.clearAdjoints();
  T.seedAdjoint(Out, Interval(1.0));
  T.reverseSweep();
  EXPECT_EQ(Batch.at(In, 0), T.adjoint(In));
  EXPECT_NE(Batch.at(In, 0), Interval(0.0, 0.0));
  EXPECT_EQ(Batch.at(In, 1), Interval(0.0, 0.0));
}

TEST_F(InvalidInputTest, DynDfgFromTapeRejectsIdsOutsideTheTape) {
  Tape T;
  const NodeId In = T.recordInput(Interval(1.0, 2.0));
  const NodeId Out =
      T.recordUnary(OpKind::Neg, -Interval(1.0, 2.0), In, Interval(-1.0));
  const std::vector<double> Sig = {1.0, 1.0};

  // A label or an output naming a node past either end of the tape is
  // diagnosed and yields an empty graph instead of a write out of
  // bounds.
  const std::map<NodeId, std::string> BadLabel = {{In, "x"}, {7, "ghost"}};
  EXPECT_EQ(DynDFG::fromTape(T, Sig, BadLabel, {Out}).size(), 0u);
  EXPECT_EQ(DynDFG::fromTape(T, Sig, {{-1, "neg"}}, {Out}).size(), 0u);
  EXPECT_EQ(DynDFG::fromTape(T, Sig, {}, {Out, 2}).size(), 0u);
  EXPECT_EQ(DynDFG::fromTape(T, Sig, {}, {InvalidNodeId}).size(), 0u);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::OutOfRange), 4u);

  // In-range ids still build the whole graph.
  const DynDFG G = DynDFG::fromTape(T, Sig, {{In, "x"}}, {Out});
  EXPECT_EQ(G.size(), 2u);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::OutOfRange), 4u);
}

//===----------------------------------------------------------------------===//
// Analysis layer
//===----------------------------------------------------------------------===//

TEST_F(InvalidInputTest, RegisterInputNaNBoundWidensToEntire) {
  Analysis A;
  const IAValue X = A.input("x", QNaN, 1.0);
  EXPECT_EQ(X.value(), Interval::entire());
  EXPECT_EQ(DiagSink::global().countOf(ErrC::DomainError), 1u);
}

TEST_F(InvalidInputTest, RegisterInputInvertedBoundsReordered) {
  Analysis A;
  const IAValue X = A.input("x", 3.0, 1.0);
  EXPECT_EQ(X.value(), Interval(1.0, 3.0));
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);
}

TEST_F(InvalidInputTest, RegisterPassiveOutputIsDroppedWithDiagnostic) {
  Analysis A;
  (void)A.input("x", 0.0, 1.0);
  IAValue Passive(2.0); // does not depend on any input
  A.registerOutput(Passive, "y");
  EXPECT_EQ(A.numOutputs(), 0u);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidState), 1u);
}

TEST_F(InvalidInputTest, AnalyseWithoutOutputReturnsInvalidResult) {
  Analysis A;
  (void)A.input("x", 0.0, 1.0);
  const AnalysisResult R = A.analyse();
  EXPECT_FALSE(R.isValid());
  ASSERT_EQ(R.divergences().size(), 1u);
  EXPECT_NE(R.divergences()[0].find("no registered output"),
            std::string::npos);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidState), 1u);
}

TEST_F(InvalidInputTest, AnalyseSanitizesBadOptions) {
  Analysis A;
  IAValue X = A.input("x", 0.0, 1.0);
  IAValue Y = X * X;
  A.registerOutput(Y, "y");
  AnalysisOptions Opts;
  Opts.SignificanceCap = -1.0; // nonsense
  Opts.Delta = QNaN;           // nonsense
  const AnalysisResult R = A.analyse(Opts);
  EXPECT_TRUE(R.isValid());
  // Defaults were substituted: significances are finite and positive.
  ASSERT_EQ(R.outputs().size(), 1u);
  EXPECT_GT(R.outputs()[0].Significance, 0.0);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 2u);
}

//===----------------------------------------------------------------------===//
// Runtime layer
//===----------------------------------------------------------------------===//

TEST_F(InvalidInputTest, DecideFatesOutOfRangeRatioClampsWithDiagnostic) {
  const std::vector<double> Sig = {0.9, 0.1, 0.5};
  const std::vector<bool> HasApprox = {true, true, true};

  // Ratio above 1 clamps to 1: everything accurate.
  auto Fates = rt::TaskRuntime::decideFates(Sig, HasApprox, 1.5);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::OutOfRange), 1u);
  for (rt::TaskFate F : Fates)
    EXPECT_EQ(F, rt::TaskFate::Accurate);

  // Negative ratio clamps to 0: everything approximate (approx exists).
  DiagSink::global().clear();
  Fates = rt::TaskRuntime::decideFates(Sig, HasApprox, -0.25);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::OutOfRange), 1u);
  for (rt::TaskFate F : Fates)
    EXPECT_EQ(F, rt::TaskFate::Approximate);

  // NaN ratio resolves to the all-accurate safe side.
  DiagSink::global().clear();
  Fates = rt::TaskRuntime::decideFates(Sig, HasApprox, QNaN);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::OutOfRange), 1u);
  for (rt::TaskFate F : Fates)
    EXPECT_EQ(F, rt::TaskFate::Accurate);
}

TEST_F(InvalidInputTest, DecideFatesSizeMismatchRunsAllAccurate) {
  const std::vector<double> Sig = {0.9, 0.1};
  const std::vector<bool> HasApprox = {true}; // too short
  const auto Fates = rt::TaskRuntime::decideFates(Sig, HasApprox, 0.5);
  ASSERT_EQ(Fates.size(), Sig.size());
  for (rt::TaskFate F : Fates)
    EXPECT_EQ(F, rt::TaskFate::Accurate);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::SizeMismatch), 1u);
}

TEST_F(InvalidInputTest, SpawnWithoutAccurateFnIsDropped) {
  rt::TaskRuntime RT(2);
  RT.spawn(std::function<void()>(), {});
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);
  const rt::TaskStats Stats = RT.taskwaitAll(1.0);
  EXPECT_EQ(Stats.total(), 0u);
}

TEST_F(InvalidInputTest, SpawnNegativeSignificanceClampsToZero) {
  rt::TaskRuntime RT(2);
  int Approximations = 0;
  rt::TaskOptions Opts;
  Opts.Significance = -2.0;
  Opts.ApproxFn = [&] { ++Approximations; };
  RT.spawn([] {}, Opts);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);
  // Clamped to 0 (not >= 1), so a ratio-0 taskwait approximates it.
  const rt::TaskStats Stats = RT.taskwaitAll(0.0);
  EXPECT_EQ(Stats.NumApproximate, 1u);
  EXPECT_EQ(Approximations, 1);
}

TEST_F(InvalidInputTest, RatioSearchInvalidInputsRecoverToFullAccuracy) {
  EXPECT_EQ(rt::ratioForQualityTarget(nullptr, 30.0,
                                      rt::QualityGoal::HigherIsBetter),
            1.0);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);

  DiagSink::global().clear();
  auto Psnr = [](double R) { return 20.0 + 40.0 * R; };
  EXPECT_EQ(rt::ratioForQualityTarget(Psnr, QNaN,
                                      rt::QualityGoal::HigherIsBetter),
            1.0);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::DomainError), 1u);

  DiagSink::global().clear();
  rt::RatioSearchOptions Bad;
  Bad.RatioTolerance = -1.0;
  const double R = rt::ratioForQualityTarget(
      Psnr, 40.0, rt::QualityGoal::HigherIsBetter, Bad);
  EXPECT_NEAR(R, 0.5, 1.0 / 32.0); // default tolerance substituted
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);
}

TEST_F(InvalidInputTest, OnlineControllerIgnoresNaNQuality) {
  rt::OnlineRatioController C(30.0, rt::QualityGoal::HigherIsBetter);
  const double Before = C.ratio();
  EXPECT_EQ(C.update(QNaN), Before);
  EXPECT_EQ(C.ratio(), Before);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::DomainError), 1u);
}

TEST_F(InvalidInputTest, DestroyingRuntimeWithPendingTasksIsDiagnosed) {
  {
    rt::TaskRuntime RT(2);
    RT.spawn([] {}, {});
    // No taskwait: destruction releases the task unrun.
  }
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidState), 1u);
  EXPECT_NE(DiagSink::global().last().Message.find("unreleased tasks"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Quality layer
//===----------------------------------------------------------------------===//

TEST_F(InvalidInputTest, MetricsSizeMismatchYieldsWorstError) {
  const std::vector<double> A = {1.0, 2.0, 3.0};
  const std::vector<double> B = {1.0, 2.0};
  EXPECT_EQ(mseOf(std::span<const double>(A), std::span<const double>(B)),
            Inf);
  EXPECT_EQ(relativeErrorOf(std::span<const double>(A),
                            std::span<const double>(B)),
            Inf);
  EXPECT_EQ(maxRelativeErrorOf(std::span<const double>(A),
                               std::span<const double>(B)),
            Inf);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::SizeMismatch), 3u);
}

TEST_F(InvalidInputTest, ImageMetricsSizeMismatchYieldsWorstError) {
  const Image A = testimages::gradient(8, 8);
  const Image B = testimages::gradient(4, 4);
  EXPECT_EQ(mseOf(A, B), Inf);
  // PSNR of "worst error" is -inf: unambiguously terrible quality.
  EXPECT_EQ(psnrOf(A, B), -Inf);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::SizeMismatch), 2u);
}

TEST_F(InvalidInputTest, EmptyMetricInputsAreDiagnosed) {
  const std::vector<double> Empty;
  EXPECT_EQ(mseOf(std::span<const double>(Empty),
                  std::span<const double>(Empty)),
            Inf);
  EXPECT_EQ(mseOf(Image(), Image()), Inf);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::EmptyInput), 2u);
}

TEST_F(InvalidInputTest, ImageNonPositiveDimensionsMakeEmptyImage) {
  const Image I(-3, 5);
  EXPECT_TRUE(I.empty());
  EXPECT_EQ(I.width(), 0);
  EXPECT_EQ(I.height(), 0);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);
}

TEST_F(InvalidInputTest, GeneratorCellSizeClampsToOne) {
  const Image A = testimages::checkerboard(8, 8, 0);
  EXPECT_FALSE(A.empty());
  const Image B = testimages::valueNoise(8, 8, 42, -4);
  EXPECT_FALSE(B.empty());
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 2u);
}

//===----------------------------------------------------------------------===//
// Fault injection: the checks are live code on every layer, provable
// without crafting invalid inputs — including under NDEBUG.
//===----------------------------------------------------------------------===//

TEST_F(InvalidInputTest, FaultInjectionIntervalLayer) {
  DiagTestHook::arm("intersect: disjoint");
  const Interval I = intersect(Interval(0.0, 2.0), Interval(1.0, 3.0));
  // Recovery path executed on overlapping operands: the "gap hull" of
  // overlapping intervals is exactly their intersection.
  EXPECT_EQ(I, Interval(1.0, 2.0));
  EXPECT_EQ(DiagSink::global().countOf(ErrC::DomainError), 1u);
}

TEST_F(InvalidInputTest, FaultInjectionTapeLayer) {
  Tape T;
  const NodeId In = T.recordInput(Interval(1.0, 2.0));
  DiagTestHook::arm("Tape::value");
  EXPECT_EQ(T.value(In), Interval(0.0, 0.0)); // forced fallback
  EXPECT_EQ(DiagSink::global().countOf(ErrC::OutOfRange), 1u);
  EXPECT_EQ(T.value(In), Interval(1.0, 2.0)); // fault consumed
}

TEST_F(InvalidInputTest, FaultInjectionAnalysisLayer) {
  DiagTestHook::arm("Analysis::analyse: no registered output");
  Analysis A;
  IAValue X = A.input("x", 0.0, 1.0);
  IAValue Y = X * X;
  A.registerOutput(Y, "y");
  const AnalysisResult R = A.analyse();
  EXPECT_FALSE(R.isValid()); // forced failure path surfaced
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidState), 1u);
}

TEST_F(InvalidInputTest, FaultInjectionRuntimeLayer) {
  DiagTestHook::arm("ratio out of [0, 1]");
  const std::vector<double> Sig = {0.5};
  const std::vector<bool> HasApprox = {true};
  const auto Fates = rt::TaskRuntime::decideFates(Sig, HasApprox, 0.5);
  ASSERT_EQ(Fates.size(), 1u);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::OutOfRange), 1u);
}

TEST_F(InvalidInputTest, FaultInjectionQualityLayer) {
  DiagTestHook::arm("mseOf: vector size mismatch");
  const std::vector<double> A = {1.0, 2.0};
  EXPECT_EQ(mseOf(std::span<const double>(A), std::span<const double>(A)),
            Inf);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::SizeMismatch), 1u);
}

//===----------------------------------------------------------------------===//
// Core drivers migrated off raw assert()
//===----------------------------------------------------------------------===//

TEST_F(InvalidInputTest, IAValueInputWithoutTapeStaysPassive) {
  // No Analysis, no ActiveTapeScope: nothing to record on.
  const IAValue X = IAValue::input(Interval(1.0, 2.0));
  EXPECT_FALSE(X.isActive());
  EXPECT_EQ(X.value(), Interval(1.0, 2.0));
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidState), 1u);
}

TEST_F(InvalidInputTest, MonteCarloEmptyBoxRecoversEmpty) {
  const auto Sig = monteCarloInputSignificance(
      [](std::span<const double>) { return 0.0; }, {});
  EXPECT_TRUE(Sig.empty());
  EXPECT_EQ(DiagSink::global().countOf(ErrC::EmptyInput), 1u);
}

TEST_F(InvalidInputTest, MonteCarloZeroSamplesRecoversToZeros) {
  const std::vector<Interval> Box = {Interval(0.0, 1.0), Interval(1.0, 2.0)};
  MonteCarloOptions Opts;
  Opts.SamplesPerInput = 0;
  const auto Sig = monteCarloInputSignificance(
      [](std::span<const double> P) { return P[0] + P[1]; }, Box, Opts);
  EXPECT_EQ(Sig, std::vector<double>({0.0, 0.0}));
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 1u);
}

TEST_F(InvalidInputTest, RegistryUnknownKernelRecoversInvalid) {
  const KernelRegistry &Reg = KernelRegistry::global();
  const AnalysisResult R = Reg.analyse("no-such-kernel");
  EXPECT_FALSE(R.isValid());
  ASSERT_EQ(R.divergences().size(), 1u);
  EXPECT_NE(R.divergences()[0].find("unknown kernel 'no-such-kernel'"),
            std::string::npos);
  EXPECT_TRUE(Reg.monteCarlo("no-such-kernel").empty());
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 2u);
}

TEST_F(InvalidInputTest, RegistryWrongArityBoxRecoversInvalid) {
  const KernelRegistry &Reg = KernelRegistry::global();
  const std::string Name = Reg.names().front();
  const KernelDescriptor *K = Reg.find(Name);
  ASSERT_NE(K, nullptr);
  std::vector<Interval> Box = K->DefaultRanges;
  Box.push_back(Interval(0.0, 1.0));
  const AnalysisResult R = Reg.analyse(Name, Box);
  EXPECT_FALSE(R.isValid());
  ASSERT_EQ(R.divergences().size(), 1u);
  EXPECT_NE(R.divergences()[0].find("box arity mismatch"), std::string::npos);
  EXPECT_TRUE(Reg.monteCarlo(Name, Box).empty());
  EXPECT_EQ(DiagSink::global().countOf(ErrC::SizeMismatch), 2u);
}

TEST_F(InvalidInputTest, RankingAgreementSizeMismatchRecoversToZero) {
  const std::vector<double> A = {1.0, 2.0, 3.0};
  const std::vector<double> B = {1.0, 2.0};
  EXPECT_EQ(rankingAgreement(A, B), 0.0);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::SizeMismatch), 1u);
}

TEST_F(InvalidInputTest, SweepWithNoBoxesRecoversEmpty) {
  const SweepResult R = sweepAnalysis(
      [](Analysis &, std::span<const Interval>) {}, {});
  EXPECT_TRUE(R.Variables.empty());
  EXPECT_EQ(R.NumDiverged, 0u);
  EXPECT_EQ(DiagSink::global().countOf(ErrC::EmptyInput), 1u);
}

TEST_F(InvalidInputTest, SplitWithEmptyBoxRecoversEmpty) {
  const SplitResult R = analyseWithSplitting(
      [](Analysis &, std::span<const Interval>) {}, {});
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.NumConverged, 0u);
  EXPECT_TRUE(R.Significance.empty());
  EXPECT_EQ(DiagSink::global().countOf(ErrC::EmptyInput), 1u);
}

TEST_F(InvalidInputTest, SuggestTasksOnDivergedResultRecoversEmpty) {
  Analysis A;
  IAValue X = A.input("x", -1.0, 1.0);
  // Ambiguous comparison: the interval straddles zero.
  const bool Gt = X > 0.0;
  (void)Gt;
  IAValue Y = X * X;
  A.registerOutput(Y, "y");
  const AnalysisResult R = A.analyse();
  ASSERT_FALSE(R.isValid());
  DiagSink::global().clear();
  const auto Tasks = suggestTasks(A.graph(R), R);
  EXPECT_TRUE(Tasks.empty());
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidState), 1u);
}

//===----------------------------------------------------------------------===//
// Apps: a tiling or banding step of zero would never advance its loop
//===----------------------------------------------------------------------===//

TEST_F(InvalidInputTest, SobelTilesNonPositiveTileSizeRecoversEmpty) {
  const Image In = testimages::scene(8, 8, 7919);
  for (int TileSize : {0, -4}) {
    const apps::SobelTileSignificance S =
        apps::analyseSobelTiles(In, TileSize, 8.0, 1);
    EXPECT_TRUE(S.Result.shards().empty()) << TileSize;
    EXPECT_EQ(S.A + S.B + S.C, 0.0) << TileSize;
  }
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 2u);
  EXPECT_NE(DiagSink::global().last().Message.find("TileSize"),
            std::string::npos);
}

TEST_F(InvalidInputTest, SobelTasksNonPositiveBandRowsRecoversEmpty) {
  const Image In = testimages::scene(8, 8, 7919);
  rt::TaskRuntime RT(1);
  for (int BandRows : {0, -1}) {
    const Image Out = apps::sobelTasks(RT, In, 1.0, BandRows);
    EXPECT_EQ(Out.width(), 0) << BandRows;
    EXPECT_EQ(Out.height(), 0) << BandRows;
  }
  EXPECT_EQ(DiagSink::global().countOf(ErrC::InvalidArgument), 2u);
  EXPECT_NE(DiagSink::global().last().Message.find("BandRows"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Untrusted paths: a FIFO or a directory where a file is expected
//===----------------------------------------------------------------------===//

/// A scratch directory (one per test: ctest runs tests in parallel)
/// holding a FIFO and a subdirectory, removed on destruction.  Opening
/// the FIFO for reading blocks until a writer comes, so every reader
/// below must refuse it without a blocking open.
struct NonRegularFiles {
  std::string Dir;
  std::string Fifo = Dir + "/fifo";
  std::string Subdir = Dir + "/subdir";

  explicit NonRegularFiles(const std::string &Name)
      : Dir(::testing::TempDir() + "/" + Name) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Subdir);
    EXPECT_EQ(::mkfifo(Fifo.c_str(), 0600), 0) << std::strerror(errno);
  }
  ~NonRegularFiles() { std::filesystem::remove_all(Dir); }
};

TEST_F(InvalidInputTest, LoadStapOfANonRegularFileNamesThePath) {
  NonRegularFiles Files("scorpio_invalid_nonregular_stap");
  for (const std::string &Path : {Files.Fifo, Files.Subdir}) {
    const Expected<LoadedTape> Loaded = loadStap(Path);
    ASSERT_FALSE(Loaded.hasValue()) << Path;
    EXPECT_NE(Loaded.status().message().find(Path), std::string::npos)
        << Loaded.status().message();
    EXPECT_NE(Loaded.status().message().find("not a regular file"),
              std::string::npos)
        << Loaded.status().message();
  }
}

TEST_F(InvalidInputTest, CacheEntryThatIsNotARegularFileIsAPlainMiss) {
  NonRegularFiles Files("scorpio_invalid_nonregular_cache");
  // Plant the FIFO and the subdirectory under the names of two keys.
  const uint64_t FifoKey = 0x5eed, DirKey = 0xd1d;
  std::filesystem::rename(Files.Fifo, Files.Dir + "/" +
                                          service::ResultCache::entryFileName(
                                              FifoKey));
  std::filesystem::rename(Files.Subdir,
                          Files.Dir + "/" +
                              service::ResultCache::entryFileName(DirKey));
  for (const bool Writable : {false, true}) {
    service::ResultCache Cache(Files.Dir, Writable);
    ShardResult Out;
    EXPECT_FALSE(Cache.lookup(FifoKey, Out));
    EXPECT_FALSE(Cache.lookup(DirKey, Out));
    EXPECT_EQ(Cache.stats().Misses, 2u);
    EXPECT_EQ(Cache.stats().CorruptEntries, 0u);
  }
}

} // namespace
