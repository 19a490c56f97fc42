//===- tests/verifier_test.cpp - Structural tape verifier unit tests ------===//
//
// Every SCORPIO-Exxx structural rule: a well-formed tape passes clean,
// and each hand-forged defect is flagged with the expected rule ID.
// Defects are forged in the RawTape plain-data mirror because the
// recording API validates its inputs and cannot produce them.
//
//===----------------------------------------------------------------------===//

#include "verify/TapeVerifier.h"

#include "core/Analysis.h"
#include "kernels/KernelRegistry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

using namespace scorpio;
using namespace scorpio::verify;

namespace {

constexpr double NaN = std::numeric_limits<double>::quiet_NaN();

/// y = (a + b) * sqr(a) with both inputs registered as tape inputs:
/// the shared well-formed fixture the defect tests then corrupt.
RawTape validRaw() {
  RawTape Raw;
  RawNode A;
  A.Kind = OpKind::Input;
  A.ValueLo = 1.0;
  A.ValueHi = 2.0;
  RawNode B = A;
  B.ValueLo = 3.0;
  B.ValueHi = 4.0;
  RawNode Sum;
  Sum.Kind = OpKind::Add;
  Sum.ValueLo = 4.0;
  Sum.ValueHi = 6.0;
  Sum.NumArgs = 2;
  Sum.Args[0] = 0;
  Sum.Args[1] = 1;
  Sum.PartialLo[0] = Sum.PartialHi[0] = 1.0;
  Sum.PartialLo[1] = Sum.PartialHi[1] = 1.0;
  RawNode Sq;
  Sq.Kind = OpKind::Sqr;
  Sq.ValueLo = 1.0;
  Sq.ValueHi = 4.0;
  Sq.NumArgs = 1;
  Sq.Args[0] = 0;
  Sq.PartialLo[0] = 2.0;
  Sq.PartialHi[0] = 4.0;
  RawNode Mul;
  Mul.Kind = OpKind::Mul;
  Mul.ValueLo = 4.0;
  Mul.ValueHi = 24.0;
  Mul.NumArgs = 2;
  Mul.Args[0] = 2;
  Mul.Args[1] = 3;
  Mul.PartialLo[0] = 1.0;
  Mul.PartialHi[0] = 4.0;
  Mul.PartialLo[1] = 4.0;
  Mul.PartialHi[1] = 6.0;
  Raw.Nodes = {A, B, Sum, Sq, Mul};
  Raw.Inputs = {0, 1};
  Raw.Outputs = {4};
  return Raw;
}

size_t totalFindings(const VerifyReport &R) {
  size_t N = 0;
  for (size_t I = 0; I != NumRules; ++I)
    N += R.countOf(static_cast<RuleKind>(I));
  return N;
}

TEST(TapeVerifier, ValidRawTapePassesClean) {
  const VerifyReport R = verifyStructure(validRaw());
  EXPECT_EQ(totalFindings(R), 0u);
  EXPECT_FALSE(R.hasErrors());
}

TEST(TapeVerifier, DanglingArgumentE001) {
  RawTape Raw = validRaw();
  Raw.Nodes[4].Args[1] = 99; // beyond the tape
  const VerifyReport R = verifyStructure(Raw);
  EXPECT_EQ(R.countOf(RuleKind::DanglingArgument), 1u);
  ASSERT_EQ(R.findings().size(), 1u);
  EXPECT_EQ(R.findings()[0].Node, 4);
  EXPECT_EQ(R.findings()[0].ArgIndex, 1);
  EXPECT_STREQ(R.findings()[0].rule().Id, "SCORPIO-E001");

  Raw = validRaw();
  Raw.Nodes[3].Args[0] = -7; // negative id
  EXPECT_EQ(verifyStructure(Raw).countOf(RuleKind::DanglingArgument), 1u);
}

TEST(TapeVerifier, NonTopologicalArgumentE002) {
  RawTape Raw = validRaw();
  Raw.Nodes[2].Args[0] = 2; // self reference
  EXPECT_EQ(verifyStructure(Raw).countOf(RuleKind::NonTopologicalArgument),
            1u);

  Raw = validRaw();
  Raw.Nodes[2].Args[1] = 4; // forward reference
  const VerifyReport R = verifyStructure(Raw);
  EXPECT_EQ(R.countOf(RuleKind::NonTopologicalArgument), 1u);
  EXPECT_STREQ(R.findings()[0].rule().Id, "SCORPIO-E002");
}

TEST(TapeVerifier, ArityMismatchE003) {
  // Input with an edge.
  RawTape Raw = validRaw();
  Raw.Nodes[0].NumArgs = 1;
  Raw.Nodes[0].Args[0] = 0;
  VerifyReport R = verifyStructure(Raw);
  EXPECT_GE(R.countOf(RuleKind::ArityMismatch), 1u);

  // Unary node with two edges.
  Raw = validRaw();
  Raw.Nodes[3].NumArgs = 2;
  Raw.Nodes[3].Args[1] = 1;
  EXPECT_EQ(verifyStructure(Raw).countOf(RuleKind::ArityMismatch), 1u);

  // Non-input node with no edges at all.
  Raw = validRaw();
  Raw.Nodes[2].NumArgs = 0;
  EXPECT_EQ(verifyStructure(Raw).countOf(RuleKind::ArityMismatch), 1u);

  // Unrecognized kind byte.
  Raw = validRaw();
  Raw.Nodes[2].Kind = static_cast<OpKind>(250);
  R = verifyStructure(Raw);
  EXPECT_EQ(R.countOf(RuleKind::ArityMismatch), 1u);
  EXPECT_STREQ(R.findings()[0].rule().Id, "SCORPIO-E003");
}

TEST(TapeVerifier, MalformedPartialE004) {
  RawTape Raw = validRaw();
  Raw.Nodes[3].PartialLo[0] = NaN;
  EXPECT_EQ(verifyStructure(Raw).countOf(RuleKind::MalformedPartial), 1u);

  Raw = validRaw();
  Raw.Nodes[4].PartialLo[1] = 7.0; // inverted: lo > hi
  const VerifyReport R = verifyStructure(Raw);
  EXPECT_EQ(R.countOf(RuleKind::MalformedPartial), 1u);
  EXPECT_EQ(R.findings()[0].Node, 4);
  EXPECT_EQ(R.findings()[0].ArgIndex, 1);
  EXPECT_STREQ(R.findings()[0].rule().Id, "SCORPIO-E004");
}

TEST(TapeVerifier, MalformedValueE005) {
  RawTape Raw = validRaw();
  Raw.Nodes[1].ValueHi = NaN;
  EXPECT_EQ(verifyStructure(Raw).countOf(RuleKind::MalformedValue), 1u);

  Raw = validRaw();
  Raw.Nodes[2].ValueLo = 10.0; // inverted
  const VerifyReport R = verifyStructure(Raw);
  EXPECT_EQ(R.countOf(RuleKind::MalformedValue), 1u);
  EXPECT_STREQ(R.findings()[0].rule().Id, "SCORPIO-E005");
}

TEST(TapeVerifier, InputKindMismatchE006) {
  RawTape Raw = validRaw();
  Raw.Inputs.push_back(2); // the Add node is not an Input
  VerifyReport R = verifyStructure(Raw);
  EXPECT_EQ(R.countOf(RuleKind::InputKindMismatch), 1u);
  EXPECT_STREQ(R.findings()[0].rule().Id, "SCORPIO-E006");

  Raw = validRaw();
  Raw.Inputs.push_back(42); // input list names a nonexistent node
  EXPECT_EQ(verifyStructure(Raw).countOf(RuleKind::InputKindMismatch), 1u);
}

TEST(TapeVerifier, InvalidOutputE007) {
  RawTape Raw = validRaw();
  Raw.Outputs.push_back(17);
  VerifyReport R = verifyStructure(Raw);
  EXPECT_EQ(R.countOf(RuleKind::InvalidOutput), 1u);
  EXPECT_STREQ(R.findings()[0].rule().Id, "SCORPIO-E007");

  Raw = validRaw();
  Raw.Outputs = {-1};
  EXPECT_EQ(verifyStructure(Raw).countOf(RuleKind::InvalidOutput), 1u);
}

TEST(TapeVerifier, RecordedTapeRoundTripsThroughExtractRaw) {
  Analysis A;
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Y = A.input("y", -1.0, 1.0);
  IAValue Z = sqrt(sqr(X) + sqr(Y)) * exp(X);
  A.registerOutput(Z, "z");

  const RawTape Raw = extractRaw(A.tape(), A.outputNodes());
  ASSERT_EQ(Raw.Nodes.size(), A.tape().size());
  EXPECT_EQ(Raw.Inputs.size(), 2u);
  ASSERT_EQ(Raw.Outputs.size(), 1u);
  EXPECT_EQ(Raw.Outputs[0], Z.node());
  EXPECT_EQ(verifyStructure(Raw).findings().size(), 0u);
}

TEST(TapeVerifier, ExtractRawMatchesThePerNodeAccessorsBitForBit) {
  // extractRaw reads the SoA spans; the mirror it builds must be the
  // one the checked per-node accessors describe, byte for byte.
  for (const std::string &Name : KernelRegistry::global().names()) {
    const KernelDescriptor *K = KernelRegistry::global().find(Name);
    Analysis A;
    K->Analyse(A, K->DefaultRanges);
    const Tape &T = A.tape();
    const RawTape Raw = extractRaw(T, A.outputNodes());
    ASSERT_EQ(Raw.Nodes.size(), T.size()) << Name;
    for (size_t I = 0; I != T.size(); ++I) {
      const NodeId Id = static_cast<NodeId>(I);
      RawNode Want;
      Want.Kind = T.kind(Id);
      Want.AuxInt = T.auxInt(Id);
      Want.ValueLo = T.value(Id).lower();
      Want.ValueHi = T.value(Id).upper();
      Want.NumArgs = static_cast<uint8_t>(T.numArgs(Id));
      for (unsigned Arg = 0; Arg != Want.NumArgs; ++Arg) {
        Want.Args[Arg] = T.arg(Id, Arg);
        Want.PartialLo[Arg] = T.partial(Id, Arg).lower();
        Want.PartialHi[Arg] = T.partial(Id, Arg).upper();
      }
      const RawNode &Got = Raw.Nodes[I];
      EXPECT_EQ(Got.Kind, Want.Kind) << Name << " u" << I;
      EXPECT_EQ(Got.AuxInt, Want.AuxInt) << Name << " u" << I;
      EXPECT_EQ(Got.NumArgs, Want.NumArgs) << Name << " u" << I;
      EXPECT_EQ(std::memcmp(&Got.ValueLo, &Want.ValueLo, sizeof(double)), 0)
          << Name << " u" << I;
      EXPECT_EQ(std::memcmp(&Got.ValueHi, &Want.ValueHi, sizeof(double)), 0)
          << Name << " u" << I;
      EXPECT_EQ(std::memcmp(Got.Args, Want.Args, sizeof(Want.Args)), 0)
          << Name << " u" << I;
      EXPECT_EQ(std::memcmp(Got.PartialLo, Want.PartialLo,
                            sizeof(Want.PartialLo)),
                0)
          << Name << " u" << I;
      EXPECT_EQ(std::memcmp(Got.PartialHi, Want.PartialHi,
                            sizeof(Want.PartialHi)),
                0)
          << Name << " u" << I;
    }
    EXPECT_EQ(Raw.Inputs, T.inputs()) << Name;
    EXPECT_EQ(Raw.Outputs, A.outputNodes()) << Name;
  }
}

void expectSameFindings(const VerifyReport &Got, const VerifyReport &Want,
                        const std::string &Label) {
  ASSERT_EQ(Got.findings().size(), Want.findings().size()) << Label;
  for (size_t I = 0; I != Want.findings().size(); ++I) {
    const Finding &G = Got.findings()[I], &W = Want.findings()[I];
    EXPECT_EQ(G.Kind, W.Kind) << Label << " #" << I;
    EXPECT_EQ(G.Node, W.Node) << Label << " #" << I;
    EXPECT_EQ(G.ArgIndex, W.ArgIndex) << Label << " #" << I;
    EXPECT_EQ(G.Message, W.Message) << Label << " #" << I;
  }
}

TEST(TapeVerifier, VerifyTapeReportsWhatTheRawMirrorReports) {
  // verifyTape reads the structural rules' input straight from the
  // tape; its findings must be the ones the extractRaw mirror yields.
  VerifierOptions NoSweep;
  NoSweep.CheckBatchSweep = false;
  for (const std::string &Name : KernelRegistry::global().names()) {
    const KernelDescriptor *K = KernelRegistry::global().find(Name);
    Analysis A;
    K->Analyse(A, K->DefaultRanges);
    const Tape &T = A.tape();
    std::vector<NodeId> Outs = A.outputNodes();
    expectSameFindings(verifyTape(T, Outs, NoSweep),
                       verifyStructure(extractRaw(T, Outs), NoSweep), Name);
    Outs.push_back(-1);
    Outs.push_back(static_cast<NodeId>(T.size()));
    const VerifyReport Bad = verifyTape(T, Outs, NoSweep);
    EXPECT_EQ(Bad.countOf(RuleKind::InvalidOutput), 2u) << Name;
    expectSameFindings(Bad, verifyStructure(extractRaw(T, Outs), NoSweep),
                       Name + " with bad outputs");
  }

  // Arity defects survive Tape::adopt, so a tape can carry them too: a
  // unary node stripped of its edge and an Input given one.
  Analysis A;
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Y = A.input("y", 3.0, 4.0);
  A.registerOutput(sqrt(X) + Y, "out");
  const Tape &Rec = A.tape();
  std::vector<TapeEdges> Edges(Rec.edges().begin(), Rec.edges().end());
  const NodeId Sqrt = Rec.arg(A.outputNodes()[0], 0);
  ASSERT_EQ(Rec.kind(Sqrt), OpKind::Sqrt);
  Edges[static_cast<size_t>(Sqrt)].NumArgs = 0;
  Edges[static_cast<size_t>(Y.node())].NumArgs = 1;
  Edges[static_cast<size_t>(Y.node())].Args[0] = X.node();
  diag::Expected<Tape> Broken = Tape::adopt(
      std::vector<Interval>(Rec.values().begin(), Rec.values().end()),
      std::vector<TapeOp>(Rec.ops().begin(), Rec.ops().end()),
      std::move(Edges), Rec.inputs(), {});
  ASSERT_TRUE(Broken.hasValue()) << Broken.status().message();
  const VerifyReport R = verifyTape(Broken.value(), A.outputNodes(), NoSweep);
  EXPECT_EQ(R.countOf(RuleKind::ArityMismatch), 2u);
  expectSameFindings(
      R, verifyStructure(extractRaw(Broken.value(), A.outputNodes()), NoSweep),
      "adopted tape with arity defects");
}

TEST(TapeVerifier, VerifyTapeCleanOnRealRecordingWithManyOutputs) {
  // Eleven outputs cross the default batch width of 8, so the E008
  // cross-check exercises both a full and a partial batch.
  Analysis A;
  IAValue X = A.input("x", 0.5, 1.5);
  IAValue Y = A.input("y", 2.0, 3.0);
  std::vector<IAValue> Outs;
  IAValue Acc = 0.0;
  for (int I = 0; I != 11; ++I) {
    Acc = Acc + X * static_cast<double>(I + 1) + sin(Y);
    Outs.push_back(Acc);
  }
  for (size_t I = 0; I != Outs.size(); ++I)
    A.registerOutput(Outs[I], "o" + std::to_string(I));

  VerifierOptions Options;
  Options.BatchWidth = 8;
  const VerifyReport R = verifyTape(A.tape(), A.outputNodes(), Options);
  EXPECT_EQ(totalFindings(R), 0u) << "unexpected findings on a clean tape";
}

TEST(TapeVerifier, BatchSweepMismatchE008FiresThroughTheTestSeam) {
  // A correct batch kernel never diverges from the dedicated sweep, so
  // the detection path is proven via the documented corruption seam.
  Analysis A;
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue U = X * 3.0 + 1.0;
  IAValue V = sqr(X);
  A.registerOutput(U, "u");
  A.registerOutput(V, "v");

  VerifierOptions Options;
  Options.TestLaneAdjointBitFlip = 1; // flip the LSB of each lane lower bound
  const VerifyReport R = verifyTape(A.tape(), A.outputNodes(), Options);
  EXPECT_GE(R.countOf(RuleKind::BatchSweepMismatch), 1u);
  EXPECT_TRUE(R.hasErrors());
  ASSERT_FALSE(R.findings().empty());
  EXPECT_STREQ(R.findings()[0].rule().Id, "SCORPIO-E008");

  // And the same tape is clean without the seam.
  Options.TestLaneAdjointBitFlip = 0;
  EXPECT_EQ(
      verifyTape(A.tape(), A.outputNodes(), Options)
          .countOf(RuleKind::BatchSweepMismatch),
      0u);
}

TEST(TapeVerifier, StructuralErrorsSuppressTheSweepReplay) {
  // A dangling argument must not crash the verifier by letting the
  // E008 replay read out of bounds: the sweep is skipped on errors.
  Analysis A;
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Y = sqr(X);
  A.registerOutput(Y, "y");
  RawTape Raw = extractRaw(A.tape(), A.outputNodes());
  Raw.Nodes[1].Args[0] = 99;
  const VerifyReport R = verifyStructure(Raw);
  EXPECT_TRUE(R.hasErrors());
  EXPECT_EQ(R.countOf(RuleKind::BatchSweepMismatch), 0u);
}

TEST(TapeVerifier, FindingCapKeepsExactCounts) {
  RawTape Raw = validRaw();
  // 40 extra nodes with dangling arguments, cap at 4.
  for (int I = 0; I != 40; ++I) {
    RawNode N;
    N.Kind = OpKind::Neg;
    N.ValueLo = 0.0;
    N.ValueHi = 1.0;
    N.NumArgs = 1;
    N.Args[0] = 1000 + I;
    N.PartialLo[0] = N.PartialHi[0] = -1.0;
    Raw.Nodes.push_back(N);
  }
  VerifierOptions Options;
  Options.MaxFindingsPerRule = 4;
  const VerifyReport R = verifyStructure(Raw, Options);
  EXPECT_EQ(R.countOf(RuleKind::DanglingArgument), 40u);
  EXPECT_EQ(R.findings().size(), 4u);
  EXPECT_EQ(R.errorCount(), 40u);
}

TEST(TapeVerifier, AnalysisVerifyTapeHookRunsAndStaysValid) {
  Analysis A;
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Y = sqr(X) + exp(X);
  A.registerOutput(Y, "y");
  AnalysisOptions Options;
  Options.VerifyTape = VerifyLevel::Structural;
  const AnalysisResult R = A.analyse(Options);
  EXPECT_TRUE(R.wasVerified());
  EXPECT_FALSE(R.verification().hasErrors());
  EXPECT_TRUE(R.isValid());

  // Off by default: no verification report is attached.
  Analysis B;
  IAValue Z = B.input("z", 1.0, 2.0);
  B.registerOutput(sqr(Z), "w");
  EXPECT_FALSE(B.analyse().wasVerified());
}

TEST(TapeVerifier, EveryRegistryKernelVerifiesClean) {
  // The acceptance gate of the lint driver, as a unit test: all
  // registered kernels (the paper's six benchmarks included) produce
  // structurally valid tapes on their default ranges.
  KernelRegistry &Registry = KernelRegistry::global();
  for (const char *Name :
       {"sobel-pixel", "dct8", "fisheye-inverse-mapping", "fisheye-bicubic",
        "nbody-lj-pair", "blackscholes-call", "maclaurin"}) {
    const KernelDescriptor *K = Registry.find(Name);
    ASSERT_NE(K, nullptr) << Name;
    Analysis A;
    K->Analyse(A, K->DefaultRanges);
    const VerifyReport R = verifyTape(A.tape(), A.outputNodes());
    EXPECT_FALSE(R.hasErrors()) << Name;
  }
}

} // namespace
