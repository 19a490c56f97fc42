//===- tests/tapeio_test.cpp - .stap serialization unit tests -------------===//
//
// The .stap round-trip contract (a reloaded tape re-analyses to a
// byte-identical report) and the loader's trust boundary: truncation at
// every length, a flipped byte at every position, forged structural
// defects and unknown sections are all rejected with a structured
// Status — never a crash, never a silently "repaired" tape.
//
//===----------------------------------------------------------------------===//

#include "tape/TapeIO.h"

#include "core/Analysis.h"
#include "core/ParallelAnalysis.h"
#include "kernels/KernelRegistry.h"
#include "support/Diag.h"
#include "verify/TapeVerifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace scorpio;

namespace {

class TapeIOTest : public ::testing::Test {
protected:
  void SetUp() override {
    diag::DiagSink::global().clear();
    diag::setCheckPolicy(diag::CheckPolicy::ReturnStatus);
  }
  void TearDown() override { diag::DiagSink::global().clear(); }
};

/// Records y = x*x + z*z + x*z with one intermediate registered, then
/// analyses — the shared serialization fixture.
struct Recorded {
  Analysis A;
  AnalysisResult R;

  Recorded() {
    const IAValue X = A.input("x", 1.0, 2.0);
    const IAValue Z = A.input("z", 0.5, 1.5);
    const IAValue Cross = X * Z;
    A.registerIntermediate(Cross, "cross");
    const IAValue Y = X * X + Z * Z + Cross;
    A.registerOutput(Y, "y");
    R = A.analyse();
  }

  /// The fixture's tape serialized to a .stap byte string.
  std::string bytes(bool WithSignificance = false) {
    std::vector<double> Sig;
    if (WithSignificance)
      for (size_t I = 0; I != A.tape().size(); ++I)
        Sig.push_back(R.significanceOf(static_cast<NodeId>(I)));
    std::ostringstream OS(std::ios::binary);
    const diag::Status S = writeStap(OS, A.tape(), A.registration(), Sig);
    EXPECT_TRUE(S.isOk()) << S.message();
    return OS.str();
  }
};

diag::Expected<LoadedTape> load(const std::string &Bytes) {
  std::istringstream IS(Bytes, std::ios::binary);
  return readStap(IS);
}

/// Recomputes the v2 checksum (FNV-1a64 over the whole file with the
/// checksum field zeroed) after a deliberate mutation, so tests can
/// exercise the gates *behind* the checksum.
void refreshChecksum(std::string &Bytes) {
  ASSERT_GE(Bytes.size(), 32u);
  std::memset(Bytes.data() + 24, 0, 8);
  uint64_t Hash = 14695981039346656037ULL;
  for (char C : Bytes) {
    Hash ^= static_cast<uint8_t>(C);
    Hash *= 1099511628211ULL;
  }
  std::memcpy(Bytes.data() + 24, &Hash, 8);
}

//===----------------------------------------------------------------------===//
// Round trip
//===----------------------------------------------------------------------===//

TEST_F(TapeIOTest, RoundTripReanalysesBitIdentically) {
  Recorded Fix;
  std::ostringstream Original;
  Fix.R.writeJson(Original);

  diag::Expected<LoadedTape> Loaded = load(Fix.bytes());
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();

  Analysis B;
  const diag::Status S =
      B.adopt(std::move(Loaded.value().T), Loaded.value().Reg);
  ASSERT_TRUE(S.isOk()) << S.message();

  std::ostringstream Replayed;
  B.analyse().writeJson(Replayed);
  EXPECT_EQ(Original.str(), Replayed.str());
}

TEST_F(TapeIOTest, RoundTripPreservesRegistrationAndSignificance) {
  Recorded Fix;
  diag::Expected<LoadedTape> Loaded = load(Fix.bytes(/*WithSignificance=*/true));
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();

  const TapeRegistration Orig = Fix.A.registration();
  const TapeRegistration &Got = Loaded.value().Reg;
  EXPECT_EQ(Got.Outputs, Orig.Outputs);
  EXPECT_EQ(Got.Labels, Orig.Labels);
  EXPECT_EQ(Got.InputVars, Orig.InputVars);
  EXPECT_EQ(Got.IntermediateVars, Orig.IntermediateVars);
  EXPECT_EQ(Got.OutputVars, Orig.OutputVars);

  ASSERT_EQ(Loaded.value().Significance.size(), Fix.A.tape().size());
  for (size_t I = 0; I != Loaded.value().Significance.size(); ++I)
    EXPECT_EQ(Loaded.value().Significance[I],
              Fix.R.significanceOf(static_cast<NodeId>(I)))
        << "node " << I;
}

TEST_F(TapeIOTest, DivergencesSurviveTheRoundTrip) {
  Recorded Fix;
  const verify::RawTape Raw =
      verify::extractRaw(Fix.A.tape(), Fix.A.outputNodes());
  const std::vector<std::string> Divergences = {
      "x < z: ambiguous interval comparison"};
  std::ostringstream OS(std::ios::binary);
  ASSERT_TRUE(
      writeStap(OS, Raw, Fix.A.registration(), {}, Divergences).isOk());

  diag::Expected<LoadedTape> Loaded = load(OS.str());
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  EXPECT_EQ(Loaded.value().T.divergences(), Divergences);

  // A diverged tape must re-analyse to an *invalid* result, exactly as
  // the recording process saw it (paper Section 2.2).
  Analysis B;
  ASSERT_TRUE(B.adopt(std::move(Loaded.value().T), Loaded.value().Reg).isOk());
  EXPECT_FALSE(B.analyse().isValid());
}

//===----------------------------------------------------------------------===//
// Trust boundary: malformed bytes
//===----------------------------------------------------------------------===//

TEST_F(TapeIOTest, TruncationAtEveryLengthIsRejected) {
  Recorded Fix;
  const std::string Bytes = Fix.bytes(/*WithSignificance=*/true);
  ASSERT_GT(Bytes.size(), 0u);
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    diag::Expected<LoadedTape> Loaded = load(Bytes.substr(0, Len));
    EXPECT_FALSE(Loaded.hasValue()) << "accepted a " << Len
                                    << "-byte prefix of a "
                                    << Bytes.size() << "-byte file";
    EXPECT_FALSE(Loaded.status().message().empty());
  }
}

TEST_F(TapeIOTest, ByteFlipAtEveryPositionIsRejected) {
  Recorded Fix;
  const std::string Bytes = Fix.bytes(/*WithSignificance=*/true);
  for (size_t Pos = 0; Pos != Bytes.size(); ++Pos) {
    std::string Tampered = Bytes;
    Tampered[Pos] = static_cast<char>(Tampered[Pos] ^ 0xFF);
    diag::Expected<LoadedTape> Loaded = load(Tampered);
    EXPECT_FALSE(Loaded.hasValue())
        << "accepted a file with byte " << Pos << " flipped";
  }
}

TEST_F(TapeIOTest, UnknownSectionTagIsRejected) {
  Recorded Fix;
  std::string Bytes = Fix.bytes();
  const size_t Pos = Bytes.find("LABL");
  ASSERT_NE(Pos, std::string::npos);
  Bytes.replace(Pos, 4, "QQQQ");
  refreshChecksum(Bytes);
  diag::Expected<LoadedTape> Loaded = load(Bytes);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.status().message().find("unknown"), std::string::npos)
      << Loaded.status().message();
}

TEST_F(TapeIOTest, WrongMagicAndVersionAreRejected) {
  Recorded Fix;
  std::string Bytes = Fix.bytes();
  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_FALSE(load(BadMagic).hasValue());

  std::string BadVersion = Bytes;
  BadVersion[4] = static_cast<char>(StapVersion + 1);
  diag::Expected<LoadedTape> Loaded = load(BadVersion);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.status().message().find("version"), std::string::npos)
      << Loaded.status().message();
}

TEST_F(TapeIOTest, EmptyAndGarbageStreamsAreRejected) {
  EXPECT_FALSE(load("").hasValue());
  EXPECT_FALSE(load("not a stap file at all").hasValue());
  EXPECT_FALSE(load(std::string(1024, '\0')).hasValue());
}

//===----------------------------------------------------------------------===//
// Trust boundary: structurally defective tapes
//===----------------------------------------------------------------------===//

/// Serializes \p Raw (with the fixture's registration) and returns the
/// loader's verdict.
diag::Status loadForged(const Recorded &Fix, const verify::RawTape &Raw) {
  std::ostringstream OS(std::ios::binary);
  const diag::Status W = writeStap(OS, Raw, Fix.A.registration());
  EXPECT_TRUE(W.isOk()) << W.message();
  diag::Expected<LoadedTape> Loaded = load(OS.str());
  EXPECT_FALSE(Loaded.hasValue());
  return Loaded.status();
}

TEST_F(TapeIOTest, ForwardReferenceIsRejectedByTheVerifyGate) {
  Recorded Fix;
  verify::RawTape Raw = verify::extractRaw(Fix.A.tape(), Fix.A.outputNodes());
  // Last node consumes itself: a forward (non-topological) reference.
  ASSERT_GE(Raw.Nodes.back().NumArgs, 1u);
  Raw.Nodes.back().Args[0] = static_cast<NodeId>(Raw.Nodes.size() - 1);
  const diag::Status S = loadForged(Fix, Raw);
  EXPECT_NE(S.message().find("verifyStructure"), std::string::npos)
      << S.message();
}

TEST_F(TapeIOTest, NaNPartialIsRejectedByTheVerifyGate) {
  Recorded Fix;
  verify::RawTape Raw = verify::extractRaw(Fix.A.tape(), Fix.A.outputNodes());
  ASSERT_GE(Raw.Nodes.back().NumArgs, 1u);
  Raw.Nodes.back().PartialLo[0] = std::numeric_limits<double>::quiet_NaN();
  const diag::Status S = loadForged(Fix, Raw);
  EXPECT_NE(S.message().find("verifyStructure"), std::string::npos)
      << S.message();
}

TEST_F(TapeIOTest, OutOfRangeOutputIsRejectedByTheVerifyGate) {
  Recorded Fix;
  verify::RawTape Raw = verify::extractRaw(Fix.A.tape(), Fix.A.outputNodes());
  Raw.Outputs.push_back(static_cast<NodeId>(Raw.Nodes.size() + 100));
  const diag::Status S = loadForged(Fix, Raw);
  EXPECT_NE(S.message().find("verifyStructure"), std::string::npos)
      << S.message();
}

//===----------------------------------------------------------------------===//
// Analysis::adopt misuse
//===----------------------------------------------------------------------===//

TEST_F(TapeIOTest, AdoptRefusesAUsedAnalysis) {
  Recorded Fix;
  diag::Expected<LoadedTape> Loaded = load(Fix.bytes());
  ASSERT_TRUE(Loaded.hasValue());

  Analysis Used;
  (void)Used.input("w", 0.0, 1.0); // no longer fresh
  const diag::Status S =
      Used.adopt(std::move(Loaded.value().T), Loaded.value().Reg);
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), diag::ErrC::InvalidState);
}

TEST_F(TapeIOTest, AdoptRefusesOutOfRangeRegistration) {
  Recorded Fix;
  diag::Expected<LoadedTape> Loaded = load(Fix.bytes());
  ASSERT_TRUE(Loaded.hasValue());

  TapeRegistration Reg = Loaded.value().Reg;
  Reg.Outputs.push_back(static_cast<NodeId>(Fix.A.tape().size() + 5));
  Analysis B;
  const diag::Status S = B.adopt(std::move(Loaded.value().T), Reg);
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), diag::ErrC::OutOfRange);
}

TEST_F(TapeIOTest, SaveAndLoadFileRoundTrip) {
  Recorded Fix;
  const std::string Path =
      ::testing::TempDir() + "/scorpio_tapeio_roundtrip.stap";
  ASSERT_TRUE(saveStap(Path, Fix.A.tape(), Fix.A.registration()).isOk());
  diag::Expected<LoadedTape> Loaded = loadStap(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  EXPECT_EQ(Loaded.value().T.size(), Fix.A.tape().size());
  EXPECT_FALSE(loadStap(Path + ".does-not-exist").hasValue());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// v2: compression, META, version compatibility
//===----------------------------------------------------------------------===//

/// Serializes the fixture with explicit writer options (and optionally
/// a META payload and per-node significances).
std::string bytesWith(Recorded &Fix, const StapWriteOptions &Opts,
                      const TapeMeta *Meta = nullptr,
                      bool WithSignificance = false) {
  std::vector<double> Sig;
  if (WithSignificance)
    for (size_t I = 0; I != Fix.A.tape().size(); ++I)
      Sig.push_back(Fix.R.significanceOf(static_cast<NodeId>(I)));
  std::ostringstream OS(std::ios::binary);
  const diag::Status S =
      writeStap(OS, Fix.A.tape(), Fix.A.registration(), Sig, Opts, Meta);
  EXPECT_TRUE(S.isOk()) << S.message();
  return OS.str();
}

TEST_F(TapeIOTest, CompressedRoundTripReanalysesBitIdentically) {
  Recorded Fix;
  std::ostringstream Original;
  Fix.R.writeJson(Original);

  StapWriteOptions Opts;
  Opts.Compress = true;
  const std::string Compressed = bytesWith(Fix, Opts);
  const std::string Raw = Fix.bytes();
  // This fixture's OPS/EDGE sections are delta-friendly; compression
  // must actually engage, not silently fall back to raw everywhere.
  EXPECT_LT(Compressed.size(), Raw.size());

  diag::Expected<LoadedTape> Loaded = load(Compressed);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  EXPECT_EQ(Loaded.value().Version, 2u);

  Analysis B;
  ASSERT_TRUE(
      B.adopt(std::move(Loaded.value().T), Loaded.value().Reg).isOk());
  std::ostringstream Replayed;
  B.analyse().writeJson(Replayed);
  EXPECT_EQ(Original.str(), Replayed.str());
}

TEST_F(TapeIOTest, CompressedSignificanceAndRegistrationSurvive) {
  Recorded Fix;
  StapWriteOptions Opts;
  Opts.Compress = true;
  diag::Expected<LoadedTape> Loaded =
      load(bytesWith(Fix, Opts, nullptr, /*WithSignificance=*/true));
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  const TapeRegistration Orig = Fix.A.registration();
  EXPECT_EQ(Loaded.value().Reg.Outputs, Orig.Outputs);
  EXPECT_EQ(Loaded.value().Reg.Labels, Orig.Labels);
  ASSERT_EQ(Loaded.value().Significance.size(), Fix.A.tape().size());
  for (size_t I = 0; I != Loaded.value().Significance.size(); ++I)
    EXPECT_EQ(Loaded.value().Significance[I],
              Fix.R.significanceOf(static_cast<NodeId>(I)));
}

TEST_F(TapeIOTest, MetaSectionRoundTrips) {
  Recorded Fix;
  TapeMeta Meta;
  Meta.ShardName = "tile_3_1";
  Meta.ShardIndex = 7;
  Meta.HasOptions = true;
  Meta.OutputMode = 1;
  Meta.Metric = 1;
  Meta.BatchWidth = 4;
  Meta.Simplify = false;
  Meta.BuildGraph = false;
  Meta.VerifyTape = 1; // VerifyLevel::Structural as its wire byte
  Meta.Delta = 0.25;
  Meta.SignificanceCap = 1e100;
  StapWriteOptions Opts;
  Opts.Compress = true;

  diag::Expected<LoadedTape> Loaded = load(bytesWith(Fix, Opts, &Meta));
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  ASSERT_TRUE(Loaded.value().Meta.has_value());
  const TapeMeta &Got = *Loaded.value().Meta;
  EXPECT_EQ(Got.SchemaHash, stapSchemaHash());
  EXPECT_EQ(Got.ShardName, "tile_3_1");
  EXPECT_EQ(Got.ShardIndex, 7u);
  EXPECT_TRUE(Got.HasOptions);
  EXPECT_EQ(Got.OutputMode, 1);
  EXPECT_EQ(Got.Metric, 1);
  EXPECT_EQ(Got.BatchWidth, 4u);
  EXPECT_FALSE(Got.Simplify);
  EXPECT_FALSE(Got.BuildGraph);
  EXPECT_EQ(Got.VerifyTape, 1);
  EXPECT_EQ(Got.Delta, 0.25);
  EXPECT_EQ(Got.SignificanceCap, 1e100);

  // Without META the optional stays empty.
  diag::Expected<LoadedTape> Plain = load(Fix.bytes());
  ASSERT_TRUE(Plain.hasValue());
  EXPECT_FALSE(Plain.value().Meta.has_value());
}

TEST_F(TapeIOTest, V1WriterRejectsV2OnlyFeatures) {
  Recorded Fix;
  std::ostringstream OS(std::ios::binary);
  StapWriteOptions V1Compress;
  V1Compress.Version = 1;
  V1Compress.Compress = true;
  EXPECT_FALSE(writeStap(OS, Fix.A.tape(), Fix.A.registration(), {},
                         V1Compress)
                   .isOk());
  StapWriteOptions V1;
  V1.Version = 1;
  TapeMeta Meta;
  EXPECT_FALSE(
      writeStap(OS, Fix.A.tape(), Fix.A.registration(), {}, V1, &Meta)
          .isOk());
  StapWriteOptions Future;
  Future.Version = StapVersion + 1;
  EXPECT_FALSE(
      writeStap(OS, Fix.A.tape(), Fix.A.registration(), {}, Future).isOk());
}

TEST_F(TapeIOTest, V1FileLoadsBitIdenticallyToV2) {
  Recorded Fix;
  std::ostringstream Original;
  Fix.R.writeJson(Original);

  StapWriteOptions V1;
  V1.Version = 1;
  diag::Expected<LoadedTape> Loaded = load(bytesWith(Fix, V1));
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  EXPECT_EQ(Loaded.value().Version, 1u);
  EXPECT_FALSE(Loaded.value().Meta.has_value());

  Analysis B;
  ASSERT_TRUE(
      B.adopt(std::move(Loaded.value().T), Loaded.value().Reg).isOk());
  std::ostringstream Replayed;
  B.analyse().writeJson(Replayed);
  EXPECT_EQ(Original.str(), Replayed.str());
}

#ifdef SCORPIO_GOLDEN_DIR
/// The committed v1 fixture must stay byte-for-byte loadable forever:
/// the golden file is compared against today's Version=1 writer (so the
/// legacy write path cannot drift) and must load through the v2 reader
/// into the same re-analysis report as a fresh v2 serialization.
TEST_F(TapeIOTest, GoldenV1FixtureStaysLoadable) {
  Recorded Fix;
  StapWriteOptions V1;
  V1.Version = 1;
  const std::string Fresh = bytesWith(Fix, V1, nullptr,
                                      /*WithSignificance=*/true);
  const std::string Path = std::string(SCORPIO_GOLDEN_DIR) + "/tape_v1.stap";
  if (std::getenv("SCORPIO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream OS(Path, std::ios::binary);
    ASSERT_TRUE(OS.good()) << "cannot write " << Path;
    OS << Fresh;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream IS(Path, std::ios::binary);
  ASSERT_TRUE(IS.good()) << "missing golden " << Path
                         << " (set SCORPIO_UPDATE_GOLDENS=1 to create)";
  std::ostringstream Golden;
  Golden << IS.rdbuf();
  EXPECT_EQ(Golden.str(), Fresh)
      << "the Version=1 writer no longer reproduces the committed v1 "
         "fixture byte for byte";

  diag::Expected<LoadedTape> Loaded = load(Golden.str());
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  EXPECT_EQ(Loaded.value().Version, 1u);
  Analysis B;
  ASSERT_TRUE(
      B.adopt(std::move(Loaded.value().T), Loaded.value().Reg).isOk());
  std::ostringstream Original, Replayed;
  Fix.R.writeJson(Original);
  B.analyse().writeJson(Replayed);
  EXPECT_EQ(Original.str(), Replayed.str());
}
#endif // SCORPIO_GOLDEN_DIR

//===----------------------------------------------------------------------===//
// v2 trust boundary: compressed sections, flags, layout, schema
//===----------------------------------------------------------------------===//

TEST_F(TapeIOTest, CompressedByteFlipAtEveryPositionIsRejected) {
  Recorded Fix;
  TapeMeta Meta;
  Meta.ShardName = "flip";
  StapWriteOptions Opts;
  Opts.Compress = true;
  // All section kinds present (META + SIG included), all compressed
  // encodings eligible; the sweep covers the header and section table
  // too — the v2 whole-file checksum domain has no blind spot.
  const std::string Bytes =
      bytesWith(Fix, Opts, &Meta, /*WithSignificance=*/true);
  for (size_t Pos = 0; Pos != Bytes.size(); ++Pos) {
    std::string Tampered = Bytes;
    Tampered[Pos] = static_cast<char>(Tampered[Pos] ^ 0xFF);
    EXPECT_FALSE(load(Tampered).hasValue())
        << "accepted a compressed file with byte " << Pos << " flipped";
  }
}

TEST_F(TapeIOTest, CompressedTruncationAtEveryLengthIsRejected) {
  Recorded Fix;
  StapWriteOptions Opts;
  Opts.Compress = true;
  const std::string Bytes =
      bytesWith(Fix, Opts, nullptr, /*WithSignificance=*/true);
  for (size_t Len = 0; Len != Bytes.size(); ++Len)
    EXPECT_FALSE(load(Bytes.substr(0, Len)).hasValue())
        << "accepted a " << Len << "-byte prefix";
}

TEST_F(TapeIOTest, UnknownSectionFlagBitsAreRejected) {
  Recorded Fix;
  std::string Bytes = Fix.bytes();
  // First section-table entry: tag at 32, flags at 36.
  Bytes[36] = static_cast<char>(Bytes[36] | 4); // bit outside the mask
  refreshChecksum(Bytes);
  diag::Expected<LoadedTape> Loaded = load(Bytes);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.status().message().find("unknown section flags"),
            std::string::npos)
      << Loaded.status().message();
}

TEST_F(TapeIOTest, VarintFlagOnNonVarintSectionIsRejected) {
  Recorded Fix;
  std::string Bytes = Fix.bytes();
  // Second entry is VALS (writer emits OPS, VALS, EDGE, ...): flags at
  // 32 + 24 + 4.
  ASSERT_EQ(Bytes.compare(32 + 24, 4, "VALS"), 0);
  Bytes[32 + 24 + 4] = static_cast<char>(Bytes[32 + 24 + 4] | 1);
  refreshChecksum(Bytes);
  diag::Expected<LoadedTape> Loaded = load(Bytes);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.status().message().find("varint"), std::string::npos)
      << Loaded.status().message();
}

TEST_F(TapeIOTest, TrailingGarbageIsRejectedInBothVersions) {
  Recorded Fix;
  // v2: the appended bytes break the whole-file checksum, and even with
  // the checksum refreshed the layout check (file must end at the last
  // payload byte) rejects.
  std::string V2 = Fix.bytes() + "JUNK";
  EXPECT_FALSE(load(V2).hasValue());
  refreshChecksum(V2);
  diag::Expected<LoadedTape> L2 = load(V2);
  ASSERT_FALSE(L2.hasValue());
  EXPECT_NE(L2.status().message().find("section layout"), std::string::npos)
      << L2.status().message();

  // v1's payload-domain checksum cannot see trailing bytes at all; the
  // layout check is the only gate, and it must hold for v1 files too.
  StapWriteOptions V1;
  V1.Version = 1;
  const std::string V1Garbage = bytesWith(Fix, V1) + "JUNK";
  diag::Expected<LoadedTape> L1 = load(V1Garbage);
  ASSERT_FALSE(L1.hasValue());
  EXPECT_NE(L1.status().message().find("section layout"), std::string::npos)
      << L1.status().message();
}

TEST_F(TapeIOTest, ZeroSizeSectionOffsetFlipIsRejectedInV1) {
  // A zero-node tape's OPS/VALS/EDGE payloads are empty: under v1's
  // payload-domain checksum, their table offsets are invisible to the
  // hash.  The strict-layout rule (every offset exactly sequential) is
  // what rejects a flipped offset byte.
  verify::RawTape Empty;
  std::ostringstream OS(std::ios::binary);
  StapWriteOptions V1;
  V1.Version = 1;
  ASSERT_TRUE(writeStap(OS, Empty, TapeRegistration{}, {}, {}, V1).isOk());
  const std::string Bytes = OS.str();
  ASSERT_TRUE(load(Bytes).hasValue()) << "empty tape must round-trip";

  // First entry (OPS, zero size): offset field at 32 + 8.
  std::string Tampered = Bytes;
  Tampered[32 + 8] = static_cast<char>(Tampered[32 + 8] ^ 0x01);
  diag::Expected<LoadedTape> Loaded = load(Tampered);
  ASSERT_FALSE(Loaded.hasValue())
      << "offset flip on a zero-size section went undetected";
  EXPECT_NE(Loaded.status().message().find("offset"), std::string::npos)
      << Loaded.status().message();
}

TEST_F(TapeIOTest, SchemaHashMismatchIsRejected) {
  Recorded Fix;
  TapeMeta Meta;
  Meta.ShardName = "schema";
  std::string Bytes = bytesWith(Fix, {}, &Meta);
  // The META payload leads with the writing build's schema hash; find
  // its little-endian bytes and corrupt them.
  const uint64_t Hash = stapSchemaHash();
  std::string Needle(8, '\0');
  std::memcpy(Needle.data(), &Hash, 8);
  const size_t Pos = Bytes.find(Needle);
  ASSERT_NE(Pos, std::string::npos);
  Bytes[Pos] = static_cast<char>(Bytes[Pos] ^ 0xFF);
  refreshChecksum(Bytes);
  diag::Expected<LoadedTape> Loaded = load(Bytes);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.status().message().find("schema hash"), std::string::npos)
      << Loaded.status().message();
}

//===----------------------------------------------------------------------===//
// Failing sinks: no silent truncated .stap
//===----------------------------------------------------------------------===//

/// A sink that accepts \p Capacity bytes and then fails every further
/// write — the unbuffered essence of a disk filling up mid-save.
class LimitedSink : public std::streambuf {
public:
  explicit LimitedSink(size_t Capacity) : Remaining(Capacity) {}

protected:
  int_type overflow(int_type C) override {
    if (Remaining == 0 || C == traits_type::eof())
      return traits_type::eof();
    --Remaining;
    return C;
  }
  std::streamsize xsputn(const char *, std::streamsize N) override {
    const std::streamsize Written =
        std::min<std::streamsize>(N, static_cast<std::streamsize>(Remaining));
    Remaining -= static_cast<size_t>(Written);
    return Written; // short write once full
  }

private:
  size_t Remaining;
};

TEST_F(TapeIOTest, WriteToFailingSinkReturnsErrorStatus) {
  Recorded Fix;
  // Zero capacity: every write fails outright.
  {
    LimitedSink Sink(0);
    std::ostream OS(&Sink);
    const diag::Status S = writeStap(OS, Fix.A.tape(), Fix.A.registration());
    EXPECT_FALSE(S.isOk());
    EXPECT_EQ(S.code(), diag::ErrC::InvalidState);
  }
  // Disk fills partway through: the short write must surface, never a
  // silently truncated stream blessed with Status::ok().
  for (size_t Capacity : {1u, 32u, 100u}) {
    LimitedSink Sink(Capacity);
    std::ostream OS(&Sink);
    const diag::Status S = writeStap(OS, Fix.A.tape(), Fix.A.registration());
    EXPECT_FALSE(S.isOk()) << "capacity " << Capacity;
  }
}

TEST_F(TapeIOTest, SaveStapReportsUnwritablePathAndFullDisk) {
  Recorded Fix;
  const diag::Status S = saveStap(
      ::testing::TempDir() + "/no-such-dir-xyzzy/tape.stap", Fix.A.tape(),
      Fix.A.registration());
  EXPECT_FALSE(S.isOk());
  EXPECT_NE(S.message().find("cannot open"), std::string::npos)
      << S.message();

  // The classic full-disk device, where open succeeds and the flush is
  // what fails.  Only meaningful where /dev/full exists (Linux).
  if (std::ifstream("/dev/full").good()) {
    const diag::Status Full =
        saveStap("/dev/full", Fix.A.tape(), Fix.A.registration());
    EXPECT_FALSE(Full.isOk());
  }
}

//===----------------------------------------------------------------------===//
// Endianness tolerance: legacy big-endian files
//===----------------------------------------------------------------------===//

/// Reverses \p N bytes at \p Pos in place (scalar-field byte swap).
void swapAt(std::string &B, size_t Pos, size_t N) {
  ASSERT_LE(Pos + N, B.size());
  std::reverse(B.begin() + static_cast<ptrdiff_t>(Pos),
               B.begin() + static_cast<ptrdiff_t>(Pos + N));
}

uint64_t leAt(const std::string &B, size_t Pos, size_t N) {
  uint64_t V = 0;
  for (size_t I = 0; I != N; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(B[Pos + I])) << (8 * I);
  return V;
}

/// Rewrites an *uncompressed* canonical (little-endian) v2 .stap byte
/// string into what a legacy native-order writer on a big-endian
/// machine would have produced: every multi-byte scalar byte-swapped
/// (string characters untouched), checksum recomputed over the swapped
/// bytes and stored big-endian.  Walks the exact on-disk layout, so it
/// doubles as a layout pin: a new section or field that this helper
/// does not know breaks the tests loudly.
void byteSwapStapFile(std::string &B) {
  ASSERT_GE(B.size(), 56u); // header + at least one table entry
  const uint64_t NumNodes = leAt(B, 8, 8);
  const uint64_t NumSections = leAt(B, 16, 8);
  // Header: version, node count, section count (checksum is rewritten
  // at the end).
  swapAt(B, 4, 4);
  swapAt(B, 8, 8);
  swapAt(B, 16, 8);

  struct Entry {
    std::string Tag;
    uint64_t Offset, Size;
  };
  std::vector<Entry> Entries;
  for (uint64_t I = 0; I != NumSections; ++I) {
    const size_t At = 32 + static_cast<size_t>(I) * 24;
    Entries.push_back({B.substr(At, 4), leAt(B, At + 8, 8),
                       leAt(B, At + 16, 8)});
    swapAt(B, At, 4);      // tag (stored as a u32, so it swaps too)
    swapAt(B, At + 4, 4);  // flags
    swapAt(B, At + 8, 8);  // offset
    swapAt(B, At + 16, 8); // size
  }

  // Swaps a u32 length prefix and skips the (byte-order-free) chars.
  const auto SwapString = [&](size_t &Pos) {
    const uint64_t Len = leAt(B, Pos, 4);
    swapAt(B, Pos, 4);
    Pos += 4 + static_cast<size_t>(Len);
  };
  const auto SwapIdList = [&](size_t Pos) {
    const uint64_t Count = leAt(B, Pos, 8);
    swapAt(B, Pos, 8);
    Pos += 8;
    for (uint64_t I = 0; I != Count; ++I, Pos += 4)
      swapAt(B, Pos, 4);
  };
  const auto SwapNamedIds = [&](size_t &Pos) {
    const uint64_t Count = leAt(B, Pos, 8);
    swapAt(B, Pos, 8);
    Pos += 8;
    for (uint64_t I = 0; I != Count; ++I) {
      swapAt(B, Pos, 4); // NodeId
      Pos += 4;
      SwapString(Pos);
    }
  };

  for (const Entry &E : Entries) {
    size_t Pos = static_cast<size_t>(E.Offset);
    if (E.Tag == "OPS ") {
      for (uint64_t I = 0; I != NumNodes; ++I)
        swapAt(B, Pos + static_cast<size_t>(I) * 5 + 1, 4); // aux i32
    } else if (E.Tag == "VALS") {
      for (uint64_t I = 0; I != NumNodes * 2; ++I)
        swapAt(B, Pos + static_cast<size_t>(I) * 8, 8);
    } else if (E.Tag == "EDGE") {
      for (uint64_t I = 0; I != NumNodes; ++I) {
        const uint8_t NumArgs = static_cast<uint8_t>(B[Pos]);
        ++Pos;
        const unsigned Stored = NumArgs < 2 ? NumArgs : 2;
        for (unsigned A = 0; A != Stored; ++A) {
          swapAt(B, Pos, 4);     // arg id
          swapAt(B, Pos + 4, 8); // partial lo
          swapAt(B, Pos + 12, 8);
          Pos += 20;
        }
      }
    } else if (E.Tag == "INPT" || E.Tag == "OUTP") {
      SwapIdList(Pos);
    } else if (E.Tag == "META") {
      swapAt(B, Pos, 8); // schema hash
      swapAt(B, Pos + 8, 8);
      Pos += 16;
      SwapString(Pos);   // shard name
      Pos += 4;          // HasOptions/OutputMode/Metric u8s + ...
      swapAt(B, Pos - 1, 4); // BatchWidth u32 (after three u8s)
      Pos += 3 + 3;      // BatchWidth tail + three more u8 flags
      swapAt(B, Pos, 8); // Delta
      swapAt(B, Pos + 8, 8);
    } else if (E.Tag == "LABL") {
      SwapNamedIds(Pos);
    } else if (E.Tag == "VARS") {
      SwapNamedIds(Pos);
      SwapNamedIds(Pos);
      SwapNamedIds(Pos);
    } else if (E.Tag == "DIVG") {
      const uint64_t Count = leAt(B, Pos, 8);
      swapAt(B, Pos, 8);
      Pos += 8;
      for (uint64_t I = 0; I != Count; ++I)
        SwapString(Pos);
    } else if (E.Tag == "SIG ") {
      const uint64_t Count = leAt(B, Pos, 8);
      swapAt(B, Pos, 8);
      Pos += 8;
      for (uint64_t I = 0; I != Count; ++I, Pos += 8)
        swapAt(B, Pos, 8);
    } else {
      FAIL() << "byteSwapStapFile: unknown section tag '" << E.Tag << "'";
    }
  }

  // Checksum, as the legacy writer would have computed it: over the
  // native-order (now swapped) bytes with the field zeroed, stored in
  // native (big-endian) byte order.
  std::memset(B.data() + 24, 0, 8);
  uint64_t Hash = 14695981039346656037ULL;
  for (char C : B) {
    Hash ^= static_cast<uint8_t>(C);
    Hash *= 1099511628211ULL;
  }
  for (int I = 0; I != 8; ++I)
    B[24 + static_cast<size_t>(I)] =
        static_cast<char>((Hash >> (56 - 8 * I)) & 0xff);
}

TEST_F(TapeIOTest, ByteSwappedFileLoadsBitIdentically) {
  Recorded Fix;
  TapeMeta Meta;
  Meta.ShardName = "swapped";
  Meta.ShardIndex = 7;
  Meta.HasOptions = true;
  std::string Bytes = bytesWith(Fix, {}, &Meta, /*WithSignificance=*/true);
  byteSwapStapFile(Bytes);
  ASSERT_NE(Bytes, bytesWith(Fix, {}, &Meta, true)); // actually swapped

  diag::Expected<LoadedTape> Loaded = load(Bytes);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  EXPECT_EQ(Loaded.value().Version, 2u);
  ASSERT_TRUE(Loaded.value().Meta.has_value());
  EXPECT_EQ(Loaded.value().Meta->ShardName, "swapped");
  EXPECT_EQ(Loaded.value().Meta->ShardIndex, 7u);
  EXPECT_EQ(Loaded.value().Significance.size(), Fix.A.tape().size());

  Analysis B;
  ASSERT_TRUE(
      B.adopt(std::move(Loaded.value().T), Loaded.value().Reg).isOk());
  std::ostringstream Original, Replayed;
  Fix.R.writeJson(Original);
  B.analyse().writeJson(Replayed);
  EXPECT_EQ(Original.str(), Replayed.str());
}

TEST_F(TapeIOTest, ByteSwappedFileReserializesCanonically) {
  // Loading a legacy big-endian file and re-saving it must produce the
  // canonical little-endian bytes — the repair path for old tapes.
  Recorded Fix;
  const std::string Canonical = bytesWith(Fix, {});
  std::string Swapped = Canonical;
  byteSwapStapFile(Swapped);

  diag::Expected<LoadedTape> Loaded = load(Swapped);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  Analysis B;
  ASSERT_TRUE(
      B.adopt(std::move(Loaded.value().T), Loaded.value().Reg).isOk());
  std::ostringstream OS(std::ios::binary);
  ASSERT_TRUE(writeStap(OS, B.tape(), B.registration()).isOk());
  EXPECT_EQ(OS.str(), Canonical);
}

TEST_F(TapeIOTest, ByteSwappedCompressedFileIsRejected) {
  // The section codecs are defined over canonical little-endian
  // payloads, so a legacy big-endian *compressed* file is unreadable by
  // construction and must be refused with a diagnosis, not mis-decoded.
  Recorded Fix;
  StapWriteOptions Compress;
  Compress.Compress = true;
  std::string Bytes = bytesWith(Fix, Compress);
  // Swap only the header and section table (the flags check fires
  // before any payload is touched, so payload bytes stay as they are).
  const uint64_t NumSections = leAt(Bytes, 16, 8);
  swapAt(Bytes, 4, 4);
  swapAt(Bytes, 8, 8);
  swapAt(Bytes, 16, 8);
  bool AnyCompressed = false;
  for (uint64_t I = 0; I != NumSections; ++I) {
    const size_t At = 32 + static_cast<size_t>(I) * 24;
    AnyCompressed |= leAt(Bytes, At + 4, 4) != 0;
    swapAt(Bytes, At, 4);
    swapAt(Bytes, At + 4, 4);
    swapAt(Bytes, At + 8, 8);
    swapAt(Bytes, At + 16, 8);
  }
  ASSERT_TRUE(AnyCompressed); // the fixture must actually compress
  diag::Expected<LoadedTape> Loaded = load(Bytes);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.status().message().find("byte-swapped"),
            std::string::npos)
      << Loaded.status().message();
}

#ifdef SCORPIO_GOLDEN_DIR
/// The committed byte-swapped fixture pins the legacy big-endian
/// layout: it must regenerate bit-identically from the deterministic
/// fixture (so the swap helper and the writer cannot drift apart) and
/// load into the same re-analysis report as the canonical file.
TEST_F(TapeIOTest, GoldenByteSwappedFixtureStaysLoadable) {
  Recorded Fix;
  TapeMeta Meta;
  Meta.ShardName = "golden-be";
  Meta.ShardIndex = 1;
  std::string Fresh = bytesWith(Fix, {}, &Meta, /*WithSignificance=*/true);
  byteSwapStapFile(Fresh);

  const std::string Path = std::string(SCORPIO_GOLDEN_DIR) + "/tape_be.stap";
  if (std::getenv("SCORPIO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream OS(Path, std::ios::binary);
    ASSERT_TRUE(OS.good()) << "cannot write " << Path;
    OS << Fresh;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream IS(Path, std::ios::binary);
  ASSERT_TRUE(IS.good()) << "missing golden " << Path
                         << " (set SCORPIO_UPDATE_GOLDENS=1 to create)";
  std::ostringstream Golden;
  Golden << IS.rdbuf();
  EXPECT_EQ(Golden.str(), Fresh)
      << "the byte-swap layout no longer reproduces the committed "
         "big-endian fixture";

  diag::Expected<LoadedTape> Loaded = load(Golden.str());
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  ASSERT_TRUE(Loaded.value().Meta.has_value());
  EXPECT_EQ(Loaded.value().Meta->ShardName, "golden-be");
  Analysis B;
  ASSERT_TRUE(
      B.adopt(std::move(Loaded.value().T), Loaded.value().Reg).isOk());
  std::ostringstream Original, Replayed;
  Fix.R.writeJson(Original);
  B.analyse().writeJson(Replayed);
  EXPECT_EQ(Original.str(), Replayed.str());
}
#endif // SCORPIO_GOLDEN_DIR

//===----------------------------------------------------------------------===//
// The decoder against the recorder: bitwise differential and hostile
// bytes behind a valid checksum
//===----------------------------------------------------------------------===//

/// One registry kernel recorded on its default box, with per-node
/// significances, a divergence note and shard META: every section the
/// writer can emit.
struct KernelShard {
  Analysis A;
  std::vector<double> Sig;
  TapeMeta Meta;

  KernelShard(const KernelDescriptor &K, size_t Index) {
    K.Analyse(A, K.DefaultRanges);
    const AnalysisResult R = A.analyse();
    for (size_t I = 0; I != A.tape().size(); ++I)
      Sig.push_back(R.significanceOf(static_cast<NodeId>(I)));
    A.tape().noteDivergence(K.Name + ": differential probe");
    Meta = makeShardMeta(K.Name, Index, AnalysisOptions());
  }

  /// The shard's bytes; META rides along where the version has it.
  std::string bytes(const StapWriteOptions &Opts) {
    std::ostringstream OS(std::ios::binary);
    const diag::Status S =
        writeStap(OS, A.tape(), A.registration(), Sig, Opts,
                  Opts.Version >= 2 ? &Meta : nullptr);
    EXPECT_TRUE(S.isOk()) << S.message();
    return OS.str();
  }
};

/// Every writer configuration: v2 raw, v2 compressed, v1.
std::vector<StapWriteOptions> writerConfigs() {
  StapWriteOptions Raw, Compressed, V1;
  Compressed.Compress = true;
  V1.Version = 1;
  return {Raw, Compressed, V1};
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Asserts that \p Got carries exactly \p Want's tape, registration,
/// significances and META, every double compared bit for bit.
void expectSameLoad(const LoadedTape &Got, const Tape &Want,
                    const TapeRegistration &WantReg,
                    const std::vector<double> &WantSig,
                    const TapeMeta *WantMeta, const std::string &What) {
  const Tape &T = Got.T;
  ASSERT_EQ(T.size(), Want.size()) << What;
  for (NodeId Id = 0; Id != static_cast<NodeId>(T.size()); ++Id) {
    SCOPED_TRACE(What + ", node " + std::to_string(Id));
    EXPECT_EQ(T.kind(Id), Want.kind(Id));
    EXPECT_EQ(T.auxInt(Id), Want.auxInt(Id));
    EXPECT_TRUE(sameBits(T.value(Id).lower(), Want.value(Id).lower()));
    EXPECT_TRUE(sameBits(T.value(Id).upper(), Want.value(Id).upper()));
    EXPECT_TRUE(T.adjoint(Id) == Interval(0.0));
    ASSERT_EQ(T.numArgs(Id), Want.numArgs(Id));
    for (unsigned A = 0; A != T.numArgs(Id); ++A) {
      EXPECT_EQ(T.arg(Id, A), Want.arg(Id, A));
      EXPECT_TRUE(
          sameBits(T.partial(Id, A).lower(), Want.partial(Id, A).lower()));
      EXPECT_TRUE(
          sameBits(T.partial(Id, A).upper(), Want.partial(Id, A).upper()));
    }
  }
  EXPECT_EQ(T.inputs(), Want.inputs()) << What;
  EXPECT_EQ(T.divergences(), Want.divergences()) << What;
  EXPECT_EQ(Got.Reg.Outputs, WantReg.Outputs) << What;
  EXPECT_EQ(Got.Reg.Labels, WantReg.Labels) << What;
  EXPECT_EQ(Got.Reg.InputVars, WantReg.InputVars) << What;
  EXPECT_EQ(Got.Reg.IntermediateVars, WantReg.IntermediateVars) << What;
  EXPECT_EQ(Got.Reg.OutputVars, WantReg.OutputVars) << What;
  ASSERT_EQ(Got.Significance.size(), WantSig.size()) << What;
  for (size_t I = 0; I != WantSig.size(); ++I)
    EXPECT_TRUE(sameBits(Got.Significance[I], WantSig[I]))
        << What << ", significance " << I;
  ASSERT_EQ(Got.Meta.has_value(), WantMeta != nullptr) << What;
  if (!WantMeta)
    return;
  const TapeMeta &M = *Got.Meta;
  EXPECT_EQ(M.SchemaHash, stapSchemaHash()) << What;
  EXPECT_EQ(M.ShardIndex, WantMeta->ShardIndex) << What;
  EXPECT_EQ(M.ShardName, WantMeta->ShardName) << What;
  EXPECT_EQ(M.HasOptions, WantMeta->HasOptions) << What;
  EXPECT_EQ(M.OutputMode, WantMeta->OutputMode) << What;
  EXPECT_EQ(M.Metric, WantMeta->Metric) << What;
  EXPECT_EQ(M.BatchWidth, WantMeta->BatchWidth) << What;
  EXPECT_EQ(M.Simplify, WantMeta->Simplify) << What;
  EXPECT_EQ(M.BuildGraph, WantMeta->BuildGraph) << What;
  EXPECT_EQ(M.VerifyTape, WantMeta->VerifyTape) << What;
  EXPECT_TRUE(sameBits(M.Delta, WantMeta->Delta)) << What;
  EXPECT_TRUE(sameBits(M.SignificanceCap, WantMeta->SignificanceCap))
      << What;
}

TEST_F(TapeIOTest, EveryKernelLoadsBitIdenticallyUnderEveryWriter) {
  const KernelRegistry &Registry = KernelRegistry::global();
  size_t Index = 0;
  for (const std::string &Name : Registry.names()) {
    KernelShard Shard(*Registry.find(Name), Index++);
    for (const StapWriteOptions &Opts : writerConfigs()) {
      const std::string What = Name + " (v" + std::to_string(Opts.Version) +
                               (Opts.Compress ? ", compressed)" : ")");
      const std::string Bytes = Shard.bytes(Opts);
      diag::Expected<LoadedTape> Loaded = readStap(std::string_view(Bytes));
      ASSERT_TRUE(Loaded.hasValue())
          << What << ": " << Loaded.status().message();
      EXPECT_EQ(Loaded.value().Version, Opts.Version) << What;
      expectSameLoad(Loaded.value(), Shard.A.tape(), Shard.A.registration(),
                     Shard.Sig, Opts.Version >= 2 ? &Shard.Meta : nullptr,
                     What);
    }
  }
}

#ifdef SCORPIO_GOLDEN_DIR
TEST_F(TapeIOTest, GoldenFixturesLoadBitIdentically) {
  Recorded Fix;
  std::vector<double> Sig;
  for (size_t I = 0; I != Fix.A.tape().size(); ++I)
    Sig.push_back(Fix.R.significanceOf(static_cast<NodeId>(I)));
  TapeMeta BeMeta; // as GoldenByteSwappedFixtureStaysLoadable writes it
  BeMeta.ShardName = "golden-be";
  BeMeta.ShardIndex = 1;
  const std::string Dir = SCORPIO_GOLDEN_DIR;
  diag::Expected<LoadedTape> V1 = loadStap(Dir + "/tape_v1.stap");
  ASSERT_TRUE(V1.hasValue()) << V1.status().message();
  expectSameLoad(V1.value(), Fix.A.tape(), Fix.A.registration(), Sig, nullptr,
                 "tape_v1.stap");
  diag::Expected<LoadedTape> Be = loadStap(Dir + "/tape_be.stap");
  ASSERT_TRUE(Be.hasValue()) << Be.status().message();
  expectSameLoad(Be.value(), Fix.A.tape(), Fix.A.registration(), Sig,
                 &BeMeta, "tape_be.stap");
}
#endif // SCORPIO_GOLDEN_DIR

/// Little-endian field access for the structure-aware mutations below.
uint64_t getLe(const std::string &B, size_t Pos, size_t N) {
  uint64_t V = 0;
  for (size_t I = 0; I != N; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(B[Pos + I])) << (8 * I);
  return V;
}
void putLe(std::string &B, size_t Pos, uint64_t V, size_t N) {
  for (size_t I = 0; I != N; ++I)
    B[Pos + I] = static_cast<char>((V >> (8 * I)) & 0xFF);
}

/// Grows (with random bytes) or shrinks the payload of the section at
/// table entry \p Entry by |Delta| bytes at its end, and shifts every
/// later section's offset to match, so the layout check still passes.
void resizeSection(std::string &B, size_t Entry, int64_t Delta,
                   std::mt19937_64 &Rng) {
  const size_t PayloadsAt = 32 + static_cast<size_t>(getLe(B, 16, 8)) * 24;
  const uint64_t Size = getLe(B, Entry + 16, 8);
  if (Delta < 0 && static_cast<uint64_t>(-Delta) > Size)
    return;
  const size_t End = static_cast<size_t>(getLe(B, Entry + 8, 8) + Size);
  if (Delta < 0) {
    B.erase(End - static_cast<size_t>(-Delta), static_cast<size_t>(-Delta));
  } else {
    std::string Extra(static_cast<size_t>(Delta), '\0');
    for (char &C : Extra)
      C = static_cast<char>(Rng() & 0xFF);
    B.insert(End, Extra);
  }
  putLe(B, Entry + 16, Size + static_cast<uint64_t>(Delta), 8);
  for (size_t Later = Entry + 24; Later < PayloadsAt; Later += 24)
    putLe(B, Later + 8, getLe(B, Later + 8, 8) + static_cast<uint64_t>(Delta),
          8);
}

/// Applies one seeded, structure-aware mutation to a canonical .stap
/// byte string: a payload byte flip, a consistent section resize, a
/// size, offset, flags, node-count or section-count edit, an INPT list
/// that no longer names the Input nodes (an id dropped, or two
/// swapped), or a truncation.  The v2 checksum is re-stamped
/// afterwards, so the mutation reaches the gates behind it.
void mutate(std::string &B, std::mt19937_64 &Rng) {
  const auto Pick = [&](uint64_t N) { return N == 0 ? 0 : Rng() % N; };
  const uint64_t NumSections = getLe(B, 16, 8);
  const size_t PayloadsAt = 32 + static_cast<size_t>(NumSections) * 24;
  const size_t Entry = 32 + static_cast<size_t>(Pick(NumSections)) * 24;
  const int64_t Delta = static_cast<int64_t>(Pick(19)) - 9;
  switch (Pick(9)) {
  case 0: // payload byte flip
    if (B.size() > PayloadsAt) {
      const size_t Pos = PayloadsAt + Pick(B.size() - PayloadsAt);
      B[Pos] = static_cast<char>(B[Pos] ^ (1 + Pick(255)));
    }
    break;
  case 1: // consistent resize of one section
    resizeSection(B, Entry, Delta, Rng);
    break;
  case 2: // size edit alone
    putLe(B, Entry + 16, getLe(B, Entry + 16, 8) + static_cast<uint64_t>(Delta),
          8);
    break;
  case 3: // offset edit
    putLe(B, Entry + 8, getLe(B, Entry + 8, 8) + static_cast<uint64_t>(Delta),
          8);
    break;
  case 4: // codec flags: a raw payload read as RLE/varint and back
    putLe(B, Entry + 4, Pick(4), 4);
    break;
  case 5: { // node count
    const uint64_t N = getLe(B, 8, 8);
    const uint64_t Choices[] = {N + static_cast<uint64_t>(Delta), 0, 2 * N,
                                Rng() & 0xFFFFFFFFu, uint64_t{1} << 32};
    putLe(B, 8, Choices[Pick(std::size(Choices))], 8);
    break;
  }
  case 6: // section count
    putLe(B, 16, NumSections + static_cast<uint64_t>(Delta), 8);
    break;
  case 7: // an INPT list of Input nodes that is not the tape's own
    for (size_t E = 32; E < PayloadsAt; E += 24) {
      if (B.compare(E, 4, "INPT") != 0 || getLe(B, E + 4, 4) != 0)
        continue;
      const size_t At = static_cast<size_t>(getLe(B, E + 8, 8));
      const uint64_t Count = getLe(B, At, 8);
      if (Count >= 2 && Pick(2)) {
        std::swap_ranges(B.begin() + static_cast<ptrdiff_t>(At + 8),
                         B.begin() + static_cast<ptrdiff_t>(At + 12),
                         B.begin() + static_cast<ptrdiff_t>(At + 12));
      } else if (Count >= 1) {
        putLe(B, At, Count - 1, 8);
        resizeSection(B, E, -4, Rng);
      }
    }
    break;
  default: // truncation
    B.resize(static_cast<size_t>(Pick(B.size())));
    break;
  }
  if (B.size() >= 32)
    refreshChecksum(B);
}

TEST_F(TapeIOTest, SeededMutationsBehindTheChecksumNeverYieldABadTape) {
  constexpr int MutationsPerFile = 400;
  std::mt19937_64 Rng(0x57A9F00Du);
  size_t Loads = 0, Accepted = 0, GateRejected = 0;
  const KernelRegistry &Registry = KernelRegistry::global();
  size_t Index = 0;
  for (const std::string &Name : Registry.names()) {
    KernelShard Shard(*Registry.find(Name), Index++);
    for (const bool Compress : {false, true}) {
      StapWriteOptions Opts;
      Opts.Compress = Compress;
      const std::string Clean = Shard.bytes(Opts);
      for (int M = 0; M != MutationsPerFile; ++M) {
        std::string Bytes = Clean;
        mutate(Bytes, Rng);
        diag::Expected<LoadedTape> Loaded =
            readStap(std::string_view(Bytes));
        ++Loads;
        if (!Loaded.hasValue()) {
          EXPECT_FALSE(Loaded.status().message().empty());
          GateRejected +=
              Loaded.status().message().find("verifyStructure") !=
              std::string::npos;
          continue;
        }
        // Accepted: the tape must be well formed, and its input list
        // exactly its Input nodes.
        ++Accepted;
        const Tape &T = Loaded.value().T;
        const verify::VerifyReport Report = verify::verifyStructure(
            verify::extractRaw(T, Loaded.value().Reg.Outputs));
        EXPECT_FALSE(Report.hasErrors())
            << Name << (Compress ? " (compressed)" : "") << ", mutation "
            << M;
        std::vector<NodeId> InputNodes;
        for (NodeId Id = 0; Id != static_cast<NodeId>(T.size()); ++Id)
          if (T.kind(Id) == OpKind::Input)
            InputNodes.push_back(Id);
        EXPECT_EQ(T.inputs(), InputNodes)
            << Name << (Compress ? " (compressed)" : "") << ", mutation "
            << M;
      }
    }
  }
  std::cout << Loads << " mutated loads: " << Accepted << " accepted, "
            << GateRejected << " refused by the structural gate\n";
  // The mutations must reach past the checksum: some files load, and
  // some are refused only by the structural gate.
  EXPECT_EQ(Loads, Registry.size() * 2 * MutationsPerFile);
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(GateRejected, 0u);
}

} // namespace
