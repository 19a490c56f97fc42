//===- tape/TapeIO.h - Versioned .stap tape serialization -----------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `.stap` binary format: a recorded tape plus its registration
/// context (and optionally per-node significances) as a magic/version
/// header, a section table and one section per SoA chunk:
///
///   header   'STAP', format version, node count, section count,
///            FNV-1a64 checksum (see below for the per-version domain)
///   OPS      per node: op kind, integer exponent
///   VALS     per node: value enclosure bounds
///   EDGE     per node: recorded argument ids + partial bounds
///   INPT     the tape's input node list
///   OUTP     registered output nodes
///   META     shard identity + recording options + schema hash (v2)
///   LABL     NodeId -> user name map (optional)
///   VARS     registered input/intermediate/output variables (optional)
///   DIVG     divergence diagnostics (optional)
///   SIG      per-node significances (optional)
///
/// Two format versions are readable:
///
///  * **v1** (legacy): the flags word of every section-table entry is a
///    reserved must-be-zero pad, payloads are stored raw, and the header
///    checksum covers the concatenated section payloads in table order.
///  * **v2** (current): the flags word selects optional per-section
///    compression — bit 0 `varint` (delta/varint re-encoding, defined
///    for OPS and EDGE only), bit 1 `rle` (a generic literal-run/repeat
///    byte codec, any section; applied after varint when both are set).
///    Unknown flag bits are rejected.  The checksum domain is the
///    *entire file* with the checksum field itself taken as zero, so no
///    header or section-table byte is outside the hash.  v2 may carry a
///    META section (`TapeMeta`): shard name/index, the recording
///    `AnalysisOptions` (flattened) and a schema hash derived from the
///    wire-format strides and the op-kind count, so a merge can reject
///    shards recorded by an incompatible build.
///
/// Both versions are strict about layout: sections must be stored
/// contiguously in table order immediately after the table, and the
/// file must end exactly at the last payload byte — trailing garbage,
/// gaps and overlaps are rejected, which keeps every byte of the file
/// load-bearing (an offset flip on a zero-sized section cannot hide
/// from the checksum).
///
/// Integers and doubles are stored canonically in **little-endian**
/// byte order, whatever the writing host's native order — a `.stap`
/// written anywhere loads bit-identically everywhere, so heterogeneous
/// cluster nodes can exchange shards.  The reader additionally accepts
/// files from legacy native-order writers on big-endian machines: a
/// version field that only parses byte-swapped marks the file as
/// big-endian and every multi-byte field is swapped on read.  Such
/// legacy files must be uncompressed — the v2 codecs are defined over
/// canonical little-endian payloads, so a byte-swapped file carrying
/// compression flags is rejected, never mis-decoded.
///
/// The loader is a trust boundary: a `.stap` file may come from another
/// process, an older build, or an attacker, so a path is read only if
/// it names a regular file, every read is bounds-checked against the
/// section table, decompression output is capped by the codec's
/// worst-case expansion before any allocation, the checksum is
/// validated, and the decoded node stream must pass
/// `verify::verifyStructure` before a Tape is adopted from it (and
/// Tape::adopt re-checks the edge invariant on its own).  A file that
/// fails any gate is rejected with a structured `Status` — never
/// undefined behavior, and never a "repaired" tape.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_TAPE_TAPEIO_H
#define SCORPIO_TAPE_TAPEIO_H

#include "support/Diag.h"
#include "tape/Tape.h"
#include "verify/TapeVerifier.h"

#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scorpio {

/// The current .stap format version.
inline constexpr uint32_t StapVersion = 2;
/// The oldest version readStap still accepts.
inline constexpr uint32_t StapOldestReadableVersion = 1;

/// v2 section flags (the v1 reserved pad reinterpreted).
inline constexpr uint32_t StapSectionVarint = 1u; ///< OPS/EDGE delta+varint
inline constexpr uint32_t StapSectionRle = 2u;    ///< generic RLE byte codec
inline constexpr uint32_t StapSectionFlagMask =
    StapSectionVarint | StapSectionRle;

/// Hash of the wire schema this build writes and expects: the section
/// strides, the NodeId width and the op-kind count.  Two builds with
/// different op sets (or a future node layout change) produce different
/// hashes, so a merge refuses their shards instead of mis-decoding them.
/// Computed once per process; every later call returns the cached
/// value.
uint64_t stapSchemaHash();

/// Shard identity and recording context carried by a v2 META section.
/// The analysis options are flattened to plain fields (this header is
/// included by core/Analysis.h, so it cannot name AnalysisOptions);
/// core/ParallelAnalysis.h provides the conversions.
struct TapeMeta {
  /// stapSchemaHash() of the writing build.  readStap rejects files
  /// whose META hash differs from the running build's.
  uint64_t SchemaHash = 0;
  /// Shard registration index within its ParallelAnalysis run.
  uint64_t ShardIndex = 0;
  /// User-facing shard name ("tile_2_1"); may be empty.
  std::string ShardName;
  /// True when the option fields below are meaningful.
  bool HasOptions = false;
  /// Flattened AnalysisOptions of the recording process.
  uint8_t OutputMode = 0;       ///< AnalysisOptions::OutputMode
  uint8_t Metric = 0;           ///< AnalysisOptions::Metric
  uint32_t BatchWidth = 8;
  bool Simplify = true;
  bool BuildGraph = true;
  /// core::VerifyLevel as its wire byte (0 = Off, 1 = Structural,
  /// 2 = AbsInt).  Was a bool before the AbsInt level existed; the wire
  /// layout is unchanged (always one byte) and old readers reject
  /// values above the levels they know.
  uint8_t VerifyTape = 0;
  double Delta = 1e-3;
  double SignificanceCap = 1e300;
};

/// Registration context of a tape: everything an Analysis knows beyond
/// the node stream itself.  Serialized alongside the tape so a reloaded
/// analysis reproduces the original's reports verbatim.
struct TapeRegistration {
  /// Registered output nodes, in registration order.
  std::vector<NodeId> Outputs;
  /// NodeId -> user-facing name for every registered variable.
  std::map<NodeId, std::string> Labels;
  /// (node, name) per registered input/intermediate/output, in
  /// registration order.
  std::vector<std::pair<NodeId, std::string>> InputVars;
  std::vector<std::pair<NodeId, std::string>> IntermediateVars;
  std::vector<std::pair<NodeId, std::string>> OutputVars;
};

/// Writer knobs.  The defaults produce an uncompressed v2 file; set
/// Version = 1 to emit the legacy container byte-identically to the v1
/// writer (compression and META are v2-only and rejected under v1).
struct StapWriteOptions {
  uint32_t Version = StapVersion;
  /// Per-section compression: each section is stored in whichever
  /// admissible encoding (raw / varint / rle / varint+rle) is smallest,
  /// chosen deterministically.
  bool Compress = false;
};

/// Writes \p T with registration \p Reg (and, when non-empty, one
/// significance per node) to \p OS in .stap format.  \p Meta, when
/// non-null, is embedded as the META section (its SchemaHash field is
/// overwritten with the running build's hash).
diag::Status writeStap(std::ostream &OS, const Tape &T,
                       const TapeRegistration &Reg,
                       std::span<const double> Significance = {},
                       const StapWriteOptions &Options = {},
                       const TapeMeta *Meta = nullptr);

/// Raw-view writer: serializes an arbitrary (possibly defective)
/// verify::RawTape.  This is the mutation-test seam — the recording API
/// cannot construct a malformed tape, but the loader's acceptance gate
/// must be shown to reject one.  \p Reg.Outputs is ignored in favor of
/// \p Raw.Outputs.
diag::Status writeStap(std::ostream &OS, const verify::RawTape &Raw,
                       const TapeRegistration &Reg,
                       std::span<const double> Significance = {},
                       std::span<const std::string> Divergences = {},
                       const StapWriteOptions &Options = {},
                       const TapeMeta *Meta = nullptr);

/// Writes \p T to the file at \p Path.  The stream is flushed and
/// closed before returning: a full disk or failing sink yields an error
/// Status, never a silently truncated file.
diag::Status saveStap(const std::string &Path, const Tape &T,
                      const TapeRegistration &Reg,
                      std::span<const double> Significance = {},
                      const StapWriteOptions &Options = {},
                      const TapeMeta *Meta = nullptr);

/// A successfully loaded and verified .stap file.
struct LoadedTape {
  Tape T;
  TapeRegistration Reg;
  /// Per-node significances when the file carried a SIG section;
  /// empty otherwise.
  std::vector<double> Significance;
  /// Shard/transport metadata when the file carried a META section.
  std::optional<TapeMeta> Meta;
  /// The format version of the file this tape was decoded from.
  uint32_t Version = 0;
};

/// Parses, validates and verifies the .stap file held in \p Bytes: the
/// core decoder every other entry point forwards to.  Returns the
/// loaded tape, or the Status naming the first gate the file failed
/// (malformed header, out-of-bounds section, checksum mismatch, codec
/// violation, a verify::verifyStructure structural error, or schema
/// mismatch).
///
/// One decode pass: sections are indexed in a fixed per-tag array of
/// views into \p Bytes, uncompressed payloads are parsed in place, RLE
/// payloads decode into one reused scratch buffer, and the varint codecs
/// write straight into the verify::RawTape the gate checks.  The gated
/// nodes then become the Tape through Tape::adopt, which re-checks the
/// edge invariant; nothing is re-recorded.
diag::Expected<LoadedTape> readStap(std::string_view Bytes);

/// Reads \p IS to its end once and decodes the bytes as above.
diag::Expected<LoadedTape> readStap(std::istream &IS);

/// Loads the .stap file at \p Path: one whole-file read
/// (readRegularFile, support/FileIO.h), then readStap.  A path that
/// names no regular file (a FIFO, a directory) is an error naming the
/// path, never a blocking open.
diag::Expected<LoadedTape> loadStap(const std::string &Path);

} // namespace scorpio

#endif // SCORPIO_TAPE_TAPEIO_H
