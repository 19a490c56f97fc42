//===- tape/TapeIO.cpp - Versioned .stap tape serialization ---------------===//

#include "tape/TapeIO.h"

#include "support/FileIO.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <type_traits>

using namespace scorpio;
using namespace scorpio::diag;

namespace {

constexpr char Magic[4] = {'S', 'T', 'A', 'P'};

constexpr uint32_t fourCC(char A, char B, char C, char D) {
  return static_cast<uint32_t>(static_cast<uint8_t>(A)) |
         static_cast<uint32_t>(static_cast<uint8_t>(B)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(C)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(D)) << 24;
}

constexpr uint32_t TagOps = fourCC('O', 'P', 'S', ' ');
constexpr uint32_t TagVals = fourCC('V', 'A', 'L', 'S');
constexpr uint32_t TagEdge = fourCC('E', 'D', 'G', 'E');
constexpr uint32_t TagInpt = fourCC('I', 'N', 'P', 'T');
constexpr uint32_t TagOutp = fourCC('O', 'U', 'T', 'P');
constexpr uint32_t TagMeta = fourCC('M', 'E', 'T', 'A');
constexpr uint32_t TagLabl = fourCC('L', 'A', 'B', 'L');
constexpr uint32_t TagVars = fourCC('V', 'A', 'R', 'S');
constexpr uint32_t TagDivg = fourCC('D', 'I', 'V', 'G');
constexpr uint32_t TagSig = fourCC('S', 'I', 'G', ' ');

/// Per-node strides of the fixed-stride sections and the per-argument
/// stride of EDGE; the loader pins attacker-controlled counts against
/// these before allocating.
constexpr uint64_t OpsStride = 5;   // kind u8 + aux exponent i32
constexpr uint64_t ValsStride = 16; // lower/upper doubles
constexpr uint64_t EdgeArgStride = 20; // NodeId i32 + partial lo/hi doubles

std::string tagName(uint32_t Tag) {
  std::string S(4, ' ');
  // fourCC packs the first character into the low byte; emit LSB-first
  // so the name prints identically on any host.
  for (int I = 0; I != 4; ++I)
    S[static_cast<size_t>(I)] =
        static_cast<char>((Tag >> (8 * I)) & 0xFF);
  while (!S.empty() && S.back() == ' ')
    S.pop_back();
  return S;
}

uint64_t fnv1a64(const char *Data, size_t Size, uint64_t Hash) {
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= static_cast<uint8_t>(Data[I]);
    Hash *= 1099511628211ULL;
  }
  return Hash;
}
constexpr uint64_t Fnv1aBasis = 14695981039346656037ULL;

//===----------------------------------------------------------------------===//
// Endianness
//
// The canonical on-disk byte order is little-endian: the writer swaps
// every multi-byte field on big-endian hosts (a no-op on the little-
// endian machines every existing .stap came from), and the reader
// converts file order to host order.  Codecs operate on the canonical
// raw payloads, so compressed sections are host-independent too.
//===----------------------------------------------------------------------===//

constexpr bool HostIsLittleEndian =
    std::endian::native == std::endian::little;

/// std::byteswap is C++23; this is the classic byte-reversal for any
/// trivially copyable scalar (doubles included).
template <typename T> T byteswapped(T V) {
  static_assert(std::is_trivially_copyable_v<T>);
  char B[sizeof(T)];
  std::memcpy(B, &V, sizeof(T));
  for (size_t I = 0; I != sizeof(T) / 2; ++I)
    std::swap(B[I], B[sizeof(T) - 1 - I]);
  std::memcpy(&V, B, sizeof(T));
  return V;
}

/// Host value -> canonical little-endian file value (identity on LE
/// hosts).
template <typename T> T toLittleEndian(T V) {
  if constexpr (sizeof(T) > 1)
    if (!HostIsLittleEndian)
      return byteswapped(V);
  return V;
}

/// Appends POD values to a byte buffer, multi-byte scalars in canonical
/// little-endian order (byte arrays such as the magic pass through
/// verbatim).
class ByteWriter {
public:
  template <typename T> void put(const T &V) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t At = Buf.size();
    Buf.resize(At + sizeof(T));
    if constexpr (std::is_arithmetic_v<T>) {
      const T C = toLittleEndian(V);
      std::memcpy(Buf.data() + At, &C, sizeof(T));
    } else {
      std::memcpy(Buf.data() + At, &V, sizeof(T));
    }
  }
  void putString(const std::string &S) {
    put(static_cast<uint32_t>(S.size()));
    Buf.append(S);
  }
  const std::string &bytes() const { return Buf; }

private:
  std::string Buf;
};

/// Bounds-checked POD reader over one section's payload.  Any read past
/// the end latches the failure flag and yields zeroes, so parsing code
/// can run straight-line and test ok() once.  \p FileBigEndian converts
/// a legacy big-endian file's multi-byte fields to host order (the
/// default reads canonical little-endian files on any host).
class Cursor {
public:
  Cursor(const char *Data, size_t Size, bool FileBigEndian = false)
      : Data(Data), Size(Size), FileBigEndian(FileBigEndian) {}

  template <typename T> T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T V{};
    if (Pos + sizeof(T) > Size || !Ok) {
      Ok = false;
      return V;
    }
    std::memcpy(&V, Data + Pos, sizeof(T));
    Pos += sizeof(T);
    if constexpr (std::is_arithmetic_v<T> && sizeof(T) > 1)
      if (FileBigEndian == HostIsLittleEndian)
        V = byteswapped(V);
    return V;
  }
  bool getString(std::string &Out) {
    const uint32_t Len = get<uint32_t>();
    if (!Ok || Pos + Len > Size) {
      Ok = false;
      return false;
    }
    Out.assign(Data + Pos, Len);
    Pos += Len;
    return true;
  }
  bool ok() const { return Ok; }
  bool atEnd() const { return Ok && Pos == Size; }

private:
  const char *Data;
  size_t Size;
  size_t Pos = 0;
  bool Ok = true;
  bool FileBigEndian = false;
};

//===----------------------------------------------------------------------===//
// v2 section codecs
//===----------------------------------------------------------------------===//

/// LEB128-style base-128 varint.
void putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7F) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

bool getVarint(const char *Data, size_t Size, size_t &Pos, uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64 && Pos < Size; Shift += 7) {
    const uint8_t B = static_cast<uint8_t>(Data[Pos++]);
    V |= static_cast<uint64_t>(B & 0x7F) << Shift;
    if (!(B & 0x80))
      return true;
  }
  return false;
}

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}
int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

/// RLE token stream: a control byte C < 0x80 copies the next C+1
/// literal bytes; C >= 0x80 repeats the next byte (C - 0x80) + 3 times
/// (runs of 3..130).  Worst-case expansion of the *decoder* is 65x (a
/// 2-byte repeat token yields at most 130 bytes), which bounds the
/// allocation a hostile stored size can demand.
constexpr uint64_t RleMaxExpansion = 65;

std::string rleCompress(const std::string &Raw) {
  std::string Out;
  const size_t N = Raw.size();
  size_t I = 0;
  while (I < N) {
    size_t Run = 1;
    while (I + Run < N && Raw[I + Run] == Raw[I] && Run < 130)
      ++Run;
    if (Run >= 3) {
      Out.push_back(static_cast<char>(0x80 + (Run - 3)));
      Out.push_back(Raw[I]);
      I += Run;
      continue;
    }
    const size_t Start = I;
    size_t Lit = 0;
    while (I < N && Lit < 128) {
      if (I + 2 < N && Raw[I + 1] == Raw[I] && Raw[I + 2] == Raw[I])
        break;
      ++I;
      ++Lit;
    }
    Out.push_back(static_cast<char>(Lit - 1));
    Out.append(Raw, Start, Lit);
  }
  return Out;
}

/// Decodes an RLE token stream into \p Out, which holds exactly the
/// RawSize bytes the stream must produce.  Fails on a truncated token,
/// on output past RawSize and on a stream that ends short of it.
bool rleDecompress(const char *Data, size_t Size, char *Out, size_t RawSize) {
  size_t I = 0, O = 0;
  while (I < Size) {
    const uint8_t C = static_cast<uint8_t>(Data[I++]);
    if (C < 0x80) {
      const size_t Lit = static_cast<size_t>(C) + 1;
      if (I + Lit > Size || O + Lit > RawSize)
        return false;
      std::memcpy(Out + O, Data + I, Lit);
      I += Lit;
      O += Lit;
    } else {
      if (I >= Size)
        return false;
      const size_t Rep = static_cast<size_t>(C - 0x80) + 3;
      if (O + Rep > RawSize)
        return false;
      std::memset(Out + O, Data[I++], Rep);
      O += Rep;
    }
  }
  return O == RawSize;
}

/// OPS varint layout: [NumNodes kind bytes][NumNodes zigzag varints of
/// the aux exponent].  Grouping the kinds lets the RLE stage exploit
/// op-kind repetition that the interleaved raw stride hides.
std::string varintEncodeOps(const std::string &Raw, size_t NumNodes) {
  std::string Out;
  Out.reserve(NumNodes * 2);
  for (size_t I = 0; I != NumNodes; ++I)
    Out.push_back(Raw[I * OpsStride]);
  for (size_t I = 0; I != NumNodes; ++I) {
    // The raw payload holds canonical little-endian bytes; convert to a
    // host value so the zigzag deltas are host-independent.
    int32_t Aux = 0;
    std::memcpy(&Aux, Raw.data() + I * OpsStride + 1, 4);
    Aux = toLittleEndian(Aux);
    putVarint(Out, zigzag(Aux));
  }
  return Out;
}

/// EDGE varint layout: [NumNodes arg-count bytes][one zigzag varint per
/// argument: consumer index minus argument id (small positive numbers
/// for the back-references every well-formed tape consists of)][raw
/// partial-bound doubles, 16 bytes per argument].
std::string varintEncodeEdge(const std::string &Raw, size_t NumNodes) {
  std::string Counts, Deltas, Partials;
  Counts.reserve(NumNodes);
  size_t Pos = 0;
  for (size_t I = 0; I != NumNodes; ++I) {
    const uint8_t NumArgs = static_cast<uint8_t>(Raw[Pos++]);
    Counts.push_back(static_cast<char>(NumArgs));
    const unsigned Stored = NumArgs < 2 ? NumArgs : 2;
    for (unsigned A = 0; A != Stored; ++A) {
      int32_t Arg = 0;
      std::memcpy(&Arg, Raw.data() + Pos, 4);
      Arg = toLittleEndian(Arg); // canonical bytes -> host value
      Pos += 4;
      putVarint(Deltas, zigzag(static_cast<int64_t>(I) - Arg));
      Partials.append(Raw, Pos, 16);
      Pos += 16;
    }
  }
  return Counts + Deltas + Partials;
}

struct SectionOut {
  uint32_t Tag;
  uint32_t Flags = 0;
  std::string Payload;
};

/// Stores \p S in whichever admissible encoding is smallest.  Candidate
/// order (raw, varint, rle, varint+rle) breaks ties deterministically
/// toward the simpler encoding; a section only gains a flag when that
/// strictly shrinks it.
void compressSection(SectionOut &S, size_t NumNodes) {
  const bool VarintOk = S.Tag == TagOps || S.Tag == TagEdge;
  std::string Varint;
  if (VarintOk)
    Varint = S.Tag == TagOps ? varintEncodeOps(S.Payload, NumNodes)
                             : varintEncodeEdge(S.Payload, NumNodes);
  const auto Rle = [](const std::string &In) {
    std::string Stored;
    const uint64_t RawSize = toLittleEndian<uint64_t>(In.size());
    Stored.append(reinterpret_cast<const char *>(&RawSize), 8);
    Stored += rleCompress(In);
    return Stored;
  };
  std::string Best = S.Payload;
  uint32_t BestFlags = 0;
  const auto Consider = [&](uint32_t Flags, std::string Cand) {
    if (Cand.size() < Best.size()) {
      Best = std::move(Cand);
      BestFlags = Flags;
    }
  };
  if (VarintOk)
    Consider(StapSectionVarint, Varint);
  Consider(StapSectionRle, Rle(S.Payload));
  if (VarintOk)
    Consider(StapSectionVarint | StapSectionRle, Rle(Varint));
  S.Payload = std::move(Best);
  S.Flags = BestFlags;
}

Status stapError(std::string Message) {
  return Status::error(ErrC::InvalidArgument, "stap: " + std::move(Message));
}

//===----------------------------------------------------------------------===//
// Raw payload builders
//===----------------------------------------------------------------------===//

std::string opsPayload(const verify::RawTape &Raw) {
  ByteWriter W;
  for (const verify::RawNode &N : Raw.Nodes) {
    W.put(static_cast<uint8_t>(N.Kind));
    W.put(N.AuxInt);
  }
  return W.bytes();
}

std::string valsPayload(const verify::RawTape &Raw) {
  ByteWriter W;
  for (const verify::RawNode &N : Raw.Nodes) {
    W.put(N.ValueLo);
    W.put(N.ValueHi);
  }
  return W.bytes();
}

std::string edgePayload(const verify::RawTape &Raw) {
  ByteWriter W;
  for (const verify::RawNode &N : Raw.Nodes) {
    W.put(N.NumArgs);
    for (unsigned A = 0; A != N.NumArgs && A != 2; ++A) {
      W.put(N.Args[A]);
      W.put(N.PartialLo[A]);
      W.put(N.PartialHi[A]);
    }
  }
  return W.bytes();
}

std::string idListPayload(const std::vector<NodeId> &Ids) {
  ByteWriter W;
  W.put(static_cast<uint64_t>(Ids.size()));
  for (NodeId Id : Ids)
    W.put(Id);
  return W.bytes();
}

void putNamedIds(ByteWriter &W,
                 const std::vector<std::pair<NodeId, std::string>> &List) {
  W.put(static_cast<uint64_t>(List.size()));
  for (const auto &[Id, Name] : List) {
    W.put(Id);
    W.putString(Name);
  }
}

std::string metaPayload(const TapeMeta &Meta) {
  ByteWriter W;
  W.put(stapSchemaHash()); // always the writing build's hash
  W.put(Meta.ShardIndex);
  W.putString(Meta.ShardName);
  W.put(static_cast<uint8_t>(Meta.HasOptions ? 1 : 0));
  W.put(Meta.OutputMode);
  W.put(Meta.Metric);
  W.put(Meta.BatchWidth);
  W.put(static_cast<uint8_t>(Meta.Simplify ? 1 : 0));
  W.put(static_cast<uint8_t>(Meta.BuildGraph ? 1 : 0));
  W.put(Meta.VerifyTape); // the VerifyLevel wire byte, not a bool
  static_assert(sizeof(Meta.VerifyTape) == 1,
                "META layout fixes VerifyTape at one byte");
  W.put(Meta.Delta);
  W.put(Meta.SignificanceCap);
  return W.bytes();
}

Status writeSections(std::ostream &OS, size_t NumNodes,
                     std::vector<SectionOut> &Sections,
                     const StapWriteOptions &Options) {
  ByteWriter Header;
  Header.put(Magic);
  Header.put(Options.Version);
  Header.put(static_cast<uint64_t>(NumNodes));
  Header.put(static_cast<uint64_t>(Sections.size()));
  const size_t ChecksumAt = Header.bytes().size();
  Header.put(static_cast<uint64_t>(0)); // patched below

  // Section table: tag, flags (v1: reserved zero), absolute offset,
  // stored size.  Layout is strictly sequential — the reader enforces
  // it, so the writer has no freedom here.
  uint64_t Offset = Header.bytes().size() + Sections.size() * 24;
  ByteWriter Table;
  for (const SectionOut &S : Sections) {
    Table.put(S.Tag);
    Table.put(S.Flags);
    Table.put(Offset);
    Table.put(static_cast<uint64_t>(S.Payload.size()));
    Offset += S.Payload.size();
  }

  std::string File = Header.bytes();
  File += Table.bytes();
  for (const SectionOut &S : Sections)
    File += S.Payload;

  // v1 hashes the concatenated payloads only; v2 hashes the whole file
  // with the checksum field taken as zero, so header and section-table
  // bytes have no blind spot the payload hash cannot see.
  uint64_t Checksum = Fnv1aBasis;
  if (Options.Version >= 2)
    Checksum = fnv1a64(File.data(), File.size(), Fnv1aBasis);
  else
    for (const SectionOut &S : Sections)
      Checksum = fnv1a64(S.Payload.data(), S.Payload.size(), Checksum);
  Checksum = toLittleEndian(Checksum); // stored canonically like every field
  std::memcpy(File.data() + ChecksumAt, &Checksum, 8);

  OS.write(File.data(), static_cast<std::streamsize>(File.size()));
  OS.flush();
  SCORPIO_REQUIRE(OS.good(), ErrC::InvalidState,
                  "writeStap: output stream write failed",
                  Status::error(ErrC::InvalidState,
                                "writeStap: output stream write failed"));
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Reader
//
// readStap views the file in place: the section index is a fixed array
// of views into the file, an uncompressed payload is parsed where it
// lies, an RLE payload decodes into one reused scratch buffer, and the
// OPS/EDGE varint codecs write straight into the RawNodes the gate
// checks.
//===----------------------------------------------------------------------===//

constexpr size_t HeaderSize = 4 + 4 + 8 + 8 + 8;
constexpr size_t ChecksumAt = 4 + 4 + 8 + 8;
constexpr size_t TableEntrySize = 24;

/// One slot per known tag, in the order the reader consumes them.
constexpr uint32_t SlotTags[] = {TagOps,  TagVals, TagEdge, TagInpt,
                                 TagOutp, TagMeta, TagLabl, TagVars,
                                 TagDivg, TagSig};

/// A section-table entry as the index keeps it: the stored payload,
/// viewed in the file, and its v2 codec flags.
struct SectionRef {
  std::string_view Stored;
  uint32_t Flags = 0;
  bool Present = false;
};

/// The fixed section index of one file: one slot per known tag.
struct SectionIndex {
  SectionRef Slots[std::size(SlotTags)];

  /// The slot of \p Tag, or null for a tag the format does not define.
  SectionRef *slot(uint32_t Tag) {
    for (size_t I = 0; I != std::size(SlotTags); ++I)
      if (SlotTags[I] == Tag)
        return &Slots[I];
    return nullptr;
  }
  /// The slot of a known \p Tag.
  const SectionRef &operator[](uint32_t Tag) { return *slot(Tag); }
};

/// The decoded size an RLE payload's header announces (0 when the
/// payload is too short to hold the header).
uint64_t rleRawSize(std::string_view Stored) {
  uint64_t RawSize = 0;
  if (Stored.size() >= 8)
    std::memcpy(&RawSize, Stored.data(), 8);
  return toLittleEndian(RawSize); // canonical bytes -> host value
}

/// Undoes the RLE stage of a section, if it has one, and returns a view
/// of what is left: the raw payload, or the varint stream of a
/// varint-flagged OPS/EDGE.  RLE output lands in \p Scratch (the view
/// points into it, so it lasts until the next call); any other payload
/// is viewed in place.  The stored size is capped by the codec's
/// worst-case expansion before anything is allocated, so a hostile
/// size header cannot demand a multi-gigabyte buffer.
Expected<std::string_view> undoRle(uint32_t Tag, const SectionRef &S,
                                   std::string &Scratch) {
  if (!(S.Flags & StapSectionRle))
    return S.Stored;
  if (S.Stored.size() < 8)
    return stapError("section '" + tagName(Tag) +
                     "': RLE payload shorter than its size header");
  const uint64_t RawSize = rleRawSize(S.Stored);
  const uint64_t TokenBytes = S.Stored.size() - 8;
  if (RawSize > TokenBytes * RleMaxExpansion)
    return stapError("section '" + tagName(Tag) +
                     "': RLE size exceeds the codec expansion bound");
  Scratch.resize(static_cast<size_t>(RawSize));
  if (!rleDecompress(S.Stored.data() + 8, TokenBytes, Scratch.data(),
                     Scratch.size()))
    return stapError("section '" + tagName(Tag) +
                     "': malformed RLE token stream");
  return std::string_view(Scratch);
}

Status malformedVarint(uint32_t Tag) {
  return stapError("section '" + tagName(Tag) +
                   "': malformed varint encoding");
}

Status nodeCountMismatch() {
  return stapError("node count does not match the OPS/VALS section sizes");
}

/// Decodes OPS into the kind and exponent of \p NumNodes fresh nodes.
/// NumNodes is attacker-controlled: the nodes are allocated only after
/// the payload has shown it can hold that many (5 raw bytes, or at
/// least 2 varint bytes, per node).
Status decodeOps(std::string_view P, uint32_t Flags, bool FileBigEndian,
                 uint64_t NumNodes, std::vector<verify::RawNode> &Nodes) {
  const bool Varint = Flags & StapSectionVarint;
  if (Varint ? P.size() < 2 * NumNodes : P.size() != NumNodes * OpsStride)
    return Varint ? malformedVarint(TagOps) : nodeCountMismatch();
  Nodes.resize(static_cast<size_t>(NumNodes));
  // Varint layout: [NumNodes kind bytes][NumNodes zigzag varints of the
  // aux exponent].  Raw layout: per node, kind u8 then aux i32.
  Cursor C(P.data(), P.size(), FileBigEndian);
  size_t Pos = Nodes.size();
  for (size_t I = 0; I != Nodes.size(); ++I) {
    verify::RawNode &N = Nodes[I];
    uint8_t Kind;
    if (Varint) {
      Kind = static_cast<uint8_t>(P[I]);
      uint64_t Z = 0;
      if (!getVarint(P.data(), P.size(), Pos, Z))
        return malformedVarint(TagOps);
      const int64_t V = unzigzag(Z);
      if (V < std::numeric_limits<int32_t>::min() ||
          V > std::numeric_limits<int32_t>::max())
        return malformedVarint(TagOps);
      N.AuxInt = static_cast<int32_t>(V);
    } else {
      Kind = C.get<uint8_t>();
      N.AuxInt = C.get<int32_t>();
    }
    if (Kind >= NumOpKinds)
      return stapError("invalid op kind " + std::to_string(Kind));
    N.Kind = static_cast<OpKind>(Kind);
  }
  if (Varint && Pos != P.size())
    return malformedVarint(TagOps);
  return Status::ok();
}

/// Decodes VALS into the value bounds of \p Nodes.
Status decodeVals(std::string_view P, bool FileBigEndian,
                  std::vector<verify::RawNode> &Nodes) {
  if (P.size() != Nodes.size() * ValsStride)
    return nodeCountMismatch();
  Cursor C(P.data(), P.size(), FileBigEndian);
  for (verify::RawNode &N : Nodes) {
    N.ValueLo = C.get<double>();
    N.ValueHi = C.get<double>();
  }
  return Status::ok();
}

/// Decodes EDGE into the argument ids and partial bounds of \p Nodes.
Status decodeEdge(std::string_view P, uint32_t Flags, bool FileBigEndian,
                  std::vector<verify::RawNode> &Nodes) {
  const auto TooMany = [](unsigned Count) {
    return stapError("node edge count " + std::to_string(Count) +
                     " exceeds the binary-operation maximum");
  };
  if (!(Flags & StapSectionVarint)) {
    // Raw layout: per node, the arg count u8, then per argument the id
    // i32 and the partial's lower and upper bound.
    Cursor C(P.data(), P.size(), FileBigEndian);
    for (verify::RawNode &N : Nodes) {
      N.NumArgs = C.get<uint8_t>();
      if (N.NumArgs > 2)
        return TooMany(N.NumArgs);
      for (unsigned A = 0; A != N.NumArgs; ++A) {
        N.Args[A] = C.get<NodeId>();
        N.PartialLo[A] = C.get<double>();
        N.PartialHi[A] = C.get<double>();
      }
    }
    if (!C.atEnd())
      return stapError("EDGE section is truncated or oversized");
    return Status::ok();
  }
  // Varint layout: [NumNodes arg-count bytes][one zigzag varint per
  // argument: consumer index minus argument id][raw partial-bound
  // doubles, 16 bytes per argument].
  const size_t NumNodes = Nodes.size();
  if (P.size() < NumNodes)
    return malformedVarint(TagEdge);
  uint64_t TotalArgs = 0;
  for (size_t I = 0; I != NumNodes; ++I) {
    const uint8_t Count = static_cast<uint8_t>(P[I]);
    if (Count > 2)
      return TooMany(Count);
    TotalArgs += Count;
  }
  if (P.size() - NumNodes < TotalArgs * 16)
    return malformedVarint(TagEdge);
  const size_t PartialsAt = P.size() - static_cast<size_t>(TotalArgs) * 16;
  Cursor Partials(P.data() + PartialsAt, P.size() - PartialsAt);
  size_t Pos = NumNodes;
  for (size_t I = 0; I != NumNodes; ++I) {
    verify::RawNode &N = Nodes[I];
    N.NumArgs = static_cast<uint8_t>(P[I]);
    for (unsigned A = 0; A != N.NumArgs; ++A) {
      uint64_t Z = 0;
      if (!getVarint(P.data(), PartialsAt, Pos, Z))
        return malformedVarint(TagEdge);
      // Modular arithmetic: a hostile delta must not overflow int64.
      const int64_t Arg = static_cast<int64_t>(
          static_cast<uint64_t>(I) - static_cast<uint64_t>(unzigzag(Z)));
      if (Arg < std::numeric_limits<int32_t>::min() ||
          Arg > std::numeric_limits<int32_t>::max())
        return malformedVarint(TagEdge);
      N.Args[A] = static_cast<NodeId>(Arg);
      N.PartialLo[A] = Partials.get<double>();
      N.PartialHi[A] = Partials.get<double>();
    }
  }
  if (Pos != PartialsAt)
    return malformedVarint(TagEdge);
  return Status::ok();
}

/// Decodes an INPT/OUTP id list (a u64 count, then the ids); at most
/// \p NumNodes ids.
bool decodeIdList(std::string_view P, bool FileBigEndian, uint64_t NumNodes,
                  std::vector<NodeId> &Out) {
  Cursor C(P.data(), P.size(), FileBigEndian);
  const uint64_t Count = C.get<uint64_t>();
  if (Count > NumNodes)
    return false;
  Out.resize(static_cast<size_t>(Count));
  for (NodeId &Id : Out)
    Id = C.get<NodeId>();
  return C.atEnd();
}

} // namespace

uint64_t scorpio::stapSchemaHash() {
  // A function of compile-time constants: hash it once per process.
  static const uint64_t Hash = [] {
    const std::string Schema =
        "stap|ops:" + std::to_string(OpsStride) +
        "|vals:" + std::to_string(ValsStride) +
        "|edge:1+" + std::to_string(EdgeArgStride) +
        "*arg|id:i32|opkinds:" + std::to_string(NumOpKinds);
    return fnv1a64(Schema.data(), Schema.size(), Fnv1aBasis);
  }();
  return Hash;
}

Status scorpio::writeStap(std::ostream &OS, const verify::RawTape &Raw,
                          const TapeRegistration &Reg,
                          std::span<const double> Significance,
                          std::span<const std::string> Divergences,
                          const StapWriteOptions &Options,
                          const TapeMeta *Meta) {
  if (!Significance.empty() && Significance.size() != Raw.Nodes.size())
    return stapError("significance vector size does not match node count");
  if (Options.Version < StapOldestReadableVersion ||
      Options.Version > StapVersion)
    return stapError("cannot write format version " +
                     std::to_string(Options.Version));
  if (Options.Version < 2 && (Options.Compress || Meta))
    return stapError("compression and META require format version 2");

  std::vector<SectionOut> Sections;
  Sections.push_back({TagOps, 0, opsPayload(Raw)});
  Sections.push_back({TagVals, 0, valsPayload(Raw)});
  Sections.push_back({TagEdge, 0, edgePayload(Raw)});
  Sections.push_back({TagInpt, 0, idListPayload(Raw.Inputs)});
  Sections.push_back({TagOutp, 0, idListPayload(Raw.Outputs)});
  if (Meta)
    Sections.push_back({TagMeta, 0, metaPayload(*Meta)});
  if (!Reg.Labels.empty()) {
    ByteWriter W;
    W.put(static_cast<uint64_t>(Reg.Labels.size()));
    for (const auto &[Id, Name] : Reg.Labels) {
      W.put(Id);
      W.putString(Name);
    }
    Sections.push_back({TagLabl, 0, W.bytes()});
  }
  if (!Reg.InputVars.empty() || !Reg.IntermediateVars.empty() ||
      !Reg.OutputVars.empty()) {
    ByteWriter W;
    putNamedIds(W, Reg.InputVars);
    putNamedIds(W, Reg.IntermediateVars);
    putNamedIds(W, Reg.OutputVars);
    Sections.push_back({TagVars, 0, W.bytes()});
  }
  if (!Divergences.empty()) {
    ByteWriter W;
    W.put(static_cast<uint64_t>(Divergences.size()));
    for (const std::string &D : Divergences)
      W.putString(D);
    Sections.push_back({TagDivg, 0, W.bytes()});
  }
  if (!Significance.empty()) {
    ByteWriter W;
    W.put(static_cast<uint64_t>(Significance.size()));
    for (double S : Significance)
      W.put(S);
    Sections.push_back({TagSig, 0, W.bytes()});
  }
  if (Options.Compress)
    for (SectionOut &S : Sections)
      compressSection(S, Raw.Nodes.size());
  return writeSections(OS, Raw.Nodes.size(), Sections, Options);
}

Status scorpio::writeStap(std::ostream &OS, const Tape &T,
                          const TapeRegistration &Reg,
                          std::span<const double> Significance,
                          const StapWriteOptions &Options,
                          const TapeMeta *Meta) {
  const verify::RawTape Raw = verify::extractRaw(T, Reg.Outputs);
  return writeStap(OS, Raw, Reg, Significance, T.divergences(), Options,
                   Meta);
}

Status scorpio::saveStap(const std::string &Path, const Tape &T,
                         const TapeRegistration &Reg,
                         std::span<const double> Significance,
                         const StapWriteOptions &Options,
                         const TapeMeta *Meta) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS)
    return stapError("cannot open '" + Path + "' for writing");
  if (Status S = writeStap(OS, T, Reg, Significance, Options, Meta); !S)
    return S;
  // writeStap flushed; close() surfaces any failure the OS deferred
  // (disk full, quota, I/O error) instead of losing it in the
  // destructor — a .stap that saveStap blessed must be complete.
  OS.close();
  if (OS.fail())
    return stapError("write to '" + Path +
                     "' failed on flush/close (disk full?)");
  return Status::ok();
}

Expected<LoadedTape> scorpio::readStap(std::string_view File) {
  // Header.
  if (File.size() < 4 || std::memcmp(File.data(), Magic, 4) != 0)
    return stapError("not a .stap file (bad magic)");
  if (File.size() < HeaderSize)
    return stapError("truncated header");
  // Endianness detection: the canonical byte order is little-endian, but
  // a version field that only parses byte-swapped marks a file from a
  // legacy native-order writer on a big-endian machine (the magic is a
  // byte string and matches either way).  Version values are tiny, so
  // the two interpretations can never both be readable.
  const auto FieldVersion = [&](bool BigEndian) {
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(File[4 + I]))
           << (BigEndian ? 24 - 8 * I : 8 * I);
    return V;
  };
  const auto Readable = [](uint32_t V) {
    return V >= StapOldestReadableVersion && V <= StapVersion;
  };
  const bool FileBigEndian =
      !Readable(FieldVersion(false)) && Readable(FieldVersion(true));
  Cursor H(File.data() + 4, HeaderSize - 4, FileBigEndian);
  const uint32_t Version = H.get<uint32_t>();
  if (Version < StapOldestReadableVersion || Version > StapVersion)
    return stapError("unsupported format version " + std::to_string(Version));
  const uint64_t NumNodes = H.get<uint64_t>();
  const uint64_t NumSections = H.get<uint64_t>();
  const uint64_t Checksum = H.get<uint64_t>();
  // A node or section count near 2^64 would overflow the size math
  // below; nothing legitimate comes close.
  if (NumNodes > (uint64_t{1} << 32) || NumSections > 1024)
    return stapError("implausible node or section count");

  // Section table, first pass: flags and layout.  Layout strictness
  // (both versions): payloads sit contiguously in table order
  // immediately after the table, and the file ends at the last payload
  // byte.  This closes the blind spots a payload-domain checksum cannot
  // see — an offset flip on a zero-sized section, a gap, an overlap, or
  // trailing garbage.
  const size_t TableSize = static_cast<size_t>(NumSections) * TableEntrySize;
  if (File.size() < HeaderSize + TableSize)
    return stapError("truncated section table");
  const auto TableCursor = [&] {
    return Cursor(File.data() + HeaderSize, TableSize, FileBigEndian);
  };
  Cursor Table = TableCursor();
  uint64_t ExpectedOffset = HeaderSize + TableSize;
  for (uint64_t I = 0; I != NumSections; ++I) {
    const uint32_t Tag = Table.get<uint32_t>();
    const uint32_t Flags = Table.get<uint32_t>();
    const uint64_t Offset = Table.get<uint64_t>();
    const uint64_t Size = Table.get<uint64_t>();
    if (Version < 2) {
      // v1: the flags word is a reserved must-be-zero pad.
      if (Flags != 0)
        return stapError("reserved section-table bytes must be zero");
    } else {
      if (Flags & ~StapSectionFlagMask)
        return stapError("unknown section flags on '" + tagName(Tag) + "'");
      // The section codecs are defined over canonical little-endian
      // payloads; a legacy big-endian writer's compressed stream would
      // decode to garbage, so refuse it outright.
      if (FileBigEndian && Flags != 0)
        return stapError("byte-swapped file carries compressed section '" +
                         tagName(Tag) +
                         "' (legacy big-endian tapes must be uncompressed)");
      if ((Flags & StapSectionVarint) && Tag != TagOps && Tag != TagEdge)
        return stapError("varint flag is only defined for OPS/EDGE, not '" +
                         tagName(Tag) + "'");
    }
    if (!Table.ok() || Offset > File.size() || Size > File.size() - Offset)
      return stapError("section '" + tagName(Tag) +
                       "' extends past the end of the file");
    if (Offset != ExpectedOffset)
      return stapError("section '" + tagName(Tag) +
                       "' is not stored at its expected offset");
    ExpectedOffset += Size;
  }
  if (ExpectedOffset != File.size())
    return stapError("file size does not match the section layout "
                     "(trailing bytes?)");

  // Checksum.  v1 hashes the payloads in table order, which the layout
  // check made one contiguous run; v2 hashes the whole file with the
  // checksum field zeroed.
  uint64_t Actual = Fnv1aBasis;
  const size_t PayloadsAt = HeaderSize + TableSize;
  if (Version >= 2) {
    Actual = fnv1a64(File.data(), ChecksumAt, Actual);
    const char Zeros[8] = {};
    Actual = fnv1a64(Zeros, 8, Actual);
    Actual = fnv1a64(File.data() + HeaderSize, File.size() - HeaderSize,
                     Actual);
  } else {
    Actual = fnv1a64(File.data() + PayloadsAt, File.size() - PayloadsAt,
                     Actual);
  }
  if (Actual != Checksum)
    return stapError("payload checksum mismatch (corrupted file)");

  // Section table, second pass: the index.  Both versions are strict:
  // no duplicates, no unknown tags (META is a v2 tag — in a v1 file it
  // is unknown).
  SectionIndex Index;
  size_t ScratchSize = 0; // the largest admissible RLE output
  Table = TableCursor();
  for (uint64_t I = 0; I != NumSections; ++I) {
    const uint32_t Tag = Table.get<uint32_t>();
    const uint32_t Flags = Table.get<uint32_t>();
    const uint64_t Offset = Table.get<uint64_t>();
    const uint64_t Size = Table.get<uint64_t>();
    SectionRef *S = Index.slot(Tag);
    if (!S || (Tag == TagMeta && Version < 2))
      return stapError("unknown section tag '" + tagName(Tag) + "'");
    if (S->Present)
      return stapError("duplicate section '" + tagName(Tag) + "'");
    S->Stored =
        File.substr(static_cast<size_t>(Offset), static_cast<size_t>(Size));
    S->Flags = Flags;
    S->Present = true;
    if (Flags & StapSectionRle) {
      const uint64_t RawSize = rleRawSize(S->Stored);
      if (RawSize <= Size * RleMaxExpansion)
        ScratchSize = std::max(ScratchSize, static_cast<size_t>(RawSize));
    }
  }
  for (uint32_t Required : {TagOps, TagVals, TagEdge, TagInpt, TagOutp})
    if (!Index[Required].Present)
      return stapError("missing required section '" + tagName(Required) +
                       "'");

  // Decode the node stream into the raw mirror the gate checks.  Every
  // section is decoded and parsed before the next one reuses Scratch.
  std::string Scratch;
  Scratch.reserve(ScratchSize);
  verify::RawTape Raw;
  const auto Payload = [&](uint32_t Tag) {
    return undoRle(Tag, Index[Tag], Scratch);
  };
  {
    Expected<std::string_view> P = Payload(TagOps);
    if (!P)
      return P.status();
    if (Status S = decodeOps(P.value(), Index[TagOps].Flags, FileBigEndian,
                             NumNodes, Raw.Nodes);
        !S)
      return S;
  }
  {
    Expected<std::string_view> P = Payload(TagVals);
    if (!P)
      return P.status();
    if (Status S = decodeVals(P.value(), FileBigEndian, Raw.Nodes); !S)
      return S;
  }
  {
    Expected<std::string_view> P = Payload(TagEdge);
    if (!P)
      return P.status();
    if (Status S = decodeEdge(P.value(), Index[TagEdge].Flags, FileBigEndian,
                              Raw.Nodes);
        !S)
      return S;
  }
  const auto ReadIdList = [&](uint32_t Tag, std::vector<NodeId> &Out) {
    Expected<std::string_view> P = Payload(Tag);
    if (!P)
      return P.status();
    if (!decodeIdList(P.value(), FileBigEndian, NumNodes, Out))
      return stapError("malformed " + tagName(Tag) + " section");
    return Status::ok();
  };
  if (Status S = ReadIdList(TagInpt, Raw.Inputs); !S)
    return S;
  if (Status S = ReadIdList(TagOutp, Raw.Outputs); !S)
    return S;

  // The acceptance gate: the decoded node stream must satisfy every
  // structural rule before a Tape is built from it.  Refuse, never
  // repair.
  const verify::VerifyReport Gate = verify::verifyStructure(Raw);
  if (Gate.hasErrors()) {
    std::string First = "structural error";
    if (!Gate.findings().empty())
      First = Gate.findings().front().rule().Id + std::string(": ") +
              Gate.findings().front().Message;
    return stapError("rejected by the verifyStructure acceptance gate (" +
                     std::to_string(Gate.errorCount()) + " errors; first: " +
                     First + ")");
  }

  // Registration sections (ids are range-checked; the gate only saw the
  // node stream and the input/output lists).
  LoadedTape Loaded;
  Loaded.Version = Version;
  const auto ValidId = [&](NodeId Id) {
    return Id >= 0 && static_cast<uint64_t>(Id) < NumNodes;
  };
  // The payload cursor of an optional section; its view stays valid
  // until the next section's decode.
  const auto SectionCursor =
      [&](uint32_t Tag) -> Expected<Cursor> {
    Expected<std::string_view> P = Payload(Tag);
    if (!P)
      return P.status();
    return Cursor(P.value().data(), P.value().size(), FileBigEndian);
  };
  if (Index[TagMeta].Present) {
    Expected<Cursor> EC = SectionCursor(TagMeta);
    if (!EC)
      return EC.status();
    Cursor &C = EC.value();
    TapeMeta Meta;
    Meta.SchemaHash = C.get<uint64_t>();
    Meta.ShardIndex = C.get<uint64_t>();
    if (!C.getString(Meta.ShardName))
      return stapError("malformed META section");
    const uint8_t HasOptions = C.get<uint8_t>();
    Meta.OutputMode = C.get<uint8_t>();
    Meta.Metric = C.get<uint8_t>();
    Meta.BatchWidth = C.get<uint32_t>();
    const uint8_t Simplify = C.get<uint8_t>();
    const uint8_t BuildGraph = C.get<uint8_t>();
    const uint8_t VerifyTape = C.get<uint8_t>();
    Meta.Delta = C.get<double>();
    Meta.SignificanceCap = C.get<double>();
    // VerifyTape carries a core::VerifyLevel (0..2); a byte above the
    // levels this build knows means a newer writer, refuse it.
    if (!C.atEnd() || HasOptions > 1 || Simplify > 1 || BuildGraph > 1 ||
        VerifyTape > 2 || Meta.OutputMode > 1 || Meta.Metric > 1)
      return stapError("malformed META section");
    Meta.HasOptions = HasOptions != 0;
    Meta.Simplify = Simplify != 0;
    Meta.BuildGraph = BuildGraph != 0;
    Meta.VerifyTape = VerifyTape;
    // A shard recorded against a different wire schema (op-kind set,
    // node layout) would decode to plausible garbage; refuse it here so
    // a merge never consumes it.
    if (Meta.SchemaHash != stapSchemaHash())
      return stapError("META schema hash mismatch (tape was recorded by an "
                       "incompatible scorpio build)");
    Loaded.Meta = std::move(Meta);
  }
  if (Index[TagLabl].Present) {
    Expected<Cursor> EC = SectionCursor(TagLabl);
    if (!EC)
      return EC.status();
    Cursor &C = EC.value();
    const uint64_t Count = C.get<uint64_t>();
    if (Count > NumNodes)
      return stapError("malformed LABL section");
    for (uint64_t I = 0; I != Count; ++I) {
      const NodeId Id = C.get<NodeId>();
      std::string Name;
      if (!C.getString(Name) || !ValidId(Id))
        return stapError("malformed LABL section");
      // The writer emits labels in id order, so the end hint is O(1);
      // a repeated id keeps its last name.
      Loaded.Reg.Labels.insert_or_assign(Loaded.Reg.Labels.end(), Id,
                                         std::move(Name));
    }
    if (!C.atEnd())
      return stapError("malformed LABL section");
  }
  if (Index[TagVars].Present) {
    Expected<Cursor> EC = SectionCursor(TagVars);
    if (!EC)
      return EC.status();
    Cursor &C = EC.value();
    const auto ReadList =
        [&](std::vector<std::pair<NodeId, std::string>> &Out) {
          const uint64_t Count = C.get<uint64_t>();
          if (Count > NumNodes)
            return false;
          Out.reserve(static_cast<size_t>(Count));
          for (uint64_t I = 0; I != Count; ++I) {
            const NodeId Id = C.get<NodeId>();
            std::string Name;
            if (!C.getString(Name) || !ValidId(Id))
              return false;
            Out.emplace_back(Id, std::move(Name));
          }
          return C.ok();
        };
    if (!ReadList(Loaded.Reg.InputVars) ||
        !ReadList(Loaded.Reg.IntermediateVars) ||
        !ReadList(Loaded.Reg.OutputVars) || !C.atEnd())
      return stapError("malformed VARS section");
  }
  std::vector<std::string> Divergences;
  if (Index[TagDivg].Present) {
    Expected<Cursor> EC = SectionCursor(TagDivg);
    if (!EC)
      return EC.status();
    Cursor &C = EC.value();
    const uint64_t Count = C.get<uint64_t>();
    if (Count > (uint64_t{1} << 20))
      return stapError("malformed DIVG section");
    for (uint64_t I = 0; I != Count; ++I) {
      std::string D;
      if (!C.getString(D))
        return stapError("malformed DIVG section");
      Divergences.push_back(std::move(D));
    }
    if (!C.atEnd())
      return stapError("malformed DIVG section");
  }
  if (Index[TagSig].Present) {
    Expected<Cursor> EC = SectionCursor(TagSig);
    if (!EC)
      return EC.status();
    Cursor &C = EC.value();
    const uint64_t Count = C.get<uint64_t>();
    if (Count != NumNodes)
      return stapError("SIG section size does not match the node count");
    Loaded.Significance.resize(static_cast<size_t>(Count));
    for (double &S : Loaded.Significance)
      S = C.get<double>();
    if (!C.atEnd())
      return stapError("malformed SIG section");
  }

  // Build the Tape from the verified nodes in one pass.  Post-gate this
  // is loss-free: E003 guarantees every node has a representable shape,
  // and E004/E005 guarantee every bound pair is a constructible
  // Interval.  Only a unary node keeps its exponent, as the recording
  // API does.
  const size_t N = Raw.Nodes.size();
  std::vector<Interval> Values;
  std::vector<TapeOp> Ops;
  std::vector<TapeEdges> Edges;
  Values.reserve(N);
  Ops.reserve(N);
  Edges.reserve(N);
  for (const verify::RawNode &Node : Raw.Nodes) {
    Values.emplace_back(Node.ValueLo, Node.ValueHi);
    Ops.push_back(
        TapeOp{Node.Kind, opArity(Node.Kind) == 1 ? Node.AuxInt : 0});
    TapeEdges E;
    E.NumArgs = Node.NumArgs;
    for (unsigned A = 0; A != Node.NumArgs; ++A) {
      E.Args[A] = Node.Args[A];
      E.Partials[A] = Interval(Node.PartialLo[A], Node.PartialHi[A]);
    }
    Edges.push_back(E);
  }
  // Tape::adopt also requires the INPT list to be exactly the Input
  // nodes, or the file's registration is lying about the node stream.
  Expected<Tape> T =
      Tape::adopt(std::move(Values), std::move(Ops), std::move(Edges),
                  std::move(Raw.Inputs), std::move(Divergences));
  if (!T)
    return stapError(T.status().message());
  Loaded.T = std::move(T.value());
  Loaded.Reg.Outputs = std::move(Raw.Outputs);
  return Expected<LoadedTape>(std::move(Loaded));
}

Expected<LoadedTape> scorpio::readStap(std::istream &IS) {
  std::string File;
  char Chunk[4096];
  while (IS.read(Chunk, sizeof(Chunk)) || IS.gcount() > 0)
    File.append(Chunk, static_cast<size_t>(IS.gcount()));
  return readStap(std::string_view(File));
}

Expected<LoadedTape> scorpio::loadStap(const std::string &Path) {
  std::string File;
  if (Status S = readRegularFile(Path, File); !S)
    return stapError(S.message());
  return readStap(std::string_view(File));
}
