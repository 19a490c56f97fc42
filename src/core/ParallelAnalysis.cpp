//===- core/ParallelAnalysis.cpp - Sharded significance analysis ---------===//

#include "core/ParallelAnalysis.h"

#include "runtime/ThreadPool.h"
#include "support/Diag.h"
#include "support/Json.h"
#include "verify/AbsInt.h"
#include "verify/FpError.h"
#include "verify/GraphVerifier.h"
#include "verify/TapeVerifier.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>

using namespace scorpio;

namespace {

/// Re-verifies one analysed shard on the worker that produced it.
/// Incremental mode re-checks the sub-tape structure; Full mode adds the
/// E008 batch-sweep replay and the post-S4/S5 graph invariants, checked
/// over a DynDFG view built for the purpose.
verify::VerifyReport verifyShard(Analysis &A, const AnalysisResult &Result,
                                 const AnalysisOptions &Options,
                                 ShardVerification Mode) {
  verify::VerifierOptions TapeOpts;
  TapeOpts.CheckBatchSweep = Mode == ShardVerification::Full;
  TapeOpts.BatchWidth = Options.BatchWidth;
  verify::VerifyReport R =
      Mode == ShardVerification::Full
          ? verify::verifyTape(A.tape(), A.outputNodes(), TapeOpts)
          : verify::verifyStructure(
                verify::extractRaw(A.tape(), A.outputNodes()), TapeOpts);
  // Graph auditing re-walks every node several times; it belongs to the
  // Full tier so Incremental stays cheap enough for per-merge use.
  if (Mode == ShardVerification::Full && Options.BuildGraph &&
      Result.isValid()) {
    const DynDFG G = A.graph(Result, Options);
    R.merge(verify::verifyGraph(G));
    const double Divisor =
        Result.outputSignificance() > 0.0 ? Result.outputSignificance() : 1.0;
    R.merge(verify::verifyVarianceLevel(G, Result.varianceLevel(),
                                        Options.Delta, Divisor));
  }
  return R;
}

/// Deterministic on-disk name for shard \p Index ("shard_000007.stap"):
/// the one place a shard file name is formatted.
std::string shardFileName(size_t Index) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "shard_%06zu.stap", Index);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Result-cache wire format helpers
//
// Host-endian, like the keys: a cache directory is machine-local state,
// not an interchange format (the .stap tapes it is derived from are the
// canonical cross-machine artifact).
//===----------------------------------------------------------------------===//

constexpr uint64_t Fnv1aBasis = 14695981039346656037ULL;

uint64_t fnv1a64(const char *Data, size_t Size, uint64_t Hash) {
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= static_cast<uint8_t>(Data[I]);
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

/// Incremental FNV-1a over typed fields (cache keys).
class KeyHasher {
public:
  template <typename T> void add(const T &V) {
    static_assert(std::is_trivially_copyable_v<T>);
    char B[sizeof(T)];
    std::memcpy(B, &V, sizeof(T));
    Hash = fnv1a64(B, sizeof(T), Hash);
  }
  void addString(const std::string &S) {
    add(static_cast<uint64_t>(S.size()));
    Hash = fnv1a64(S.data(), S.size(), Hash);
  }
  uint64_t hash() const { return Hash; }

private:
  uint64_t Hash = Fnv1aBasis;
};

/// Appends POD fields to the cache payload buffer.
class CacheWriter {
public:
  template <typename T> void put(const T &V) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t At = Buf.size();
    Buf.resize(At + sizeof(T));
    std::memcpy(Buf.data() + At, &V, sizeof(T));
  }
  void putString(const std::string &S) {
    put(static_cast<uint64_t>(S.size()));
    Buf.append(S);
  }
  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

/// Latching bounds-checked reader over a cache payload (the entry's
/// checksum already passed, but the format must also reject stray bytes
/// fed to it directly).
class CacheReader {
public:
  explicit CacheReader(std::string_view Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}

  template <typename T> T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T V{};
    if (!Ok || Size - Pos < sizeof(T)) {
      Ok = false;
      return V;
    }
    std::memcpy(&V, Data + Pos, sizeof(T));
    Pos += sizeof(T);
    return V;
  }
  bool getString(std::string &Out) {
    const uint64_t Len = get<uint64_t>();
    if (!Ok || Len > Size - Pos) {
      Ok = false;
      return false;
    }
    Out.assign(Data + Pos, static_cast<size_t>(Len));
    Pos += static_cast<size_t>(Len);
    return true;
  }
  /// A stored element count must fit in the remaining bytes at
  /// \p MinBytesPerElement each, or the stream is lying.
  bool plausibleCount(uint64_t Count, size_t MinBytesPerElement) {
    if (!Ok || Count > (Size - Pos) / MinBytesPerElement) {
      Ok = false;
      return false;
    }
    return true;
  }
  bool ok() const { return Ok; }
  bool atEnd() const { return Ok && Pos == Size; }

private:
  const char *Data;
  size_t Size;
  size_t Pos = 0;
  bool Ok = true;
};

/// Reconstructs an Interval from stored bounds, rejecting bit patterns
/// no analysis can produce (the Interval invariant would assert).
bool readInterval(CacheReader &R, Interval &Out) {
  const double Lo = R.get<double>();
  const double Hi = R.get<double>();
  if (!R.ok() || std::isnan(Lo) || std::isnan(Hi) || Lo > Hi)
    return false;
  Out = Interval(Lo, Hi);
  return true;
}

/// Semantic cache audit: true when \p Hit's stored per-node
/// significances are consistent with the significance bounds derived by
/// abstract-interpreting the shard's node stream (verify/AbsInt.h).
/// The entry's checksum already passed, so this is not an integrity
/// check — it rejects entries whose *report content* no honest dynamic
/// sweep over this tape could have produced (a poisoned or
/// cross-contaminated cache directory).  An empty stored report (a
/// shard with no registered outputs) carries nothing to audit.
bool auditCachedShard(const LoadedTape &Loaded,
                      const AnalysisOptions &Options,
                      const ShardResult &Hit) {
  // Defense in depth against key-scheme regressions: an entry recorded
  // under a different backend answers a different question and is
  // rejected before any numeric audit.
  if (Hit.Result.backend() != Options.Backend)
    return false;
  std::span<const double> Stored = Hit.Result.nodeSignificances();
  if (Stored.empty())
    return true;
  if (Options.Backend == AnalysisBackend::FpError) {
    verify::FpErrorOptions FpOpts;
    FpOpts.ErrorCap = Options.SignificanceCap;
    const verify::FpErrorResult Fp =
        verify::fpErrorInterpret(Loaded.T, Loaded.Reg.Outputs, FpOpts);
    return !verify::auditStoredFpError(Fp, Stored,
                                       Hit.Result.outputSignificance(),
                                       FpOpts)
                .hasErrors();
  }
  verify::AbsIntOptions AbsOpts;
  AbsOpts.SignificanceCap = Options.SignificanceCap;
  const verify::AbsIntResult Abs =
      verify::absInterpret(Loaded.T, Loaded.Reg.Outputs, AbsOpts);
  return !verify::auditStoredSignificance(Abs, Stored, AbsOpts).hasErrors();
}

/// Submits \p Job to \p Pool under \p Group, running it inline when the
/// pool refuses (shutdown during process teardown): every result slot
/// is published exactly once either way.  Callers must not hold locks
/// the job itself acquires.
void submitOrRun(rt::ThreadPool &Pool, rt::WaitGroup &Group,
                 const std::function<void()> &Job) {
  if (!Pool.submit(Job, &Group).isOk())
    Job();
}

/// Resolves a caller-facing seed knob (0 = default) to a pool seed.
uint64_t resolveStealSeed(uint64_t Seed) {
  return Seed != 0 ? Seed : rt::ThreadPool::DefaultStealSeed;
}

/// Cost assumed for a shard that gave no tape-size hint: mid-sized, so
/// unhinted shards neither explode a group nor get packed by the dozen.
constexpr size_t DefaultShardCostNodes = 4096;
/// Floor on the target group cost — below this, per-job scheduling
/// overhead beats any balance the split could buy.
constexpr size_t MinGroupCostNodes = 1024;
/// Groups per worker the planner aims for: enough slack for the
/// stealing scheduler to rebalance a skewed schedule.
constexpr size_t GroupsPerWorker = 4;

/// Cache-aware shard analysis of the streaming merge: a key hit skips
/// adoption and every reverse sweep; a miss analyses and (in ReadWrite
/// mode) stores.  Verification requests bypass the cache — cached
/// entries carry no findings.  With \p Audit set, a hit is served only
/// after auditCachedShard blesses it; a rejected entry is invalidated
/// and counts as a miss.
ShardResult analyseOrCacheShard(LoadedTape Loaded,
                                const AnalysisOptions &Options,
                                ShardVerification Verify, CacheMode Mode,
                                ShardResultCache *Cache, bool Audit,
                                StreamingMergeStats *Stats) {
  const bool UseCache =
      Cache && Mode != CacheMode::Off && Verify == ShardVerification::Off;
  uint64_t Key = 0;
  if (UseCache) {
    Key = shardCacheKey(Loaded, Options);
    ShardResult Hit;
    bool Hot = Cache->lookup(Key, Hit);
    if (Hot && Audit && !auditCachedShard(Loaded, Options, Hit)) {
      Hot = false;
      Cache->invalidate(Key);
      if (Stats)
        ++Stats->CacheAuditRejected;
    }
    if (Hot) {
      if (Stats)
        ++Stats->CacheHits;
      return Hit;
    }
    if (Stats)
      ++Stats->CacheMisses;
  }
  ShardResult SR =
      ParallelAnalysis::analyseShardTape(std::move(Loaded), Options, Verify);
  if (Stats)
    ++Stats->Analysed;
  if (UseCache && Mode == CacheMode::ReadWrite)
    Cache->store(Key, SR);
  return SR;
}

} // namespace

TapeMeta scorpio::makeShardMeta(const std::string &Name, uint64_t Index,
                                const AnalysisOptions &Options) {
  TapeMeta Meta;
  Meta.ShardName = Name;
  Meta.ShardIndex = Index;
  Meta.HasOptions = true;
  Meta.OutputMode = static_cast<uint8_t>(Options.Mode);
  Meta.Metric = static_cast<uint8_t>(Options.SignificanceMetric);
  Meta.BatchWidth = Options.BatchWidth;
  Meta.Simplify = Options.Simplify;
  Meta.BuildGraph = Options.BuildGraph;
  Meta.VerifyTape = static_cast<uint8_t>(Options.VerifyTape);
  Meta.Delta = Options.Delta;
  Meta.SignificanceCap = Options.SignificanceCap;
  return Meta;
}

AnalysisOptions scorpio::shardMetaOptions(const TapeMeta &Meta) {
  AnalysisOptions Options;
  Options.Mode = static_cast<AnalysisOptions::OutputMode>(Meta.OutputMode);
  Options.SignificanceMetric =
      static_cast<AnalysisOptions::Metric>(Meta.Metric);
  Options.BatchWidth = Meta.BatchWidth;
  Options.Simplify = Meta.Simplify;
  Options.BuildGraph = Meta.BuildGraph;
  Options.VerifyTape = static_cast<VerifyLevel>(Meta.VerifyTape);
  Options.Delta = Meta.Delta;
  Options.SignificanceCap = Meta.SignificanceCap;
  return Options;
}

bool scorpio::shardMetaMatches(const TapeMeta &Meta,
                               const AnalysisOptions &Options) {
  return Meta.HasOptions &&
         Meta.OutputMode == static_cast<uint8_t>(Options.Mode) &&
         Meta.Metric == static_cast<uint8_t>(Options.SignificanceMetric) &&
         Meta.BatchWidth == Options.BatchWidth &&
         Meta.Simplify == Options.Simplify &&
         Meta.BuildGraph == Options.BuildGraph &&
         Meta.VerifyTape == static_cast<uint8_t>(Options.VerifyTape) &&
         Meta.Delta == Options.Delta &&
         Meta.SignificanceCap == Options.SignificanceCap;
}

uint64_t scorpio::shardCacheKey(const LoadedTape &Shard,
                                const AnalysisOptions &Options,
                                uint64_t SchemaHash) {
  KeyHasher H;
  H.add(SchemaHash);
  // META shard identity.  A missing META is a distinct state, not a
  // zero-equivalent one: an anonymous shard must never collide with
  // shard 0 of a named run.
  H.add(static_cast<uint8_t>(Shard.Meta.has_value()));
  if (Shard.Meta) {
    H.add(Shard.Meta->ShardIndex);
    H.addString(Shard.Meta->ShardName);
  }
  // Every flattened analysis option, including the sweep backend: Auto
  // and Scalar produce bit-identical results by the E008 contract, but
  // the key must not bake that theorem in — a backend bug would
  // otherwise cross-contaminate cached results.
  H.add(static_cast<uint8_t>(Options.Mode));
  H.add(static_cast<uint8_t>(Options.SignificanceMetric));
  H.add(Options.BatchWidth);
  H.add(static_cast<uint8_t>(Options.Simplify));
  H.add(static_cast<uint8_t>(Options.BuildGraph));
  H.add(static_cast<uint8_t>(Options.VerifyTape));
  H.add(Options.Delta);
  H.add(Options.SignificanceCap);
  H.add(static_cast<uint8_t>(Options.Sweep));
  // The error-analysis backend is part of the key for the same reason:
  // a significance report and an FP-error report over the same tape are
  // different answers to different questions and must never serve each
  // other from the cache.
  H.add(static_cast<uint8_t>(Options.Backend));
  // Input enclosures bit for bit: the analysis is a function of the
  // input intervals, so [0, 1] and [0, 1 + ulp] must key differently.
  const Tape &T = Shard.T;
  H.add(static_cast<uint64_t>(T.inputs().size()));
  for (NodeId In : T.inputs()) {
    H.add(In);
    H.add(T.value(In).lower());
    H.add(T.value(In).upper());
  }
  // Structural digest of the node stream.  Node *values* beyond the
  // inputs are recomputed by the sweep, so kinds, aux exponents,
  // argument wiring and recorded partial bounds pin the computation.
  H.add(static_cast<uint64_t>(T.size()));
  for (size_t I = 0; I != T.size(); ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    H.add(static_cast<uint8_t>(T.kind(Id)));
    H.add(T.auxInt(Id));
    const unsigned NumArgs = T.numArgs(Id);
    H.add(static_cast<uint8_t>(NumArgs));
    for (unsigned A = 0; A != NumArgs; ++A) {
      H.add(T.arg(Id, A));
      H.add(T.partial(Id, A).lower());
      H.add(T.partial(Id, A).upper());
    }
  }
  // Divergences recorded while the shard ran (they invalidate the
  // report, so a diverged and a clean recording of the same kernel must
  // never share an entry).
  H.add(static_cast<uint64_t>(T.divergences().size()));
  for (const std::string &D : T.divergences())
    H.addString(D);
  // Registration: which nodes are outputs/variables and their names.
  const TapeRegistration &Reg = Shard.Reg;
  H.add(static_cast<uint64_t>(Reg.Outputs.size()));
  for (NodeId Out : Reg.Outputs)
    H.add(Out);
  H.add(static_cast<uint64_t>(Reg.Labels.size()));
  for (const auto &[Id, Name] : Reg.Labels) {
    H.add(Id);
    H.addString(Name);
  }
  for (const auto *List :
       {&Reg.InputVars, &Reg.IntermediateVars, &Reg.OutputVars}) {
    H.add(static_cast<uint64_t>(List->size()));
    for (const auto &[Id, Name] : *List) {
      H.add(Id);
      H.addString(Name);
    }
  }
  return H.hash();
}

diag::Expected<std::vector<std::string>>
scorpio::listStapShards(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::directory_iterator It(Dir, EC);
  if (EC)
    return diag::Status::error(diag::ErrC::InvalidArgument,
                               "cannot open shard directory '" + Dir +
                                   "': " + EC.message());
  std::vector<std::string> Paths;
  // Explicit increment form: the range-for operator++ throws on a
  // mid-scan failure, and checking the constructor's error_code alone
  // (as the old scorpio_merge scanner did) misses it entirely — a
  // failed increment silently becomes the end iterator.  Here a scan
  // failure reports the last entry that was still readable.
  std::string Last;
  for (fs::directory_iterator End; It != End;) {
    const fs::directory_entry &Entry = *It;
    Last = Entry.path().string();
    if (Entry.path().extension() == ".stap") {
      const bool Regular = Entry.is_regular_file(EC);
      if (EC)
        return diag::Status::error(diag::ErrC::InvalidArgument,
                                   "cannot stat shard '" + Last +
                                       "': " + EC.message());
      if (Regular)
        Paths.push_back(Last);
    }
    It.increment(EC);
    if (EC)
      return diag::Status::error(diag::ErrC::InvalidArgument,
                                 "error scanning shard directory '" + Dir +
                                     "' after '" + Last +
                                     "': " + EC.message());
  }
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

const VariableSignificance *
ParallelAnalysisResult::find(const std::string &PrefixedName) const {
  for (const VariableSignificance &V : Variables)
    if (V.Name == PrefixedName)
      return &V;
  return nullptr;
}

void ParallelAnalysisResult::writeJson(std::ostream &OS) const {
  JsonWriter J(OS);
  J.beginObject();
  J.key("valid").value(isValid());
  J.key("divergences").beginArray();
  for (const std::string &D : Divergences)
    J.value(D);
  J.endArray();
  J.key("outputSignificance").value(OutputSig);
  J.key("shards").beginArray();
  for (const ShardResult &S : Shards) {
    J.beginObject();
    J.key("name").value(S.Name);
    J.key("index").value(S.Index);
    J.key("report");
    S.Result.writeJson(J);
    J.endObject();
  }
  J.endArray();
  J.endObject();
  OS << "\n";
}

void ParallelAnalysis::addShard(std::string Name,
                                std::function<void()> Record,
                                size_t TapeSizeHint) {
  // A shard without a record function can never produce a result slot;
  // drop the registration with a diagnostic rather than crash a pool
  // worker later.
  SCORPIO_REQUIRE(static_cast<bool>(Record), diag::ErrC::InvalidArgument,
                  "ParallelAnalysis::addShard: shard needs a record "
                  "function");
  Shards.push_back(
      Shard{std::move(Name), std::move(Record), TapeSizeHint});
}

void ParallelAnalysis::analyseWorker(Analysis &A, ShardResult &Slot,
                                     const AnalysisOptions &Options,
                                     ShardVerification Verify) {
  if (A.numOutputs() == 0) {
    // A shard whose kernel registered no outputs contributes nothing to
    // the merge — that is a valid-but-empty result, not an analysis
    // failure.  Real interval divergences the kernel hit while
    // recording still surface (and still invalidate), and a diagnostic
    // notes the empty shard without poisoning the merged report the way
    // analyse()'s "no registered output" error divergence would.
    SCORPIO_CHECK(false, diag::ErrC::EmptyInput,
                  "ParallelAnalysis: shard registered no outputs; "
                  "producing an empty result");
    AnalysisResult Empty;
    for (const std::string &D : A.tape().divergences())
      Empty.Divergences.push_back(D);
    Slot.Result = std::move(Empty);
  } else {
    Slot.Result = A.analyse(Options);
  }
  // Re-verification happens while the shard's tape is still alive; only
  // the report survives into the merge.
  if (Verify != ShardVerification::Off)
    Slot.Verification = verifyShard(A, Slot.Result, Options, Verify);
}

ShardResult ParallelAnalysis::analyseShardTape(LoadedTape Loaded,
                                               const AnalysisOptions &Options,
                                               ShardVerification Verify) {
  ShardResult SR;
  if (Loaded.Meta) {
    SR.Name = Loaded.Meta->ShardName;
    SR.Index = static_cast<size_t>(Loaded.Meta->ShardIndex);
  }
  Analysis A;
  const TapeRegistration Reg = std::move(Loaded.Reg);
  if (diag::Status S = A.adopt(std::move(Loaded.T), Reg); !S.isOk()) {
    SR.Result.Divergences.push_back("transport: " + S.message());
    return SR;
  }
  analyseWorker(A, SR, Options, Verify);
  return SR;
}

ParallelAnalysisResult
ParallelAnalysis::mergeShards(std::vector<ShardResult> Shards,
                              bool Verified) {
  // Deterministic merge: strictly shard-index order, whatever order the
  // caller collected the results in (completion order, directory order).
  std::stable_sort(Shards.begin(), Shards.end(),
                   [](const ShardResult &A, const ShardResult &B) {
                     return A.Index < B.Index;
                   });
  ParallelAnalysisResult R;
  R.Shards = std::move(Shards);
  R.Verified = Verified;
  for (const ShardResult &S : R.Shards) {
    for (const std::string &D : S.Result.divergences())
      R.Divergences.push_back(S.Name + ": " + D);
    for (const auto *List : {&S.Result.inputs(), &S.Result.intermediates(),
                             &S.Result.outputs()})
      for (const VariableSignificance &V : *List) {
        VariableSignificance P = V;
        P.Name = S.Name + "/" + V.Name;
        R.Variables.push_back(std::move(P));
      }
    R.OutputSig += S.Result.outputSignificance();
    if (R.Verified)
      R.Verification.merge(S.Verification, S.Name + ": ");
  }
  return R;
}

std::vector<ParallelAnalysis::ShardGroup>
ParallelAnalysis::planShardGroups(const std::vector<size_t> &CostHints,
                                  unsigned NumWorkers) {
  std::vector<ShardGroup> Plan;
  if (CostHints.empty())
    return Plan;
  if (NumWorkers == 0)
    NumWorkers = 1;
  size_t Total = 0;
  for (size_t C : CostHints)
    Total += C != 0 ? C : DefaultShardCostNodes;
  const size_t Target = std::max<size_t>(
      MinGroupCostNodes,
      Total / (static_cast<size_t>(NumWorkers) * GroupsPerWorker));
  size_t Begin = 0;
  size_t Acc = 0;
  for (size_t I = 0; I != CostHints.size(); ++I) {
    const size_t C = CostHints[I] != 0 ? CostHints[I] : DefaultShardCostNodes;
    // An oversized shard must not drag neighbours behind it: close the
    // accumulating group first, then let the big shard fill (or
    // overflow) a group of its own.
    if (I != Begin && Acc + C > Target) {
      Plan.push_back({Begin, I});
      Begin = I;
      Acc = 0;
    }
    Acc += C;
    if (Acc >= Target) {
      Plan.push_back({Begin, I + 1});
      Begin = I + 1;
      Acc = 0;
    }
  }
  if (Begin != CostHints.size())
    Plan.push_back({Begin, CostHints.size()});
  return Plan;
}

void ParallelAnalysis::recordShard(size_t Index, Analysis &A) const {
  const Shard &S = Shards[Index];
  if (S.TapeSizeHint != 0)
    A.tape().reserve(S.TapeSizeHint);
  S.Record();
}

ParallelAnalysisResult ParallelAnalysis::run(const AnalysisOptions &Options,
                                             unsigned NumThreads,
                                             ShardVerification Verify) {
  std::vector<ShardResult> Results(Shards.size());

  // One warm process-wide pool per (thread count, seed): repeated run()
  // calls stopped paying thread spawn/join per call, which alone was
  // enough to put the old sharded Sobel behind serial analysis.
  const unsigned Threads = NumThreads != 0 ? NumThreads : Options.NumThreads;
  rt::ThreadPool &Pool =
      rt::ThreadPool::shared(Threads, resolveStealSeed(StealSeed));
  rt::WaitGroup Group;

  // Cost-model the schedule: contiguous shards are grouped into jobs
  // sized from their tape hints, so a thousand tiny shards become a
  // handful of jobs while one huge shard stays alone on its worker.
  std::vector<size_t> Costs;
  Costs.reserve(Shards.size());
  for (const Shard &S : Shards)
    Costs.push_back(S.TapeSizeHint);
  const std::vector<ShardGroup> Plan =
      planShardGroups(Costs, Pool.numThreads());

  for (const ShardGroup &G : Plan) {
    submitOrRun(Pool, Group, [this, G, &Options, Verify, &Results] {
      for (size_t I = G.Begin; I != G.End; ++I) {
        // Tapes and the current-Analysis pointer are thread-local, so
        // each worker records in complete isolation; the shard's index
        // in the result vector is fixed at registration, making the
        // merge independent of scheduling.
        ShardResult &Slot = Results[I];
        Analysis A;
        recordShard(I, A);
        Slot.Name = Shards[I].Name;
        Slot.Index = I;
        analyseWorker(A, Slot, Options, Verify);
      }
    });
  }
  Group.wait();

  return mergeShards(std::move(Results), Verify != ShardVerification::Off);
}

diag::Expected<std::vector<std::string>>
ParallelAnalysis::saveShards(const std::string &Dir,
                             const AnalysisOptions &Options,
                             bool Compress) const {
  StapWriteOptions WOpts;
  WOpts.Compress = Compress;
  std::vector<std::string> Paths;
  Paths.reserve(Shards.size());
  for (size_t I = 0; I != Shards.size(); ++I) {
    Analysis A;
    recordShard(I, A);
    const TapeMeta Meta = makeShardMeta(Shards[I].Name, I, Options);
    std::string Path = Dir + "/" + shardFileName(I);
    if (diag::Status S =
            saveStap(Path, A.tape(), A.registration(), {}, WOpts, &Meta);
        !S.isOk())
      return diag::Status::error(S.code(),
                                 "shard '" + Path + "': " + S.message());
    Paths.push_back(std::move(Path));
  }
  return Paths;
}

diag::Status ParallelAnalysisResult::saveJson(const std::string &Path) const {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS)
    return diag::Status::error(diag::ErrC::InvalidArgument,
                               "cannot open '" + Path + "' for writing");
  writeJson(OS);
  // Same contract as saveStap: a full disk or failing sink must become
  // an error here, never a silently truncated report discovered later.
  OS.flush();
  if (!OS.good())
    return diag::Status::error(diag::ErrC::InvalidArgument,
                               "error writing report to '" + Path + "'");
  OS.close();
  if (OS.fail())
    return diag::Status::error(diag::ErrC::InvalidArgument,
                               "error closing report '" + Path + "'");
  return diag::Status::ok();
}

//===----------------------------------------------------------------------===//
// Result-cache serialization
//===----------------------------------------------------------------------===//

std::string ParallelAnalysis::serializeShardResult(const ShardResult &Shard) {
  CacheWriter W;
  W.putString(Shard.Name);
  W.put(static_cast<uint64_t>(Shard.Index));
  const AnalysisResult &R = Shard.Result;
  W.put(static_cast<uint64_t>(R.Divergences.size()));
  for (const std::string &D : R.Divergences)
    W.putString(D);
  W.put(static_cast<uint64_t>(R.NodeSignificance.size()));
  for (double S : R.NodeSignificance)
    W.put(S);
  for (const auto *List : {&R.Inputs, &R.Intermediates, &R.Outputs}) {
    W.put(static_cast<uint64_t>(List->size()));
    for (const VariableSignificance &V : *List) {
      W.putString(V.Name);
      W.put(V.Node);
      W.put(V.Value.lower());
      W.put(V.Value.upper());
      W.put(V.Significance);
      W.put(V.Normalized);
    }
  }
  W.put(R.OutputSig);
  W.put(static_cast<int32_t>(R.VarianceLevel));
  W.put(static_cast<uint64_t>(R.GraphAlive));
  W.put(static_cast<int32_t>(R.GraphHeight));
  // Appended last so every pre-backend field keeps its offset; entries
  // written before the field existed fail the strict atEnd() check and
  // degrade to counted-corrupt misses.
  W.put(static_cast<uint8_t>(R.Backend));
  return W.take();
}

diag::Expected<ShardResult>
ParallelAnalysis::deserializeShardResult(std::string_view Bytes) {
  const auto Malformed = [] {
    return diag::Status::error(diag::ErrC::InvalidArgument,
                               "malformed shard-result payload");
  };
  CacheReader R(Bytes);
  ShardResult SR;
  R.getString(SR.Name);
  SR.Index = static_cast<size_t>(R.get<uint64_t>());
  AnalysisResult &Res = SR.Result;
  const uint64_t NumDivergences = R.get<uint64_t>();
  if (!R.plausibleCount(NumDivergences, sizeof(uint64_t)))
    return Malformed();
  for (uint64_t I = 0; I != NumDivergences; ++I) {
    std::string D;
    if (!R.getString(D))
      return Malformed();
    Res.Divergences.push_back(std::move(D));
  }
  const uint64_t NumNodes = R.get<uint64_t>();
  if (!R.plausibleCount(NumNodes, sizeof(double)))
    return Malformed();
  Res.NodeSignificance.reserve(static_cast<size_t>(NumNodes));
  for (uint64_t I = 0; I != NumNodes; ++I)
    Res.NodeSignificance.push_back(R.get<double>());
  for (auto *List : {&Res.Inputs, &Res.Intermediates, &Res.Outputs}) {
    const uint64_t NumVars = R.get<uint64_t>();
    // Name length + node + four doubles per variable, minimum.
    if (!R.plausibleCount(NumVars, sizeof(uint64_t) + sizeof(NodeId) +
                                       4 * sizeof(double)))
      return Malformed();
    for (uint64_t I = 0; I != NumVars; ++I) {
      VariableSignificance V;
      if (!R.getString(V.Name))
        return Malformed();
      V.Node = R.get<NodeId>();
      if (!readInterval(R, V.Value))
        return Malformed();
      V.Significance = R.get<double>();
      V.Normalized = R.get<double>();
      if (!R.ok())
        return Malformed();
      List->push_back(std::move(V));
    }
  }
  Res.OutputSig = R.get<double>();
  Res.VarianceLevel = R.get<int32_t>();
  Res.GraphAlive = static_cast<size_t>(R.get<uint64_t>());
  Res.GraphHeight = R.get<int32_t>();
  const uint8_t Backend = R.get<uint8_t>();
  if (Backend > static_cast<uint8_t>(AnalysisBackend::FpError))
    return Malformed();
  Res.Backend = static_cast<AnalysisBackend>(Backend);
  // Exactly the serialized fields, nothing more: trailing bytes mean the
  // entry was written by something else.
  if (!R.atEnd())
    return Malformed();
  return SR;
}

//===----------------------------------------------------------------------===//
// Streaming merge
//===----------------------------------------------------------------------===//

diag::Expected<ParallelAnalysisResult>
ParallelAnalysis::mergeStapStreaming(const std::vector<std::string> &Paths,
                                     const StreamingMergeOptions &Options,
                                     StreamingMergeStats *Stats) {
  StreamingMergeStats LocalStats;
  if (!Stats)
    Stats = &LocalStats;
  *Stats = StreamingMergeStats();
  if (Paths.empty())
    return diag::Status::error(diag::ErrC::EmptyInput,
                               "streaming merge: no shard paths");

  const auto ShardError = [&](size_t I, diag::ErrC Code,
                              const std::string &Why) {
    return diag::Status::error(Code, "shard '" + Paths[I] + "'" + Why);
  };
  const auto HasOptions = [](const LoadedTape &Tape) {
    return Tape.Meta && Tape.Meta->HasOptions;
  };
  const std::string NoMeta =
      " carries no META analysis options; the merge requires them";

  // The reference options are Paths[0]'s META, read before any job is
  // submitted and immutable afterwards.  The backend is a merge-side
  // choice layered on top: META pins how the tape was recorded (mode,
  // metric, widths...), not which question the merge asks of it.
  diag::Expected<LoadedTape> First = loadStap(Paths[0]);
  if (!First.hasValue())
    return ShardError(0, First.status().code(),
                      ": " + First.status().message());
  if (!HasOptions(First.value()))
    return ShardError(0, diag::ErrC::InvalidArgument, NoMeta);
  const AnalysisOptions Reference = [&] {
    AnalysisOptions AO = shardMetaOptions(*First.value().Meta);
    AO.Backend = Options.Backend;
    return AO;
  }();

  const size_t Window = std::max(1u, Options.PrefetchWindow);
  // Pipelined prefetch slots: Slots[I % Window] carries Paths[I] from
  // submission to consumption.  The pacing below never submits path
  // I + Window before path I was consumed, so a slot is always empty
  // when its job is submitted and at most Window tapes exist at once.
  // A job loads, checks and analyses its shard, then publishes Done —
  // with the result, or poisoned with the error, so the consumer never
  // waits on a slot that will never fill.
  struct Slot {
    bool Done = false;
    std::optional<ShardResult> Result; // set when Done and not poisoned
    diag::Status Error = diag::Status::ok();
  };
  std::vector<Slot> Slots(Window);
  std::mutex Mutex;
  std::condition_variable SlotReady;
  size_t InFlightTapes = 1; // Paths[0]'s tape is already loaded
  Stats->MaxTapesInFlight = 1;

  const auto RunJob = [&](size_t I) {
    // Paths[0]'s job takes the reference tape instead of loading it
    // twice.
    diag::Expected<LoadedTape> Loaded =
        I == 0 ? std::move(First) : loadStap(Paths[I]);
    const bool Held = Loaded.hasValue();
    if (Held && I != 0) {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stats->MaxTapesInFlight =
          std::max(Stats->MaxTapesInFlight, ++InFlightTapes);
    }
    StreamingMergeStats Local;
    std::optional<ShardResult> Result;
    diag::Status Error = diag::Status::ok();
    // A refused shard is released unanalysed, so it never reaches the
    // cache either.
    if (!Held)
      Error = ShardError(I, Loaded.status().code(),
                         ": " + Loaded.status().message());
    else if (!HasOptions(Loaded.value()))
      Error = ShardError(I, diag::ErrC::InvalidArgument, NoMeta);
    else if (!shardMetaMatches(*Loaded.value().Meta, Reference))
      Error = ShardError(I, diag::ErrC::InvalidArgument,
                         " was recorded under different analysis options "
                         "than '" +
                             Paths[0] + "'");
    else
      Result = analyseOrCacheShard(std::move(Loaded.value()), Reference,
                                   Options.Verify, Options.Cache,
                                   Options.ResultCache, Options.CacheAudit,
                                   &Local);
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Held)
      --InFlightTapes;
    Stats->CacheHits += Local.CacheHits;
    Stats->CacheMisses += Local.CacheMisses;
    Stats->Analysed += Local.Analysed;
    Stats->CacheAuditRejected += Local.CacheAuditRejected;
    Slot &S = Slots[I % Window];
    S.Result = std::move(Result);
    S.Error = std::move(Error);
    S.Done = true;
    SlotReady.notify_all();
  };

  rt::ThreadPool &Pool = rt::ThreadPool::shared(
      Options.NumThreads, resolveStealSeed(Options.StealSeed));
  rt::WaitGroup Group;
  // Declared after every local the jobs capture: any return path —
  // including a poisoned-slot error mid-loop — drains the outstanding
  // jobs before that state goes out of scope.
  struct DrainOnExit {
    rt::WaitGroup &G;
    ~DrainOnExit() { G.wait(); }
  } Drain{Group};

  std::vector<ShardResult> Shards;
  Shards.reserve(Paths.size());
  size_t NextToSubmit = 0; // next Paths index to hand to the pool
  for (size_t I = 0; I != Paths.size(); ++I) {
    // No lock held here: jobs acquire Mutex, and the inline fallback
    // runs the job on this thread.
    for (; NextToSubmit != std::min(I + Window, Paths.size());
         ++NextToSubmit)
      submitOrRun(Pool, Group, [&RunJob, J = NextToSubmit] { RunJob(J); });
    std::unique_lock<std::mutex> Lock(Mutex);
    Slot &S = Slots[I % Window];
    SlotReady.wait(Lock, [&] { return S.Done; });
    if (!S.Error.isOk())
      // First poisoned slot in path order rejects the merge;
      // DrainOnExit waits out the stragglers.
      return std::move(S.Error);
    Shards.push_back(std::move(*S.Result));
    ++Stats->ShardsMerged;
    S = Slot();
  }
  return mergeShards(std::move(Shards),
                     Options.Verify != ShardVerification::Off);
}
